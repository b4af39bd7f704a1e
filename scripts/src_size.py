#!/usr/bin/env python3
"""Report the size of ``src/`` on one line: its line count, its
public-symbol count and its config-field count.

* lines — every line of every ``*.py`` file under ``src/`` (the same
  figure as ``find src -name '*.py' | xargs cat | wc -l``);
* public symbols — the sum of the lengths of every module's
  ``__all__`` (package ``__init__`` re-exports included);
* config fields — the settable fields (annotated class-body names) of
  every class whose name ends in ``Config``.

All three are read from the source or its AST without importing
anything.

Stdlib only, always exits 0 — run directly (``python
scripts/src_size.py``) or via ``make src-size``; the CI lint-analysis
job prints it so each change reports its ``src/`` delta.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def public_symbols(tree: ast.Module) -> int:
    """Length of the module's literal ``__all__`` (0 without one)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return len(ast.literal_eval(node.value))
    return 0


def config_fields(tree: ast.Module) -> int:
    """Settable fields of the module's ``*Config`` classes."""
    return sum(
        isinstance(statement, ast.AnnAssign)
        and isinstance(statement.target, ast.Name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name.endswith("Config")
        for statement in node.body
    )


def main() -> int:
    lines = symbols = fields = 0
    for path in sorted(SRC_ROOT.rglob("*.py")):
        source = path.read_bytes()
        lines += source.count(b"\n")
        tree = ast.parse(source)
        symbols += public_symbols(tree)
        fields += config_fields(tree)
    print(f"src: {lines} lines, {symbols} public symbols, "
          f"{fields} config fields")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
