"""Regrowth guard: a missing ``clock`` or ``stats`` is a default object,
not a second code path.

No condition in ``src/repro`` may compare a name or attribute called
``clock`` or ``stats`` with ``None``: a component built without one
takes a private default (``clock if clock is not None else
SimClock()``), so every charge and every ``record_*`` runs on one path.
That default idiom is the one comparison allowed.  The per-call and
span clocks of the files in :data:`PER_CALL_CLOCKS` are optional by
design and are not checked.
"""

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
COLLABORATORS = {"clock", "stats"}

#: modules whose ``clock``/``stats`` is an optional per-call argument
#: or a span's clock, not a component's collaborator
PER_CALL_CLOCKS = {
    "resilience/faults.py",
    "observability/spans.py",
}


def collaborator(node):
    """Whether ``node`` is a ``Name``/``Attribute`` called ``clock`` or
    ``stats``."""
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return name in COLLABORATORS


def is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def none_compares(tree):
    """Every comparison of a collaborator with ``None``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            sides = (node.left, node.comparators[0])
            if any(map(is_none, sides)) and any(map(collaborator, sides)):
                yield node


def default_idioms(tree):
    """The tests of ``x if x is not None else default`` expressions
    (``default`` a new object or one the component already holds)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.IfExp) and \
                isinstance(node.test, ast.Compare) and \
                isinstance(node.test.ops[0], ast.IsNot) and \
                ast.dump(node.test.left) == ast.dump(node.body):
            yield node.test


def forks():
    """``path:line`` of every collaborator ``None`` fork in ``src/``."""
    found = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        relative = path.relative_to(SRC_ROOT).as_posix()
        if relative in PER_CALL_CLOCKS:
            continue
        tree = ast.parse(path.read_text("utf-8"))
        allowed = {id(test) for test in default_idioms(tree)}
        found += [f"{relative}:{node.lineno}"
                  for node in none_compares(tree) if id(node) not in allowed]
    return found


def test_no_clock_or_stats_none_forks():
    assert forks() == [], (
        "clock/stats compared with None (give the component a default "
        "object instead): " + ", ".join(forks())
    )


def test_per_call_clock_files_exist():
    assert all((SRC_ROOT / name).is_file() for name in PER_CALL_CLOCKS)
