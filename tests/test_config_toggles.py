"""Regrowth guard: no ``*Config`` toggle that only its default uses.

Every ``bool``- or ``str``-annotated field (``| None`` included) of a
``*Config`` dataclass in ``src/repro`` must be set by name somewhere in
shipped code — ``src/repro``, ``benchmarks/``, ``scripts/``,
``examples/`` or ``perfbench/``, outside the field's own class body:
a ``field=`` keyword in a call of the class (``SVQAConfig(trace=...)``),
or an ``x.field = ...`` assignment whose receiver is named like a
config (``config.trace = ...``).  Tests do not count: an option no
shipped caller sets selects a code path nothing runs.  Matching is by
name, not type, so the check can miss a dead toggle, never invent one.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
SHIPPED = ("benchmarks", "scripts", "examples", "perfbench")
TOGGLE_TYPES = {"bool", "str"}

#: paper ablations no shipped code runs at a second value, kept so the
#: ablation can be reproduced by hand
ALLOWED = {
    # §V-B: frequency-ratio scheduling on/off
    "SVQAConfig.enable_scheduler",
}


def is_toggle(annotation):
    """Whether an annotation is ``bool``/``str``, or one of them
    ``| None``."""
    if isinstance(annotation, ast.Name):
        return annotation.id in TOGGLE_TYPES
    if isinstance(annotation, ast.BinOp) and \
            isinstance(annotation.op, ast.BitOr):
        sides = (annotation.left, annotation.right)
        return any(is_toggle(side) for side in sides) and any(
            isinstance(side, ast.Constant) and side.value is None
            for side in sides)
    return False


def config_toggles(tree):
    """``(class node, field name)`` of every toggle field of every
    ``*Config`` class in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and \
                        isinstance(statement.target, ast.Name) and \
                        is_toggle(statement.annotation):
                    yield node, statement.target.id


def last_name(node):
    """The final identifier of a ``Name`` or ``Attribute`` chain."""
    return getattr(node, "id", None) or getattr(node, "attr", "")


def set_fields(root, cls):
    """Fields of ``cls`` set under ``root``, outside ``cls`` itself."""
    names = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node is cls:
            continue
        if isinstance(node, ast.Call) and last_name(node.func) == cls.name:
            names |= {k.arg for k in node.keywords if k.arg is not None}
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names |= {t.attr for t in targets
                      if isinstance(t, ast.Attribute)
                      and "config" in last_name(t.value).lower()}
        stack.extend(ast.iter_child_nodes(node))
    return names


def parse_all(root):
    return [ast.parse(path.read_text("utf-8"))
            for path in sorted(root.rglob("*.py"))]


def unset_toggles():
    """``Class.field`` of every toggle no shipped code sets."""
    src = parse_all(SRC_ROOT)
    shipped = src + [tree for directory in SHIPPED
                     for tree in parse_all(REPO_ROOT / directory)]
    unset = {f"{cls.name}.{name}"
             for tree in src for cls, name in config_toggles(tree)
             if not any(name in set_fields(other, cls)
                        for other in shipped)}
    return sorted(unset - ALLOWED)


def test_every_config_toggle_is_set_by_shipped_code():
    unset = unset_toggles()
    assert unset == [], (
        "bool/str *Config fields no shipped code sets (delete the "
        f"option and the path it selects): {unset}"
    )


def test_allowlist_names_live_fields():
    fields = {f"{cls.name}.{name}" for tree in parse_all(SRC_ROOT)
              for cls, name in config_toggles(tree)}
    assert ALLOWED <= fields
