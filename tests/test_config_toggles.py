"""Regrowth guard: no ``*Config`` field that only its default uses.

Every field (an annotated class-body name, of any type) of a
``*Config`` class in ``src/repro`` must be set by name somewhere in
shipped code — ``src/repro``, ``benchmarks/``, ``scripts/``,
``examples/`` or ``perfbench/``: a ``field=`` keyword in a call of the
class (``SVQAConfig(trace=...)``, or ``cls(seed=...)`` inside one of
the class's own classmethods), or an ``x.field = ...`` assignment whose
receiver is named like a config (``config.trace = ...``).  Tests do
not count: a value no shipped caller picks is a module constant, not
an option.  Matching is by name, not type, so the check can miss a
dead field, never invent one.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
SHIPPED = ("benchmarks", "scripts", "examples", "perfbench")

#: paper parameters no shipped code sets to a second value, kept so the
#: experiment can be rerun by hand, each with the paper section it
#: reproduces
ALLOWED = {
    "SVQAConfig.enable_scheduler": "§V-B frequency-ratio scheduling",
    "SVQAConfig.cache_pool_size": "§V-B cache pool size (Fig. 11)",
    "SVQAConfig.executor": "§V Algorithm 3 matching thresholds",
    "SVQAConfig.aggregator": "§III-B Algorithm 1 parameters",
    "ExecutorConfig.ld_threshold": "§V vertex matching",
    "ExecutorConfig.predicate_threshold": "§V edge-label matching",
    "ExecutorConfig.constraint_threshold": "§V constraint matching",
    "AggregatorConfig.subgraph_hops": "§III-B Algorithm 1's k",
}


def config_fields(tree):
    """``(class node, field name)`` of every field of every
    ``*Config`` class in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and \
                        isinstance(statement.target, ast.Name):
                    yield node, statement.target.id


def last_name(node):
    """The final identifier of a ``Name`` or ``Attribute`` chain."""
    return getattr(node, "id", None) or getattr(node, "attr", "")


def call_keywords(node):
    return {k.arg for k in node.keywords if k.arg is not None}


def own_classmethod_sets(cls):
    """Fields ``cls`` sets on itself: keywords of a ``cls(...)`` call
    inside one of its classmethods."""
    names = set()
    for method in cls.body:
        if isinstance(method, ast.FunctionDef) and method.args.args and any(
                last_name(d) == "classmethod" for d in method.decorator_list):
            receiver = method.args.args[0].arg
            names |= {k for node in ast.walk(method)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == receiver
                      for k in call_keywords(node)}
    return names


def set_fields(root, cls):
    """Fields of ``cls`` set under ``root``: by callers outside ``cls``
    and by ``cls``'s own classmethods."""
    names = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node is cls:
            names |= own_classmethod_sets(cls)
            continue
        if isinstance(node, ast.Call) and last_name(node.func) == cls.name:
            names |= call_keywords(node)
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


def unset_fields():
    """``Class.field`` of every field no shipped code sets."""
    src = parse_all(SRC_ROOT)
    shipped = src + [tree for directory in SHIPPED
                     for tree in parse_all(REPO_ROOT / directory)]
    return sorted(
        f"{cls.name}.{name}"
        for tree in src for cls, name in config_fields(tree)
        if not any(name in set_fields(other, cls) for other in shipped))


def test_every_config_toggle_is_set_by_shipped_code():
    unset = [name for name in unset_fields() if name not in ALLOWED]
    assert unset == [], (
        "*Config fields no shipped code sets (make each a module "
        f"constant beside the code that reads it): {unset}"
    )


def test_allowlist_names_live_fields():
    fields = {f"{cls.name}.{name}" for tree in parse_all(SRC_ROOT)
              for cls, name in config_fields(tree)}
    assert set(ALLOWED) <= fields
    assert all(section.startswith("§") for section in ALLOWED.values())
