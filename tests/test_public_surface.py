"""Regrowth guard: no ``src/`` definition that only tests reach.

Every top-level function, class and UPPER_CASE constant in
``src/repro``, and every public method and property of its top-level
classes, must be reached from a shipped entry point: the package
itself, ``benchmarks/``, ``scripts/``, ``examples/`` or
``perfbench/``.  Reachability is a
fixpoint over names: a definition is live when a live body names it.
The roots are everything outside ``src/`` and the module-level code
of each ``src/`` module, minus its ``__all__``, its constants (a
constant's value counts only once the constant is reached) and the
package ``__init__`` re-exports, which would keep anything alive.  A
reached class keeps its own body alive (bases, fields, private and
dunder methods) but not its public methods: each of those is live only
when its name is.  Functions registered by ``@query_rule`` run through
the registry and count as roots.  Matching is by bare name, so a name used anywhere keeps every
definition of it alive; the check can miss dead code, never invent
it.  A helper that only a test needs belongs in ``tests/``.
"""

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
SHIPPED = ("benchmarks", "scripts", "examples", "perfbench")
#: decorators that register the function they wrap
REGISTERING = {"query_rule"}
#: module-level names held to the check like definitions
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def referenced_names(nodes):
    """Every identifier the nodes name: loads, attributes, imported
    names, and string constants that are bare identifiers."""
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return names


def is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def constant_names(node):
    """The names a module-level assignment binds, when every one of
    them is an UPPER_CASE constant; otherwise ``[]``."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    else:
        return []
    names = [t.id for t in targets if isinstance(t, ast.Name)]
    if len(names) != len(targets) or \
            not all(CONSTANT.fullmatch(name) for name in names):
        return []
    return names


def is_registered(node):
    for decorator in node.decorator_list:
        call = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(call, "id", None) in REGISTERING:
            return True
    return False


def is_public_method(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
        and not node.name.startswith("_")


def class_definitions(module, node):
    """The class, with its body minus its public methods, and each
    public method (``module:Class.method``)."""
    methods = [item for item in node.body if is_public_method(item)]
    rest = [child for child in ast.iter_child_nodes(node)
            if child not in methods]
    return [(f"{module}:{node.name}", node.name, referenced_names(rest))] \
        + [(f"{module}:{node.name}.{method.name}", method.name,
            referenced_names([method])) for method in methods]


def unreached_definitions():
    """``module:name`` of every top-level ``src/repro`` definition and
    constant, and ``module:Class.method`` of every public method, no
    shipped entry point reaches."""
    definitions = []   # (label, name, names its body references)
    live = set()
    for directory in SHIPPED:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            live |= referenced_names([ast.parse(path.read_text("utf-8"))])
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        module = path.relative_to(SRC_ROOT).with_suffix("").as_posix()
        top_level = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                definitions += class_definitions(module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = referenced_names([node])
                if is_registered(node) or node.name.startswith("__"):
                    live |= body
                else:
                    definitions.append((f"{module}:{node.name}", node.name,
                                        body))
            elif constant_names(node):
                body = referenced_names([node.value])
                definitions += [(f"{module}:{name}", name, body)
                                for name in constant_names(node)]
            elif not is_all(node):
                top_level.append(node)
        live |= referenced_names(top_level)
    pending = definitions
    while True:
        reached = [d for d in pending if d[1] in live]
        if not reached:
            return sorted(label for label, _, _ in pending)
        pending = [d for d in pending if d[1] not in live]
        for _, _, body in reached:
            live |= body


def test_every_src_definition_is_reached_from_a_shipped_entry_point():
    unreached = unreached_definitions()
    assert unreached == [], (
        "src/ definitions that only tests reach (delete them, or move "
        f"them into tests/ if a test needs them): {unreached}"
    )
