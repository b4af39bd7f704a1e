"""Static lock-order model: extraction, call graph, acquisition edges.

This is the analysis core behind lint rules RP008–RP011
(:mod:`repro.analysis.concurrency.rules`).  It runs in three passes
over every module handed to the linter:

1. **extraction** — each class's lock attributes (``self._lock = threading.Lock()``,
   dataclass lock fields, :func:`repro.locks.wrap_lock` wrappers,
   ``threading.Condition(self._lock)`` aliases), each function's
   lock-held regions (``with self._lock:`` scopes, including local
   locks closed over by nested functions), and — per statement walked
   with the held-set threaded through — every call, blocking
   primitive, and lock publication observed under (or outside) a held
   lock;
2. **call graph** — call sites are resolved to analyzed functions via
   ``self`` methods, constructor-recorded attribute types
   (``self.svqa = svqa`` with an annotated parameter), local variable
   types (``batch = BatchExecutor(...)``), import aliases, and nested
   function scopes; unresolved targets contribute nothing (the
   analysis under-approximates rather than guesses);
3. **lock-order graph** — a directed edge ``A -> B`` is recorded
   whenever ``B`` is acquired (directly, or anywhere in a resolved
   callee's transitive *footprint*) while ``A`` is held.  Cycles in
   this graph are RP008 deadlock candidates.

Lock identity is ``(module, owner, attr)`` where ``owner`` is the
defining class (``KeyCentricCache._inflight_lock``) or, for local
locks, the defining function (``BatchExecutor.run.shard_lock``) — two
instances of one role are deliberately conflated, which is the
standard conservative choice for order analysis.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import PurePath

from repro.analysis.code_rules import qualified_name, resolve_aliases

#: constructors whose result is a lock (or lock wrapper;
#: ``SharedLock`` is :mod:`repro.memo`'s lazily wrapped lock)
LOCK_FACTORY_SUFFIXES: tuple[str, ...] = (
    "threading.Lock",
    "threading.RLock",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "SharedLock",
)

#: attribute names that read as a private lock (RP011's publication test)
_PRIVATE_LOCK_RE = re.compile(r"^_(?:\w+_)?r?locks?(?:_\w+)?$",
                              re.IGNORECASE)

#: ``lock``/``cond`` must appear as a word segment (``_lock``,
#: ``state_lock``, ``rlock``, ``io_cond``), not as an incidental
#: substring (``clock``, ``block``, ``second``)
_LOCK_SEGMENT_RE = re.compile(r"(?:^|_)r?lock", re.IGNORECASE)
_COND_SEGMENT_RE = re.compile(r"(?:^|_)r?cond", re.IGNORECASE)


def _lockish_name(name: str) -> bool:
    return _LOCK_SEGMENT_RE.search(name) is not None


def _condish_name(name: str) -> bool:
    return _COND_SEGMENT_RE.search(name) is not None

#: callees a lock may legitimately be handed to (lock composition)
PUBLICATION_EXEMPT_CALLEES: frozenset[str] = frozenset({
    "threading.Condition",
    "repro.locks.wrap_lock",
    "locks.wrap_lock",
    "wrap_lock",
})

#: modules whose locks are invisible to the order analysis: the
#: instrumentation seam's ``_install_lock`` is a private leaf taken
#: inside ``wrap_lock`` under arbitrary callers' locks by design
#: (it guards observer installation only and never nests outward)
SEAM_MODULE_SUFFIXES: tuple[str, ...] = ("repro/locks.py",)


def _is_seam_lock(lock: LockId) -> bool:
    normalized = lock.module.replace("\\", "/")
    return any(normalized.endswith(suffix)
               for suffix in SEAM_MODULE_SUFFIXES)

#: method names that block the calling thread (RP009)
BLOCKING_ATTRS: frozenset[str] = frozenset({
    "result", "join", "wait", "get", "put",
})


@dataclass(frozen=True)
class LockId:
    """One lock role: ``(module, owner, attr)``."""

    module: str
    owner: str
    attr: str

    def __str__(self) -> str:
        return f"{self.owner}.{self.attr}"


@dataclass(frozen=True)
class Acquisition:
    """One ``with <lock>:`` entry and the locks already held there."""

    lock: LockId
    held: tuple[LockId, ...]
    path: str
    line: int


@dataclass(frozen=True)
class BlockingCall:
    """A blocking primitive invoked while at least one lock is held."""

    call: str
    held: tuple[LockId, ...]
    path: str
    line: int


@dataclass(frozen=True)
class Publication:
    """A lock attribute escaping its owner class (RP011)."""

    kind: str       # "return" | "foreign-access" | "argument"
    detail: str
    path: str
    line: int


@dataclass
class CallEvent:
    """One call site, with the locks held when it executes."""

    func: ast.expr
    held: tuple[LockId, ...]
    line: int

    def render(self) -> str:
        try:
            return ast.unparse(self.func)
        except Exception:  # pragma: no cover - unparse is best-effort
            return "<call>"


@dataclass
class FunctionInfo:
    """One analyzed function (module-level, method, or nested)."""

    module: str
    qualname: str
    class_name: str | None
    params: frozenset[str] = frozenset()
    callable_params: frozenset[str] = frozenset()
    acquisitions: list[Acquisition] = field(default_factory=list)
    calls: list[CallEvent] = field(default_factory=list)
    blocking: list[BlockingCall] = field(default_factory=list)
    publications: list[Publication] = field(default_factory=list)
    local_types: dict[str, str] = field(default_factory=dict)
    nested: dict[str, FunctionInfo] = field(default_factory=dict)
    parent: FunctionInfo | None = None


@dataclass
class ClassInfo:
    """One class's lock/attribute metadata."""

    module: str
    name: str
    locks: set[str] = field(default_factory=set)
    aliases: dict[str, str] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    callback_attrs: set[str] = field(default_factory=set)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)

    def canonical(self, attr: str) -> str:
        """Follow ``Condition(self._lock)``-style aliases one step."""
        return self.aliases.get(attr, attr)

    def lock_id(self, attr: str) -> LockId:
        return LockId(self.module, self.name, self.canonical(attr))


@dataclass
class ModuleInfo:
    """One module's extracted classes, functions, and import aliases."""

    path: str
    aliases: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    all_functions: list[FunctionInfo] = field(default_factory=list)


@dataclass(frozen=True)
class OrderEdge:
    """``src`` held while ``dst`` is acquired."""

    src: LockId
    dst: LockId


@dataclass(frozen=True)
class EdgeSite:
    """Where (and how) an order edge was first observed."""

    path: str
    line: int
    via: str


def _annotation_name(node: ast.expr | None) -> str | None:
    """The head type name of a parameter annotation, if recoverable."""
    if node is None:
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_name(node.left)
    if isinstance(node, ast.Subscript):
        return _annotation_name(node.value)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[")[0].split(".")[-1].strip()
    return None


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` as a string when the expression is a plain chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_lock_factory(call: ast.Call, aliases: dict[str, str]) -> bool:
    name = qualified_name(call.func, aliases)
    if name is None:
        return False
    if name.endswith("wrap_lock"):
        return True
    return any(name == suffix or name.endswith("." + suffix)
               for suffix in LOCK_FACTORY_SUFFIXES)


def _condition_alias_target(call: ast.Call,
                            aliases: dict[str, str]) -> str | None:
    """``threading.Condition(self.X)`` -> ``X`` (the aliased lock)."""
    name = qualified_name(call.func, aliases)
    if name is None or not name.endswith("Condition"):
        return None
    if call.args and isinstance(call.args[0], ast.Attribute):
        target = call.args[0]
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            return target.attr
    return None


def _is_condition_factory(call: ast.Call, aliases: dict[str, str]) -> bool:
    name = qualified_name(call.func, aliases)
    return name is not None and name.endswith("Condition")


class _FunctionWalker:
    """Walks one function body threading the held-lock set through."""

    def __init__(
        self,
        info: FunctionInfo,
        klass: ClassInfo | None,
        module: ModuleInfo,
        closure_locks: dict[str, LockId],
    ) -> None:
        self.info = info
        self.klass = klass
        self.module = module
        # local lock variables visible here (own + enclosing functions)
        self.local_locks: dict[str, LockId] = dict(closure_locks)

    # -- lock reference resolution ------------------------------------
    def _lock_from_expr(self, expr: ast.expr) -> LockId | None:
        """The lock a ``with`` item (or blocking receiver) refers to."""
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id in ("self", "cls"):
            attr = expr.attr
            if self.klass is not None:
                canonical = self.klass.canonical(attr)
                if canonical in self.klass.locks:
                    return self.klass.lock_id(attr)
            if _lockish_name(attr) or _condish_name(attr):
                owner = self.klass.name if self.klass is not None \
                    else self.info.qualname
                return LockId(self.info.module, owner, attr)
            return None
        if isinstance(expr, ast.Name):
            known = self.local_locks.get(expr.id)
            if known is not None:
                return known
            if _lockish_name(expr.id) or _condish_name(expr.id):
                return LockId(self.info.module, self.info.qualname,
                              expr.id)
        return None

    # -- the statement walk -------------------------------------------
    def walk(self, statements: list[ast.stmt],
             held: tuple[LockId, ...]) -> None:
        for stmt in statements:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._handle_with(stmt, held)
            elif isinstance(stmt, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                self._handle_nested(stmt)
            elif isinstance(stmt, ast.ClassDef):
                continue  # local classes own their locking story
            elif isinstance(stmt, ast.If):
                self._scan_expr(stmt.test, held)
                self.walk(stmt.body, held)
                self.walk(stmt.orelse, held)
            elif isinstance(stmt, ast.While):
                self._scan_expr(stmt.test, held)
                self.walk(stmt.body, held)
                self.walk(stmt.orelse, held)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_expr(stmt.iter, held)
                self.walk(stmt.body, held)
                self.walk(stmt.orelse, held)
            elif isinstance(stmt, ast.Try):
                self.walk(stmt.body, held)
                for handler in stmt.handlers:
                    self.walk(handler.body, held)
                self.walk(stmt.orelse, held)
                self.walk(stmt.finalbody, held)
            else:
                self._track_local_lock(stmt)
                self._track_local_type(stmt)
                if isinstance(stmt, ast.Return):
                    self._check_return(stmt)
                self._scan_stmt_exprs(stmt, held)

    def _handle_with(self, stmt: ast.With | ast.AsyncWith,
                     held: tuple[LockId, ...]) -> None:
        acquired: list[LockId] = []
        for item in stmt.items:
            self._scan_expr(item.context_expr, held)
            lock = self._lock_from_expr(item.context_expr)
            if lock is not None:
                self.info.acquisitions.append(Acquisition(
                    lock, held, self.info.module, stmt.lineno,
                ))
                if lock not in held and lock not in acquired:
                    acquired.append(lock)
        self.walk(stmt.body, held + tuple(acquired))

    def _handle_nested(
        self, stmt: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        nested = _analyze_function(
            stmt, self.klass, self.module,
            qualname=f"{self.info.qualname}.{stmt.name}",
            closure_locks=self.local_locks,
            parent=self.info,
        )
        self.info.nested[stmt.name] = nested

    # -- local variable tracking --------------------------------------
    def _track_local_lock(self, stmt: ast.stmt) -> None:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            return
        value = stmt.value
        if isinstance(value, ast.Call) and (
            _is_lock_factory(value, self.module.aliases)
            or _is_condition_factory(value, self.module.aliases)
        ):
            self.local_locks[target.id] = LockId(
                self.info.module, self.info.qualname, target.id,
            )

    def _track_local_type(self, stmt: ast.stmt) -> None:
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
            if isinstance(target, ast.Name):
                name = _annotation_name(stmt.annotation)
                if name is not None:
                    self.info.local_types[target.id] = name
        if not isinstance(target, ast.Name) \
                or not isinstance(value, ast.Call):
            return
        callee = qualified_name(value.func, self.module.aliases)
        if callee is not None:
            head = callee.split(".")[-1]
            if head and head[0].isupper():
                self.info.local_types[target.id] = head

    # -- RP011 return publication -------------------------------------
    def _check_return(self, stmt: ast.Return) -> None:
        value = stmt.value
        if not isinstance(value, ast.Attribute) \
                or not isinstance(value.value, ast.Name) \
                or value.value.id not in ("self", "cls"):
            return
        attr = value.attr
        owns = self.klass is not None \
            and self.klass.canonical(attr) in self.klass.locks
        if owns or _PRIVATE_LOCK_RE.match(attr):
            self.info.publications.append(Publication(
                "return", f"returns lock attribute self.{attr}",
                self.info.module, stmt.lineno,
            ))

    # -- expression scanning ------------------------------------------
    def _scan_stmt_exprs(self, stmt: ast.stmt,
                         held: tuple[LockId, ...]) -> None:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, held)

    def _scan_expr(self, expr: ast.expr,
                   held: tuple[LockId, ...]) -> None:
        for node in self._walk_expr(expr):
            if isinstance(node, ast.Call):
                self._process_call(node, held)
            elif isinstance(node, ast.Attribute):
                self._check_foreign_access(node)

    @staticmethod
    def _walk_expr(expr: ast.expr) -> list[ast.AST]:
        """Every node of ``expr`` except lambda bodies (not executed
        at this point in the control flow)."""
        found: list[ast.AST] = []
        stack: list[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            found.append(node)
            if isinstance(node, ast.Lambda):
                continue
            stack.extend(ast.iter_child_nodes(node))
        return found

    def _process_call(self, call: ast.Call,
                      held: tuple[LockId, ...]) -> None:
        self.info.calls.append(CallEvent(call.func, held, call.lineno))
        if held:
            self._check_blocking(call, held)
        self._check_argument_publication(call)

    def _check_blocking(self, call: ast.Call,
                        held: tuple[LockId, ...]) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute) \
                or func.attr not in BLOCKING_ATTRS:
            return
        receiver = func.value
        attr = func.attr
        if attr == "join":
            # exclude str.join / os.path.join lookalikes
            if isinstance(receiver, ast.Constant):
                return
            dotted = _dotted(receiver)
            if dotted is not None and (
                dotted in ("os", "os.path") or dotted.endswith("path")
            ):
                return
        if attr in ("get", "put"):
            dotted = _dotted(receiver)
            if dotted is None \
                    or "queue" not in dotted.split(".")[-1].lower():
                return
        if attr == "wait":
            lock = self._lock_from_expr(receiver)
            if lock is not None and lock in held:
                return  # Condition.wait on the held lock: the pattern
        rendered = _dotted(receiver) or "<expr>"
        self.info.blocking.append(BlockingCall(
            f"{rendered}.{attr}", held, self.info.module, call.lineno,
        ))

    def _check_argument_publication(self, call: ast.Call) -> None:
        lock_args = [
            arg for arg in list(call.args)
            + [kw.value for kw in call.keywords]
            if isinstance(arg, ast.Attribute)
            and isinstance(arg.value, ast.Name)
            and arg.value.id in ("self", "cls")
            and (
                (self.klass is not None
                 and self.klass.canonical(arg.attr) in self.klass.locks)
                or _PRIVATE_LOCK_RE.match(arg.attr)
            )
        ]
        if not lock_args:
            return
        callee = qualified_name(call.func, self.module.aliases)
        if callee is not None and (
            callee in PUBLICATION_EXEMPT_CALLEES
            or callee.endswith("Condition")
            or callee.endswith("wrap_lock")
        ):
            return
        for arg in lock_args:
            self.info.publications.append(Publication(
                "argument",
                f"passes lock attribute self.{arg.attr} to "
                f"{callee or 'a call'}",
                self.info.module, call.lineno,
            ))

    def _check_foreign_access(self, node: ast.Attribute) -> None:
        if not _PRIVATE_LOCK_RE.match(node.attr):
            return
        root = node.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if not isinstance(root, ast.Name):
            return
        if root.id in ("self", "cls"):
            return
        # module receivers (threading, repro.locks, ...) are not
        # instances publishing their lock
        if root.id in self.module.aliases or root.id in (
            "threading", "locks",
        ):
            return
        rendered = _dotted(node) or node.attr
        self.info.publications.append(Publication(
            "foreign-access",
            f"accesses another object's lock attribute {rendered}",
            self.info.module, node.lineno,
        ))


def _analyze_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    klass: ClassInfo | None,
    module: ModuleInfo,
    qualname: str,
    closure_locks: dict[str, LockId] | None = None,
    parent: FunctionInfo | None = None,
) -> FunctionInfo:
    args = node.args
    all_args = (list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs))
    params = frozenset(
        a.arg for a in all_args if a.arg not in ("self", "cls")
    )
    callable_params = frozenset(
        a.arg for a in all_args
        if a.annotation is not None
        and "Callable" in ast.dump(a.annotation)
    )
    info = FunctionInfo(
        module=module.path,
        qualname=qualname,
        class_name=klass.name if klass is not None else None,
        params=params,
        callable_params=callable_params,
        parent=parent,
    )
    # annotated parameters seed the local type table
    for a in all_args:
        name = _annotation_name(a.annotation)
        if name is not None and name[0].isupper() \
                and "Callable" not in name:
            info.local_types[a.arg] = name
    walker = _FunctionWalker(info, klass, module,
                             dict(closure_locks or {}))
    walker.walk(node.body, held=())
    module.all_functions.append(info)
    return info


def _extract_class_metadata(node: ast.ClassDef,
                            module: ModuleInfo) -> ClassInfo:
    klass = ClassInfo(module=module.path, name=node.name)
    # dataclass-style lock fields at class level
    for item in node.body:
        if isinstance(item, ast.AnnAssign) \
                and isinstance(item.target, ast.Name):
            target = item.target.id
            if _lockish_name(target):
                klass.locks.add(target)
            else:
                name = _annotation_name(item.annotation)
                if name in ("Lock", "RLock"):
                    klass.locks.add(target)
    # instance attributes assigned in any method
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
            continue
        target = sub.targets[0]
        if not isinstance(target, ast.Attribute) \
                or not isinstance(target.value, ast.Name) \
                or target.value.id != "self":
            continue
        attr = target.attr
        value = sub.value
        if isinstance(value, ast.Call):
            alias_target = _condition_alias_target(value, module.aliases)
            if alias_target is not None:
                klass.aliases[attr] = alias_target
                klass.locks.add(alias_target)
                continue
            if _is_lock_factory(value, module.aliases) \
                    or _is_condition_factory(value, module.aliases):
                klass.locks.add(attr)
                continue
            callee = qualified_name(value.func, module.aliases)
            if callee is not None:
                head = callee.split(".")[-1]
                if head and head[0].isupper():
                    klass.attr_types[attr] = head
                    continue
        if _lockish_name(attr):
            klass.locks.add(attr)
    # constructor parameters stored on self: types and callbacks
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        annotations: dict[str, ast.expr | None] = {}
        args = item.args
        for a in (list(args.posonlyargs) + list(args.args)
                  + list(args.kwonlyargs)):
            annotations[a.arg] = a.annotation
        for sub in ast.walk(item):
            if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
                continue
            target = sub.targets[0]
            if not isinstance(target, ast.Attribute) \
                    or not isinstance(target.value, ast.Name) \
                    or target.value.id != "self" \
                    or not isinstance(sub.value, ast.Name):
                continue
            param = sub.value.id
            if param not in annotations:
                continue
            annotation = annotations[param]
            if annotation is not None \
                    and "Callable" in ast.dump(annotation):
                klass.callback_attrs.add(target.attr)
                continue
            name = _annotation_name(annotation)
            if name is not None and name and name[0].isupper():
                klass.attr_types.setdefault(target.attr, name)
    return klass


def extract_module(path: str, tree: ast.Module) -> ModuleInfo:
    """Extract one module's lock/call metadata."""
    module = ModuleInfo(path=path, aliases=resolve_aliases(tree))
    # two passes: class metadata first, so method analysis sees every
    # lock attribute regardless of definition order
    class_nodes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
    for node in class_nodes:
        module.classes[node.name] = _extract_class_metadata(node, module)
    for node in class_nodes:
        klass = module.classes[node.name]
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                klass.methods[item.name] = _analyze_function(
                    item, klass, module,
                    qualname=f"{node.name}.{item.name}",
                )
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[node.name] = _analyze_function(
                node, None, module, qualname=node.name,
            )
    return module


class LockOrderAnalysis:
    """The cross-module lock-order graph and its supporting indexes."""

    def __init__(self, trees: Mapping[str, ast.Module]) -> None:
        self.modules: dict[str, ModuleInfo] = {
            path: extract_module(path, trees[path])
            for path in sorted(trees)
        }
        # bare-name indexes; ambiguous names resolve to nothing
        self._classes_by_name: dict[str, ClassInfo | None] = {}
        self._functions_by_name: dict[str, FunctionInfo | None] = {}
        for minfo in self.modules.values():
            for cname, cinfo in minfo.classes.items():
                if cname in self._classes_by_name:
                    self._classes_by_name[cname] = None
                else:
                    self._classes_by_name[cname] = cinfo
            for fname, finfo in minfo.functions.items():
                if fname in self._functions_by_name:
                    self._functions_by_name[fname] = None
                else:
                    self._functions_by_name[fname] = finfo
        self._footprints: dict[int, frozenset[LockId]] = {}
        self.edges: dict[OrderEdge, EdgeSite] = {}
        self._build_edges()

    # -- call resolution ----------------------------------------------
    def _class_by_name(self, name: str | None) -> ClassInfo | None:
        if name is None:
            return None
        return self._classes_by_name.get(name)

    def _method_of(self, cinfo: ClassInfo | None,
                   method: str) -> FunctionInfo | None:
        if cinfo is None:
            return None
        return cinfo.methods.get(method)

    def resolve_call(self, event: CallEvent, fn: FunctionInfo,
                     minfo: ModuleInfo) -> FunctionInfo | None:
        """The analyzed function a call site dispatches to, if known."""
        func = event.func
        if isinstance(func, ast.Name):
            name = func.id
            scope: FunctionInfo | None = fn
            while scope is not None:
                if name in scope.nested:
                    return scope.nested[name]
                scope = scope.parent
            if name in fn.params:
                return None  # a callback parameter: not resolvable
            if name in minfo.functions:
                return minfo.functions[name]
            klass = self._class_by_name(
                name if name in minfo.classes
                else _last_segment(minfo.aliases.get(name)))
            if name in minfo.classes:
                klass = minfo.classes[name]
            if klass is not None:
                return self._method_of(klass, "__init__")
            if name in minfo.aliases:
                imported = _last_segment(minfo.aliases[name])
                if imported is not None:
                    target = self._functions_by_name.get(imported)
                    if target is not None:
                        return target
            return None
        if not isinstance(func, ast.Attribute):
            return None
        receiver = func.value
        method = func.attr
        if isinstance(receiver, ast.Name):
            rid = receiver.id
            if rid in ("self", "cls") and fn.class_name is not None:
                own = minfo.classes.get(fn.class_name)
                return self._method_of(own, method)
            type_name = fn.local_types.get(rid)
            if type_name is not None:
                return self._method_of(
                    self._class_by_name(type_name), method)
            if rid in minfo.aliases:
                target = self._functions_by_name.get(method)
                if target is not None \
                        and _module_of(minfo.aliases[rid], target):
                    return target
            return None
        if isinstance(receiver, ast.Attribute) \
                and isinstance(receiver.value, ast.Name) \
                and receiver.value.id in ("self", "cls") \
                and fn.class_name is not None:
            own = minfo.classes.get(fn.class_name)
            if own is not None:
                type_name = own.attr_types.get(receiver.attr)
                if type_name is not None:
                    return self._method_of(
                        self._class_by_name(type_name), method)
        return None

    # -- transitive lock footprints -----------------------------------
    def footprint(self, fn: FunctionInfo) -> frozenset[LockId]:
        """Every lock ``fn`` may acquire, directly or via resolved
        callees (memoized; cycles contribute what was found so far)."""
        return self._footprint_of(fn, set())

    def _footprint_of(self, fn: FunctionInfo,
                      visiting: set[int]) -> frozenset[LockId]:
        key = id(fn)
        cached = self._footprints.get(key)
        if cached is not None:
            return cached
        if key in visiting:
            return frozenset()
        visiting.add(key)
        locks: set[LockId] = {a.lock for a in fn.acquisitions
                              if not _is_seam_lock(a.lock)}
        minfo = self.modules[fn.module]
        for event in fn.calls:
            target = self.resolve_call(event, fn, minfo)
            if target is not None:
                locks.update(self._footprint_of(target, visiting))
        visiting.discard(key)
        result = frozenset(locks)
        self._footprints[key] = result
        return result

    # -- the lock-order graph -----------------------------------------
    def _add_edge(self, src: LockId, dst: LockId,
                  path: str, line: int, via: str) -> None:
        if src == dst:
            return  # reentrant reacquisition of the same role
        edge = OrderEdge(src, dst)
        if edge not in self.edges:
            self.edges[edge] = EdgeSite(path, line, via)

    def _build_edges(self) -> None:
        for path in sorted(self.modules):
            minfo = self.modules[path]
            for fn in minfo.all_functions:
                for acq in fn.acquisitions:
                    for held in acq.held:
                        self._add_edge(held, acq.lock, acq.path,
                                       acq.line, "direct acquisition")
                for event in fn.calls:
                    if not event.held:
                        continue
                    target = self.resolve_call(event, fn, minfo)
                    if target is None:
                        continue
                    for lock in sorted(self.footprint(target), key=str):
                        for held in event.held:
                            self._add_edge(
                                held, lock, fn.module, event.line,
                                f"via call {event.render()}",
                            )

    def cycles(self) -> list[list[LockId]]:
        """Strongly connected components with more than one lock,
        sorted deterministically (each cycle starts at its smallest
        lock, cycles ordered by that lock)."""
        adjacency: dict[LockId, list[LockId]] = {}
        for edge in self.edges:
            adjacency.setdefault(edge.src, []).append(edge.dst)
            adjacency.setdefault(edge.dst, [])
        for node in adjacency:
            adjacency[node].sort(key=str)

        index_of: dict[LockId, int] = {}
        lowlink: dict[LockId, int] = {}
        on_stack: set[LockId] = set()
        stack: list[LockId] = []
        sccs: list[list[LockId]] = []
        counter = [0]

        def strongconnect(root: LockId) -> None:
            work: list[tuple[LockId, int]] = [(root, 0)]
            while work:
                node, child_index = work.pop()
                if child_index == 0:
                    index_of[node] = lowlink[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                children = adjacency.get(node, [])
                while child_index < len(children):
                    child = children[child_index]
                    child_index += 1
                    if child not in index_of:
                        work.append((node, child_index))
                        work.append((child, 0))
                        recurse = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node],
                                            index_of[child])
                if recurse:
                    continue
                if lowlink[node] == index_of[node]:
                    component: list[LockId] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component, key=str))
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent],
                                          lowlink[node])

        for node in sorted(adjacency, key=str):
            if node not in index_of:
                strongconnect(node)
        sccs.sort(key=lambda component: str(component[0]))
        return sccs

    def cycle_edges(self, component: list[LockId]) -> list[
            tuple[OrderEdge, EdgeSite]]:
        """The edges internal to one cycle, deterministically ordered."""
        members = set(component)
        internal = [
            (edge, site) for edge, site in self.edges.items()
            if edge.src in members and edge.dst in members
        ]
        internal.sort(key=lambda pair: (str(pair[0].src),
                                        str(pair[0].dst)))
        return internal


def _last_segment(qualified: str | None) -> str | None:
    if qualified is None:
        return None
    return qualified.split(".")[-1]


def _module_of(qualified: str, fn: FunctionInfo) -> bool:
    """Whether an imported module name plausibly matches ``fn``'s
    defining module (suffix match on the file path)."""
    tail = qualified.split(".")[-1]
    return PurePath(fn.module).stem == tail


__all__ = [
    "Acquisition",
    "BlockingCall",
    "CallEvent",
    "ClassInfo",
    "EdgeSite",
    "FunctionInfo",
    "LockId",
    "LockOrderAnalysis",
    "ModuleInfo",
    "OrderEdge",
    "Publication",
    "extract_module",
]
