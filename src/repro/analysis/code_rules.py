"""AST rules encoding this repo's invariants (the ``RP###`` set).

PR 1's concurrent batch engine introduced repo-wide invariants that
nothing enforced mechanically; each rule here is one of them:

========  =========  ====================================================
rule id   severity   invariant
========  =========  ====================================================
RP001     ERROR      no wall-clock reads (``time.time``,
                     ``perf_counter``, ``datetime.now``, ...) — all
                     timing goes through :mod:`repro.simtime`
                     (allowlisted: ``simtime.py`` itself,
                     ``core/batch.py``, whose measured wall-clock of a
                     batch run is the point of the metric, and
                     ``serve/frontend.py``, whose socket deadlines are
                     network time)
RP002     ERROR      no unseeded RNGs: ``np.random.default_rng()``
                     without a seed, the legacy ``np.random.*`` global
                     functions, and the ``random`` module's global
                     state all break run-to-run determinism
RP003     ERROR      in lock-disciplined modules (``cache.py``,
                     ``memo.py``, ...), public methods of a class that owns
                     a ``*lock*`` attribute may mutate shared ``self``
                     state only under ``with self._lock`` (private
                     ``_helpers`` are documented as lock-held)
RP004     ERROR      scheduler/executor hot paths must not iterate a
                     bare ``set`` expression (wrap in ``sorted()``) —
                     set order feeds ordered output and must be
                     deterministic
RP005     ERROR      no mutable default arguments
RP006     ERROR      failure handling goes through the resilience
                     registry: no silently-swallowed exceptions
                     (``except Exception:``/bare ``except`` whose body
                     only ``pass``/``continue``-es), and fault-site
                     string literals handed to the resilience guard
                     (``*.call(...)`` / ``*.check(...)`` on a
                     manager/injector) must be registered in
                     :data:`repro.resilience.faults.FAULT_SITES`
RP007     ERROR      candidate-index discipline: the
                     ``VertexCandidateIndex`` is mutated
                     (``add_label``/``remove_label``) only through the
                     ``Graph`` mutation API (allowlisted:
                     ``graph/model.py`` and ``graph/candidates.py``);
                     cache-key tuples tagged ``"scope"``,
                     ``"scope-poss"``, ``"path"``, ``"nbr"`` or
                     ``"kind"`` carry no epoch, and the scope / path /
                     neighborhood / kind stores are written only
                     through the retiring ``KeyCentricCache`` API
                     (outside ``core/cache.py`` no ``*.scope.put`` /
                     ``*.path.put`` / ``*.nbr.put`` / ``*.kind.put``)
========  =========  ====================================================

Every rule is an :class:`ast.NodeVisitor`-based :class:`CodeRule`
producing :class:`~repro.analysis.diagnostics.Diagnostic` values; the
engine in :mod:`repro.analysis.code_linter` binds rules to path
scopes and allowlists.
"""

from __future__ import annotations

import ast

from repro.analysis.diagnostics import Diagnostic, Location, Severity

#: wall-clock entry points RP001 forbids outside the allowlist
WALL_CLOCK_CALLS: frozenset[str] = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: legacy global-state RNG entry points RP002 forbids
GLOBAL_RNG_CALLS: frozenset[str] = frozenset({
    "numpy.random.rand",
    "numpy.random.randn",
    "numpy.random.randint",
    "numpy.random.random",
    "numpy.random.choice",
    "numpy.random.shuffle",
    "numpy.random.permutation",
    "numpy.random.normal",
    "numpy.random.uniform",
    "numpy.random.seed",
    "random.random",
    "random.randint",
    "random.randrange",
    "random.choice",
    "random.choices",
    "random.shuffle",
    "random.sample",
    "random.uniform",
    "random.seed",
})

#: method names that mutate their receiver (RP003's mutation test)
MUTATOR_METHODS: frozenset[str] = frozenset({
    "append", "appendleft", "extend", "insert", "add", "discard",
    "remove", "pop", "popleft", "popitem", "clear", "update",
    "setdefault", "move_to_end",
})

#: constructors whose zero-arg call produces a mutable default (RP005)
MUTABLE_FACTORIES: frozenset[str] = frozenset({
    "list", "dict", "set", "bytearray",
    "collections.OrderedDict", "collections.defaultdict",
    "collections.deque", "collections.Counter",
})


def resolve_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the qualified names they import.

    ``import numpy as np`` maps ``np -> numpy``;
    ``from time import perf_counter as pc`` maps
    ``pc -> time.perf_counter``.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = \
                    alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return aliases


def qualified_name(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The dotted name a call target resolves to, or ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


class CodeRule:
    """One invariant check over a parsed module."""

    rule_id: str = ""
    description: str = ""

    def check(self, tree: ast.Module, path: str) -> list[Diagnostic]:
        raise NotImplementedError

    def diagnostic(
        self, path: str, node: ast.AST, message: str, hint: str = "",
        severity: Severity = Severity.ERROR,
    ) -> Diagnostic:
        return Diagnostic(
            self.rule_id, severity,
            Location(file=path, line=getattr(node, "lineno", None),
                     column=getattr(node, "col_offset", None)),
            message, hint=hint,
        )


class WallClockRule(CodeRule):
    """RP001: wall-clock reads only in allowlisted modules."""

    rule_id = "RP001"
    description = ("no time.time/perf_counter/datetime.now outside "
                   "simtime.py — latency is simulated")

    def check(self, tree: ast.Module, path: str) -> list[Diagnostic]:
        aliases = resolve_aliases(tree)
        found: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = qualified_name(node.func, aliases)
            if name in WALL_CLOCK_CALLS:
                found.append(self.diagnostic(
                    path, node,
                    f"wall-clock read {name}() — all timing must go "
                    "through SimClock (repro.simtime)",
                    hint="charge a SimClock operation instead; "
                         "measured wall-clock belongs only in "
                         "BatchExecutor.run",
                ))
        return found


class SeededRngRule(CodeRule):
    """RP002: every RNG is explicitly seeded, none is global."""

    rule_id = "RP002"
    description = ("np.random.default_rng() must receive a seed; "
                   "global-state RNG functions are forbidden")

    def check(self, tree: ast.Module, path: str) -> list[Diagnostic]:
        aliases = resolve_aliases(tree)
        found: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = qualified_name(node.func, aliases)
            if name is None:
                continue
            if name in ("numpy.random.default_rng", "random.Random") \
                    and not node.args and not node.keywords:
                found.append(self.diagnostic(
                    path, node,
                    f"{name}() without a seed — results will differ "
                    "between runs",
                    hint="pass an explicit seed derived from the "
                         "experiment configuration",
                ))
            elif name in GLOBAL_RNG_CALLS:
                found.append(self.diagnostic(
                    path, node,
                    f"global-state RNG call {name}() — shared mutable "
                    "RNG state breaks determinism under concurrency",
                    hint="create a seeded np.random.default_rng(seed) "
                         "and pass it explicitly",
                ))
        return found


class LockDisciplineRule(CodeRule):
    """RP003: shared-state mutation only under ``with self._lock``.

    Applies to classes that own a lock (an attribute whose name
    contains ``lock``).  Public methods of such a class must wrap any
    mutation of ``self`` state in a ``with self.<lock>`` block;
    private ``_helper`` methods and ``__init__``/``__post_init__`` are
    exempt (helpers are documented as called with the lock held,
    construction happens before sharing).
    """

    rule_id = "RP003"
    description = ("in lock-disciplined classes, public methods mutate "
                   "shared state only under `with self._lock`")

    def check(self, tree: ast.Module, path: str) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                found.extend(self._check_class(node, path))
        return found

    def _check_class(
        self, klass: ast.ClassDef, path: str
    ) -> list[Diagnostic]:
        if not self._lock_attrs(klass):
            return []
        found: list[Diagnostic] = []
        for item in klass.body:
            if not isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if item.name.startswith("_"):
                continue  # dunders, private lock-held helpers
            found.extend(self._check_method(item, klass.name, path))
        return found

    @staticmethod
    def _lock_attrs(klass: ast.ClassDef) -> set[str]:
        """Attribute names of locks this class owns."""
        locks: set[str] = set()
        for node in ast.walk(klass):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self" \
                            and "lock" in target.attr.lower():
                        locks.add(target.attr)
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name) \
                    and "lock" in node.target.id.lower():
                locks.add(node.target.id)  # dataclass field
        return locks

    def _check_method(
        self, method: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str, path: str,
    ) -> list[Diagnostic]:
        found: list[Diagnostic] = []

        def is_lock_guard(stmt: ast.With | ast.AsyncWith) -> bool:
            for with_item in stmt.items:
                expr = with_item.context_expr
                if isinstance(expr, ast.Attribute) \
                        and isinstance(expr.value, ast.Name) \
                        and expr.value.id == "self" \
                        and "lock" in expr.attr.lower():
                    return True
                if isinstance(expr, ast.Name) \
                        and "lock" in expr.id.lower():
                    return True
            return False

        def walk(statements: list[ast.stmt], guarded: bool) -> None:
            for stmt in statements:
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    walk(stmt.body, guarded or is_lock_guard(stmt))
                    continue
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    continue  # nested defs own their locking story
                if not guarded:
                    for mutation in self._mutations(stmt):
                        found.append(self.diagnostic(
                            path, mutation,
                            f"{class_name}.{method.name} mutates "
                            f"shared state "
                            f"({self._describe(mutation)}) outside "
                            "`with self._lock`",
                            hint="wrap the mutation in the class's "
                                 "lock, or make the method a private "
                                 "lock-held helper",
                        ))
                for child_body in self._nested_bodies(stmt):
                    walk(child_body, guarded)

        walk(method.body, guarded=False)
        return found

    @staticmethod
    def _nested_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
        bodies: list[list[ast.stmt]] = []
        for attr in ("body", "orelse", "finalbody"):
            body = getattr(stmt, attr, None)
            if body and isinstance(body, list) \
                    and all(isinstance(s, ast.stmt) for s in body):
                bodies.append(body)
        handlers = getattr(stmt, "handlers", None)
        if handlers:
            bodies.extend(h.body for h in handlers)
        return bodies

    @staticmethod
    def _self_attr(node: ast.expr) -> str | None:
        """The attribute name when ``node`` is ``self.<attr>`` or a
        subscript of it."""
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            return node.attr
        return None

    def _mutations(self, stmt: ast.stmt) -> list[ast.AST]:
        """Direct (non-nested) mutations of ``self`` state in ``stmt``."""
        mutations: list[ast.AST] = []
        if isinstance(stmt, (ast.Assign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            for target in targets:
                elements = target.elts \
                    if isinstance(target, ast.Tuple) else [target]
                for element in elements:
                    attr = self._self_attr(element)
                    if attr is not None and "lock" not in attr.lower():
                        mutations.append(element)
        elif isinstance(stmt, ast.Expr) \
                and isinstance(stmt.value, ast.Call) \
                and isinstance(stmt.value.func, ast.Attribute) \
                and stmt.value.func.attr in MUTATOR_METHODS:
            attr = self._self_attr(stmt.value.func.value)
            if attr is not None and "lock" not in attr.lower():
                mutations.append(stmt.value)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                attr = self._self_attr(target)
                if attr is not None and "lock" not in attr.lower():
                    mutations.append(target)
        return mutations

    @staticmethod
    def _describe(node: ast.AST) -> str:
        try:
            return ast.unparse(node)  # type: ignore[arg-type]
        except Exception:  # pragma: no cover - unparse is best-effort
            return "<expression>"


class OrderedIterationRule(CodeRule):
    """RP004: no bare ``set`` iteration feeding ordered output."""

    rule_id = "RP004"
    description = ("hot paths must not iterate a bare set expression; "
                   "wrap it in sorted() for deterministic order")

    def check(self, tree: ast.Module, path: str) -> list[Diagnostic]:
        aliases = resolve_aliases(tree)
        found: list[Diagnostic] = []
        for node in ast.walk(tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                if self._is_set_expr(candidate, aliases):
                    found.append(self.diagnostic(
                        path, candidate,
                        "iteration over a bare set expression — "
                        "iteration order is undefined and leaks into "
                        "ordered output",
                        hint="wrap the set in sorted(...) (scheduler "
                             "determinism doubles as the batch "
                             "submission order)",
                    ))
        return found

    @staticmethod
    def _is_set_expr(node: ast.expr, aliases: dict[str, str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = qualified_name(node.func, aliases)
            return name in ("set", "frozenset")
        return False


class MutableDefaultRule(CodeRule):
    """RP005: no mutable default arguments."""

    rule_id = "RP005"
    description = "function defaults must not be mutable objects"

    def check(self, tree: ast.Module, path: str) -> list[Diagnostic]:
        aliases = resolve_aliases(tree)
        found: list[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default, aliases):
                    name = getattr(node, "name", "<lambda>")
                    found.append(self.diagnostic(
                        path, default,
                        f"mutable default argument in {name}() — the "
                        "default is shared across calls",
                        hint="default to None and create the value "
                             "inside the function",
                    ))
        return found

    @staticmethod
    def _is_mutable(node: ast.expr, aliases: dict[str, str]) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = qualified_name(node.func, aliases)
            return name in MUTABLE_FACTORIES
        return False


class FaultSiteDisciplineRule(CodeRule):
    """RP006: failures are handled through the resilience registry.

    Two checks:

    * a handler for ``Exception`` (or a bare ``except``) whose body
      does nothing but ``pass``/``continue``/``...`` swallows failures
      without attribution — the resilience guard exists precisely so
      every absorbed failure leaves a :class:`FaultEvent` trail;
    * a string literal passed as the site argument of a resilience
      guard call (``<manager>.call(...)``, ``<injector>.check(...)``,
      ``<injector>.would_fault(...)``) must name a registered
      :data:`~repro.resilience.faults.FAULT_SITES` entry, so typos
      cannot silently disable injection at a site.
    """

    rule_id = "RP006"
    description = ("no silent `except Exception: pass`; fault-site "
                   "literals must be registered in FAULT_SITES")

    #: guard method names whose first argument is a fault-site name
    GUARD_METHODS: frozenset[str] = frozenset({
        "call", "check", "would_fault",
    })
    #: receiver-name fragments that identify the resilience guard
    GUARD_RECEIVERS: tuple[str, ...] = ("resilience", "injector", "manager")

    def check(self, tree: ast.Module, path: str) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                found.extend(self._check_handler(node, path))
            elif isinstance(node, ast.Call):
                found.extend(self._check_guard_call(node, path))
        return found

    def _check_handler(
        self, handler: ast.ExceptHandler, path: str
    ) -> list[Diagnostic]:
        if not self._catches_everything(handler.type):
            return []
        if not all(isinstance(stmt, (ast.Pass, ast.Continue))
                   or (isinstance(stmt, ast.Expr)
                       and isinstance(stmt.value, ast.Constant)
                       and stmt.value.value is Ellipsis)
                   for stmt in handler.body):
            return []
        caught = "bare except" if handler.type is None             else "except Exception"
        return [self.diagnostic(
            path, handler,
            f"{caught} with a pass-only body silently swallows "
            "failures",
            hint="absorb failures through the resilience guard "
                 "(ResilienceManager.call with a fallback) so the "
                 "incident is attributed, or catch the specific "
                 "ReproError subclass and handle it",
        )]

    @staticmethod
    def _catches_everything(exc_type: ast.expr | None) -> bool:
        if exc_type is None:
            return True
        names = exc_type.elts if isinstance(exc_type, ast.Tuple)             else [exc_type]
        return any(isinstance(name, ast.Name)
                   and name.id in ("Exception", "BaseException")
                   for name in names)

    def _check_guard_call(
        self, node: ast.Call, path: str
    ) -> list[Diagnostic]:
        func = node.func
        if not isinstance(func, ast.Attribute)                 or func.attr not in self.GUARD_METHODS:
            return []
        receiver = self._dotted(func.value)
        if receiver is None or not any(
            fragment in receiver.lower()
            for fragment in self.GUARD_RECEIVERS
        ):
            return []
        if not node.args:
            return []
        site = node.args[0]
        if not isinstance(site, ast.Constant)                 or not isinstance(site.value, str):
            return []
        from repro.resilience.faults import FAULT_SITES

        if site.value in FAULT_SITES:
            return []
        return [self.diagnostic(
            path, site,
            f"unregistered fault site {site.value!r} passed to the "
            f"resilience guard {receiver}.{func.attr}()",
            hint="register the site in repro.resilience.faults."
                 "FAULT_SITES (the closed registry chaos sweeps "
                 "iterate) or fix the typo",
        )]

    @staticmethod
    def _dotted(node: ast.expr) -> str | None:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None


class CandidateIndexDisciplineRule(CodeRule):
    """RP007: candidate-index mutation and write-retired cache keys.

    Three checks guarding the sublinear vertex-matching layer and the
    key-centric cache that follows the graph's writes:

    * :class:`~repro.graph.candidates.VertexCandidateIndex` may be
      mutated (``add_label``/``remove_label``) only through the
      ``Graph`` mutation API — any other call site desynchronizes the
      index from vertex storage and the matcher silently diverges
      from the linear-scan reference (the binding allowlists
      ``repro/graph/model.py`` and ``repro/graph/candidates.py``);
    * cache-key tuples — literals whose first element is one of the
      kind tags ``"scope"``, ``"scope-poss"``, ``"path"``, ``"nbr"``,
      ``"kind"`` — carry no epoch: an entry is retired by the writes
      that touch what it read, so a key that also names an epoch would be
      orphaned by every write instead;
    * the scope, path, neighborhood and kind stores are written only
      through the retiring ``KeyCentricCache`` API, which indexes what
      each entry read: a raw ``<x>.scope.put(...)`` /
      ``<x>.path.put(...)`` / ``<x>.nbr.put(...)`` /
      ``<x>.kind.put(...)`` outside ``repro/core/cache.py`` stores an
      entry no write can retire.
    """

    rule_id = "RP007"
    description = ("VertexCandidateIndex mutated only via the Graph "
                   "mutation API; scope/path/nbr cache keys carry no "
                   "epoch and are stored only through the retiring "
                   "cache API")

    #: methods that mutate a VertexCandidateIndex
    INDEX_MUTATORS: frozenset[str] = frozenset({
        "add_label", "remove_label",
    })
    #: first-element tags identifying cache-key tuples
    KEY_KINDS: frozenset[str] = frozenset({"scope", "scope-poss", "path",
                                           "nbr", "kind"})
    #: the raw evicting stores of a KeyCentricCache
    STORES: frozenset[str] = frozenset({"scope", "path", "nbr", "kind"})
    #: the module that owns the stores
    CACHE = "repro/core/cache.py"

    def check(self, tree: ast.Module, path: str) -> list[Diagnostic]:
        normalized = path.replace("\\", "/")
        owns_stores = normalized.endswith(self.CACHE)
        found: list[Diagnostic] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                found.extend(self._check_index_mutation(node, path))
                if not owns_stores:
                    found.extend(self._check_store_write(node, path))
            elif isinstance(node, ast.Tuple):
                found.extend(self._check_cache_key(node, path))
        return found

    def _check_index_mutation(
        self, node: ast.Call, path: str
    ) -> list[Diagnostic]:
        func = node.func
        if not isinstance(func, ast.Attribute) \
                or func.attr not in self.INDEX_MUTATORS:
            return []
        receiver = qualified_name(func.value, {})
        if receiver is None or "candidate_index" not in receiver:
            return []
        return [self.diagnostic(
            path, node,
            f"direct candidate-index mutation "
            f"{receiver}.{func.attr}() outside the Graph mutation "
            "API",
            hint="mutate the graph through add_vertex/remove_vertex/"
                 "relabel_vertex — Graph keeps the candidate index "
                 "and the epoch counter in lockstep",
        )]

    def _check_store_write(
        self, node: ast.Call, path: str
    ) -> list[Diagnostic]:
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr != "put":
            return []
        store = func.value
        if not isinstance(store, ast.Attribute) \
                or store.attr not in self.STORES:
            return []
        return [self.diagnostic(
            path, node,
            f"raw write to the {store.attr} store bypasses the "
            "retiring cache API — no graph write could retire the "
            "entry",
            hint=f"store through KeyCentricCache."
                 f"{store.attr}_get_or_compute(key, compute, stamp)",
        )]

    def _check_cache_key(
        self, node: ast.Tuple, path: str
    ) -> list[Diagnostic]:
        if not node.elts:
            return []
        head = node.elts[0]
        if not isinstance(head, ast.Constant) \
                or head.value not in self.KEY_KINDS:
            return []
        if not any("epoch" in ast.unparse(element).lower()
                   for element in node.elts[1:]):
            return []
        return [self.diagnostic(
            path, node,
            f"cache key tagged {head.value!r} carries a graph epoch — "
            "entries are retired by the writes that touch them, and "
            "an epoch in the key would orphan every entry at each "
            "write",
            hint=f"key on what was asked only, e.g. "
                 f"({head.value!r}, label.lower())",
        )]


__all__ = [
    "CandidateIndexDisciplineRule",
    "CodeRule",
    "FaultSiteDisciplineRule",
    "LockDisciplineRule",
    "MutableDefaultRule",
    "OrderedIterationRule",
    "SeededRngRule",
    "WallClockRule",
    "qualified_name",
    "resolve_aliases",
]
