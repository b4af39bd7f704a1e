"""Concurrency lint rules RP008–RP011 over the lock-order model.

Unlike the per-file ``RP001``–``RP007`` rules, these are **project
rules**: lock-order inversions and dispatch-under-lock findings only
exist across module boundaries, so each rule consumes one shared
:class:`~repro.analysis.concurrency.lockgraph.LockOrderAnalysis`
built from *every* linted file (the engine in
:mod:`repro.analysis.code_linter` builds it once per run).  Bindings
still scope where findings may *land* — the analysis always sees the
whole tree, so an allowlisted module keeps contributing call-graph
edges even when its own findings are suppressed.

========  =========  ====================================================
rule id   severity   invariant
========  =========  ====================================================
RP008     ERROR      the global lock acquisition graph is acyclic —
                     a cycle means two threads can acquire the same
                     locks in opposite orders and deadlock
RP009     ERROR      no blocking call (``Future.result``,
                     ``Queue.get/put``, ``Event.wait``,
                     ``Condition.wait`` on a *different* lock, thread
                     ``join``) while holding a lock
RP010     ERROR      no callback / cross-module dispatch under a held
                     lock: calling a stored callback, a callable
                     parameter, or a resolved method whose transitive
                     footprint acquires another module's lock invites
                     inversions the owner cannot see
RP011     ERROR      a lock attribute never escapes its owner class:
                     not returned, not passed as an argument (except
                     to ``threading.Condition`` / ``wrap_lock``), not
                     accessed on a foreign receiver
========  =========  ====================================================
"""

from __future__ import annotations

import ast

from repro.analysis.concurrency.lockgraph import (
    CallEvent,
    ClassInfo,
    FunctionInfo,
    LockOrderAnalysis,
    ModuleInfo,
)
from repro.analysis.diagnostics import Diagnostic, Location, Severity


class ProjectRule:
    """One whole-tree invariant check over the lock-order analysis."""

    rule_id: str = ""
    description: str = ""

    def check_project(
        self, analysis: LockOrderAnalysis
    ) -> list[Diagnostic]:
        raise NotImplementedError

    def diagnostic(
        self, path: str, line: int | None, message: str, hint: str = "",
        severity: Severity = Severity.ERROR,
    ) -> Diagnostic:
        return Diagnostic(
            self.rule_id, severity,
            Location(file=path, line=line),
            message, hint=hint,
        )


def _functions(analysis: LockOrderAnalysis) -> list[
        tuple[ModuleInfo, FunctionInfo]]:
    """Every analyzed function, in deterministic module/def order."""
    result: list[tuple[ModuleInfo, FunctionInfo]] = []
    for path in sorted(analysis.modules):
        minfo = analysis.modules[path]
        result.extend((minfo, fn) for fn in minfo.all_functions)
    return result


class LockOrderInversionRule(ProjectRule):
    """RP008: no cycle in the global lock acquisition graph."""

    rule_id = "RP008"
    description = ("the cross-module lock acquisition graph must be "
                   "acyclic (a cycle is a deadlock candidate)")

    def check_project(
        self, analysis: LockOrderAnalysis
    ) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        for component in analysis.cycles():
            edges = analysis.cycle_edges(component)
            if not edges:  # pragma: no cover - SCC > 1 implies edges
                continue
            locks = ", ".join(str(lock) for lock in component)
            detail = "; ".join(
                f"{edge.src} -> {edge.dst} at {site.path}:{site.line} "
                f"({site.via})"
                for edge, site in edges
            )
            anchor = edges[0][1]
            found.append(self.diagnostic(
                anchor.path, anchor.line,
                f"lock-order inversion between {locks}: {detail}",
                hint="impose one global acquisition order (acquire "
                     "the smaller-scoped lock second), or narrow one "
                     "critical section so the locks never nest",
            ))
        return found


class BlockingUnderLockRule(ProjectRule):
    """RP009: no blocking primitive while holding a lock."""

    rule_id = "RP009"
    description = ("no Future.result/Queue.get/put/Event.wait/"
                   "thread join inside a lock-held region")

    def check_project(
        self, analysis: LockOrderAnalysis
    ) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        for _minfo, fn in _functions(analysis):
            for blocked in fn.blocking:
                innermost = blocked.held[-1]
                found.append(self.diagnostic(
                    blocked.path, blocked.line,
                    f"blocking call {blocked.call}() while holding "
                    f"{innermost} — the lock is pinned for the full "
                    "wait and every contender stalls behind it",
                    hint="hoist the blocking call out of the "
                         "critical section (collect under the lock, "
                         "wait outside), or wait on the lock's own "
                         "Condition",
                ))
        return found


class DispatchUnderLockRule(ProjectRule):
    """RP010: no callback / cross-module dispatch under a held lock."""

    rule_id = "RP010"
    description = ("no stored-callback, callable-parameter, or "
                   "lock-acquiring cross-module call inside a "
                   "lock-held region")

    def check_project(
        self, analysis: LockOrderAnalysis
    ) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        for minfo, fn in _functions(analysis):
            own_class = (
                minfo.classes.get(fn.class_name)
                if fn.class_name is not None else None
            )
            for event in fn.calls:
                if not event.held:
                    continue
                innermost = event.held[-1]
                callback = self._callback_description(
                    event, fn, analysis, minfo, own_class)
                if callback is not None:
                    found.append(self.diagnostic(
                        fn.module, event.line,
                        f"{callback} called while holding "
                        f"{innermost} — arbitrary code runs inside "
                        "the critical section",
                        hint="collect what the callback needs under "
                             "the lock, invoke it after release",
                    ))
                    continue
                target = analysis.resolve_call(event, fn, minfo)
                if target is None:
                    continue
                foreign = sorted(
                    {str(lock) for lock in analysis.footprint(target)
                     if lock.module != fn.module},
                )
                if foreign:
                    found.append(self.diagnostic(
                        fn.module, event.line,
                        f"call {event.render()}() under {innermost} "
                        f"dispatches into another lock-owning module "
                        f"(acquires {', '.join(foreign)})",
                        hint="move the cross-module call outside the "
                             "critical section, or document the "
                             "global order with an allowlist binding",
                    ))
        return found

    @staticmethod
    def _callback_description(
        event: CallEvent, fn: FunctionInfo, analysis: LockOrderAnalysis,
        minfo: ModuleInfo, own_class: ClassInfo | None,
    ) -> str | None:
        func = event.func
        if isinstance(func, ast.Name):
            name = func.id
            # a resolvable local/nested/module function is not a
            # callback — the resolved branch handles it
            if analysis.resolve_call(event, fn, minfo) is not None:
                return None
            if name in fn.params:
                return f"callable parameter {name}"
            return None
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in ("self", "cls") \
                and own_class is not None \
                and func.attr in own_class.callback_attrs:
            return f"stored callback self.{func.attr}"
        return None


class LockPublicationRule(ProjectRule):
    """RP011: lock attributes never escape their owner class."""

    rule_id = "RP011"
    description = ("a lock attribute is private to its owner: never "
                   "returned, passed along, or read off a foreign "
                   "receiver")

    def check_project(
        self, analysis: LockOrderAnalysis
    ) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        for _minfo, fn in _functions(analysis):
            for publication in fn.publications:
                found.append(self.diagnostic(
                    publication.path, publication.line,
                    f"{fn.qualname} {publication.detail} — a "
                    "published lock invites acquisition orders the "
                    "owner class cannot see",
                    hint="expose an operation, not the lock; lock "
                         "composition goes through "
                         "threading.Condition or repro.locks."
                         "wrap_lock at construction",
                ))
        return found


__all__ = [
    "BlockingUnderLockRule",
    "DispatchUnderLockRule",
    "LockOrderInversionRule",
    "LockPublicationRule",
    "ProjectRule",
]
