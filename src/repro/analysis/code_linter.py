"""The codebase invariant linter (static-analysis layer 2).

Binds the ``RP###`` AST rules of :mod:`repro.analysis.code_rules` to
the paths they govern, with per-rule allowlists for the deliberate
exceptions, and runs them over the package source.  ``repro
lint-code`` and ``make lint-analysis`` are thin wrappers around
:func:`lint_paths`; CI gates on the ERROR count.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
import ast

from repro.analysis.code_rules import (
    CandidateIndexDisciplineRule,
    CodeRule,
    FaultSiteDisciplineRule,
    LockDisciplineRule,
    MutableDefaultRule,
    OrderedIterationRule,
    SeededRngRule,
    WallClockRule,
)
from repro.analysis.concurrency.lockgraph import LockOrderAnalysis
from repro.analysis.concurrency.rules import (
    BlockingUnderLockRule,
    DispatchUnderLockRule,
    LockOrderInversionRule,
    LockPublicationRule,
    ProjectRule,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Location,
    Severity,
)


@dataclass(frozen=True)
class RuleBinding:
    """One rule bound to a path scope.

    ``paths`` restricts the rule to files whose normalized path ends
    with one of the given suffixes (``None`` = every file); ``allow``
    exempts matching files — the mechanism for deliberate, documented
    exceptions to an invariant.

    For a :class:`~repro.analysis.concurrency.rules.ProjectRule` the
    scope applies to where findings *land* (the diagnostic's file),
    not to what the underlying whole-tree analysis may inspect.
    """

    rule: CodeRule | ProjectRule
    paths: tuple[str, ...] | None = None
    allow: tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        normalized = path.replace("\\", "/")
        if any(normalized.endswith(suffix) for suffix in self.allow):
            return False
        if self.paths is None:
            return True
        return any(normalized.endswith(suffix) for suffix in self.paths)


def default_bindings() -> tuple[RuleBinding, ...]:
    """The repo's invariant configuration.

    * RP001 everywhere, except :mod:`repro.simtime` (the cost model
      itself), ``core/batch.py`` (the measured wall-clock of a batch
      run is the metric being reported) and ``serve/frontend.py``
      (a socket's read deadline is network time; it feeds no answer,
      charge or byte-diffed artifact);
    * RP002 and RP005 everywhere;
    * RP003 in the lock-disciplined shared-state modules;
    * RP004 in the hot paths whose iteration order feeds ordered
      output (the scheduler order doubles as batch submission order);
    * RP006 everywhere: failures are absorbed only through the
      resilience guard, and guard call sites may only name registered
      fault sites;
    * RP007 everywhere, except the two modules that legitimately
      touch the candidate index (``graph/model.py``, whose mutation
      API is the one sanctioned writer, and ``graph/candidates.py``,
      the index itself): no out-of-band index mutation, scope/path
      cache keys name no epoch, and the scope/path stores are written
      only through the retiring cache API.
    """
    return (
        RuleBinding(
            WallClockRule(),
            allow=("repro/simtime.py", "repro/core/batch.py",
                   "repro/serve/frontend.py"),
        ),
        RuleBinding(SeededRngRule()),
        RuleBinding(
            LockDisciplineRule(),
            paths=("repro/core/cache.py", "repro/core/batch.py",
                   "repro/memo.py",
                   "repro/nlp/score_memo.py",
                   "repro/observability/metrics.py",
                   "repro/observability/spans.py",
                   "repro/resilience/breaker.py",
                   "repro/resilience/manager.py"),
        ),
        RuleBinding(
            OrderedIterationRule(),
            paths=("repro/core/scheduler.py", "repro/core/executor.py",
                   "repro/core/batch.py", "repro/core/query_graph.py"),
        ),
        RuleBinding(MutableDefaultRule()),
        RuleBinding(FaultSiteDisciplineRule()),
        RuleBinding(
            CandidateIndexDisciplineRule(),
            allow=("repro/graph/model.py", "repro/graph/candidates.py"),
        ),
    )


#: the lock-owning modules governed by the RP008–RP011 project rules:
#: every module that makes a lock through :func:`repro.locks.wrap_lock`
#: or :class:`repro.memo.SharedLock` (``tests/test_lock_modules.py``
#: keeps the two in step)
LOCK_MODULES: tuple[str, ...] = (
    "repro/core/batch.py",
    "repro/core/cache.py",
    "repro/memo.py",
    "repro/serve/app.py",
    "repro/serve/admission.py",
    "repro/serve/batching.py",
    "repro/resilience/manager.py",
    "repro/resilience/breaker.py",
    "repro/graph/durable.py",
    "repro/nlp/score_memo.py",
    "repro/observability/spans.py",
    "repro/observability/metrics.py",
)


def default_project_bindings() -> tuple[RuleBinding, ...]:
    """The repo's whole-tree concurrency invariant configuration.

    RP008–RP011 findings may land only in the lock-owning modules
    (:data:`LOCK_MODULES`), though the underlying lock-order analysis
    always sees every linted file.  Triage record for the allowlists
    (every suppression here is an intentional, reviewed ordering):

    * ``core/cache.py`` (RP010) — a store's ``get`` runs its
      ``accept`` callback under the store lock by documented
      contract: the callback rechecks the held scope or path entry
      against the graph (``ScopeEntry.resolve`` / ``PathEntry.holds``,
      which may update the entry's last-checked epoch), takes no
      lock, and its verdict is counted as the lookup's hit or miss
      in the same critical section; run after release, two readers
      would race on the entry.
    * ``serve/batching.py`` (RP010) — ``BatchingBridge.submit``'s
      inline fallback calls ``answer_many`` while holding the bridge
      lock *by design*: the bridge lock is the serialization point
      for the non-reentrant pipeline, and the collector loop takes
      the same lock before dispatching, so the order is global and
      acyclic (bridge -> core locks, never the reverse).
    """
    return (
        RuleBinding(LockOrderInversionRule(), paths=LOCK_MODULES),
        RuleBinding(BlockingUnderLockRule(), paths=LOCK_MODULES),
        RuleBinding(
            DispatchUnderLockRule(),
            paths=LOCK_MODULES,
            allow=("repro/core/cache.py", "repro/serve/batching.py"),
        ),
        RuleBinding(LockPublicationRule(), paths=LOCK_MODULES),
    )


def collect_python_files(roots: Iterable[Path]) -> list[Path]:
    """Every ``*.py`` under the roots, sorted, skipping caches."""
    files: set[Path] = set()
    for root in roots:
        if root.is_file() and root.suffix == ".py":
            files.add(root)
        elif root.is_dir():
            files.update(
                path for path in root.rglob("*.py")
                if "__pycache__" not in path.parts
            )
    return sorted(files)


def lint_paths(
    roots: Iterable[Path],
    bindings: Sequence[RuleBinding] | None = None,
    project_bindings: Sequence[RuleBinding] | None = None,
) -> DiagnosticReport:
    """Lint every Python file under the roots.

    Per-file rules run module by module; the RP008–RP011 project
    rules then run once over a :class:`LockOrderAnalysis` built from
    every file that parsed, so cross-module lock orders are visible
    even when only a few modules may receive findings.
    """
    if bindings is None:
        bindings = default_bindings()
    if project_bindings is None:
        project_bindings = default_project_bindings()
    report = DiagnosticReport()
    trees: dict[str, ast.Module] = {}
    for path in collect_python_files(roots):
        name = str(path)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            report.add(Diagnostic(
                "RP000", Severity.ERROR, Location(file=name),
                f"file is unreadable: {exc}",
            ))
            continue
        try:
            tree = ast.parse(source, filename=name)
        except SyntaxError as exc:
            report.add(Diagnostic(
                "RP000", Severity.ERROR,
                Location(file=name, line=exc.lineno, column=exc.offset),
                f"file does not parse: {exc.msg}",
            ))
            continue
        trees[name] = tree
        for binding in bindings:
            if isinstance(binding.rule, CodeRule) \
                    and binding.applies_to(name):
                report.extend(binding.rule.check(tree, name))
    if trees and project_bindings:
        analysis = LockOrderAnalysis(trees)
        for binding in project_bindings:
            if not isinstance(binding.rule, ProjectRule):
                continue
            report.extend([
                diagnostic
                for diagnostic in binding.rule.check_project(analysis)
                if diagnostic.location.file is not None
                and binding.applies_to(diagnostic.location.file)
            ])
    return report.sorted()


def default_source_root() -> Path:
    """The installed ``repro`` package directory (the default target)."""
    import repro

    return Path(repro.__file__).resolve().parent


__all__ = [
    "LOCK_MODULES",
    "RuleBinding",
    "collect_python_files",
    "default_bindings",
    "default_project_bindings",
    "default_source_root",
    "lint_paths",
]
