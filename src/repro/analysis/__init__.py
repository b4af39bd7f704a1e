"""Static analysis: query-graph semantic validation + repo invariants.

Two analysis layers share one :class:`Diagnostic` model:

* **layer 1 — query-graph semantic validator**
  (:mod:`repro.analysis.query_validator`): checks a generated
  :class:`~repro.core.spoc.QueryGraph` before execution — dangling or
  cyclic dependency wiring, unreachable vertices, contradictory slot
  bindings, unsatisfiable constraints, out-of-vocabulary terms,
  answer-type mismatches (rules ``QG001``-``QG009``);
* **layer 2 — codebase invariant linter**
  (:mod:`repro.analysis.code_linter`): AST rules enforcing the repo's
  concurrency/determinism invariants — SimClock-only timing, seeded
  RNGs, lock discipline, deterministic iteration, no mutable defaults
  (rules ``RP001``-``RP006``).

Entry points: ``repro lint-queries`` and ``repro lint-code``.
"""

from repro.analysis.code_linter import (
    RuleBinding,
    collect_python_files,
    default_bindings,
    default_source_root,
    lint_paths,
)
from repro.analysis.code_rules import (
    CodeRule,
    FaultSiteDisciplineRule,
    LockDisciplineRule,
    MutableDefaultRule,
    OrderedIterationRule,
    SeededRngRule,
    WallClockRule,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Location,
    Severity,
)
from repro.analysis.query_rules import QUERY_RULES, QueryLintContext
from repro.analysis.query_validator import (
    QueryGraphValidator,
    default_context,
    validate_query_graph,
)

__all__ = [
    "CodeRule",
    "Diagnostic",
    "DiagnosticReport",
    "FaultSiteDisciplineRule",
    "Location",
    "LockDisciplineRule",
    "MutableDefaultRule",
    "OrderedIterationRule",
    "QUERY_RULES",
    "QueryGraphValidator",
    "QueryLintContext",
    "RuleBinding",
    "SeededRngRule",
    "Severity",
    "WallClockRule",
    "collect_python_files",
    "default_bindings",
    "default_context",
    "default_source_root",
    "lint_paths",
    "validate_query_graph",
]
