"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  Sub-hierarchies
mirror the subsystems: graph substrate, vision substrate, NLP substrate,
and the SVQA core.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Base class for graph-substrate errors."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex id was not present in the graph."""

    def __init__(self, vertex_id: object) -> None:
        super().__init__(f"vertex not found: {vertex_id!r}")
        self.vertex_id = vertex_id


class EdgeNotFoundError(GraphError, KeyError):
    """An edge id was not present in the graph."""

    def __init__(self, edge_id: object) -> None:
        super().__init__(f"edge not found: {edge_id!r}")
        self.edge_id = edge_id


class DuplicateVertexError(GraphError, ValueError):
    """A vertex id was added twice."""

    def __init__(self, vertex_id: object) -> None:
        super().__init__(f"duplicate vertex id: {vertex_id!r}")
        self.vertex_id = vertex_id


class DuplicateEdgeError(GraphError, ValueError):
    """An explicit edge id was added twice."""

    def __init__(self, edge_id: object) -> None:
        super().__init__(f"duplicate edge id: {edge_id!r}")
        self.edge_id = edge_id


class StoreError(GraphError):
    """Persistence failed (corrupt file, bad version, ...).

    Structured attribution mirrors :class:`QueryParseError`'s style so
    recovery diagnostics can point at the damage without parsing prose:
    ``path`` is the offending file, ``lineno`` the 1-based record line
    (``None`` when the failure precedes record framing), and ``reason``
    a stable machine-readable slug (``"bad-digest"``, ``"torn-record"``,
    ``"bad-version"``, ...) used by the recovery report and the
    crash-torture harness.
    """

    def __init__(
        self,
        message: str,
        *,
        path: object = None,
        lineno: int | None = None,
        reason: str | None = None,
    ) -> None:
        super().__init__(message)
        self.path = None if path is None else str(path)
        self.lineno = lineno
        self.reason = reason


class VisionError(ReproError):
    """Base class for vision-substrate errors."""


class SceneError(VisionError, ValueError):
    """A synthetic scene specification is invalid."""


class NLPError(ReproError):
    """Base class for NLP-substrate errors."""


class TokenizationError(NLPError, ValueError):
    """Input text could not be tokenized."""


class ParseError(NLPError):
    """Dependency parsing failed to produce a tree.

    ``term`` optionally names the offending surface word (e.g. the
    unknown foreign word of the Fig. 8(a) failure mode) so callers can
    attribute the failure without parsing the message.
    """

    def __init__(self, message: str, *, term: str | None = None) -> None:
        super().__init__(message)
        self.term = term


class QueryError(ReproError):
    """Base class for SVQA-core query errors."""


class QueryParseError(QueryError):
    """A complex question could not be decomposed into a query graph.

    Structured attribution for diagnostics: ``clause_index`` is the
    index of the clause that failed (``None`` when the failure
    precedes clause segmentation) and ``term`` is the offending
    term/text, so validator output and Fig. 8(a)-style failures point
    at a specific clause instead of only a prose message.
    """

    def __init__(
        self,
        message: str,
        *,
        clause_index: int | None = None,
        term: str | None = None,
    ) -> None:
        super().__init__(message)
        self.clause_index = clause_index
        self.term = term


class ExecutionError(QueryError):
    """Query-graph execution over the merged graph failed."""


class FaultToleranceError(ReproError):
    """A guarded pipeline stage failed permanently.

    Raised by the resilience layer when a fault site exhausts its
    retry budget and no degradation fallback was provided.  Structured
    attribution mirrors :class:`QueryParseError`'s style: ``site`` is
    the registered fault-site name (see
    :data:`repro.resilience.faults.FAULT_SITES`), ``attempts`` is how
    many attempts were made before giving up, and ``elapsed_budget``
    is the simulated seconds consumed of the per-query deadline (or
    ``None`` when no deadline was active).
    """

    def __init__(
        self,
        message: str,
        *,
        site: str | None = None,
        attempts: int = 0,
        elapsed_budget: float | None = None,
    ) -> None:
        super().__init__(message)
        self.site = site
        self.attempts = attempts
        self.elapsed_budget = elapsed_budget


class InjectedFaultError(FaultToleranceError):
    """A single injected fault fired at a registered fault site.

    This is what :class:`repro.resilience.faults.FaultInjector` raises
    per attempt; the retry loop in
    :class:`repro.resilience.manager.ResilienceManager` absorbs it and
    only lets a :class:`FaultToleranceError` escape when the retry
    budget is exhausted.
    """


class DeadlineExceededError(FaultToleranceError):
    """A per-query deadline budget ran out (simulated time).

    ``elapsed_budget`` carries the simulated seconds actually consumed
    when the budget tripped.
    """


class CircuitOpenError(FaultToleranceError):
    """A per-stage circuit breaker is open and short-circuited the call.

    ``attempts`` counts the consecutive failures that tripped the
    breaker.
    """


class DatasetError(ReproError):
    """Dataset construction or loading failed."""
