"""Execution observability: the executor's counters, registry-backed.

:class:`ExecutorStats` is shared by every executor in a batch run (all
worker threads record into one object).  Since the observability layer
landed it is a thin facade over a
:class:`~repro.observability.metrics.MetricsRegistry`: every
``record_*`` call increments a named counter/histogram/gauge, so the
same numbers are available three ways —

* :meth:`ExecutorStats.snapshot` freezes them into the legacy
  :class:`ExecutorStatsReport` (what ``repro bench`` prints);
* :attr:`ExecutorStats.registry` exposes the registry itself for the
  Prometheus text exposition and the JSON snapshot that
  ``repro profile`` byte-diffs in CI;
* per-question *why*-level detail rides on the span tracer
  (:mod:`repro.observability.spans`), not here.

The counters complement the cache's own hit/miss totals with detail
such as how many query-graph vertices each query executed, how often
predicate filtering rejected retrieved pairs, and how often a
constraint ("most frequently") actually narrowed a result.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observability.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    Series,
)

#: numeric encoding of breaker states for the ``svqa_breaker_state``
#: gauge (closed flows, half-open probes, open short-circuits)
BREAKER_STATE_VALUES: dict[str, float] = {
    "closed": 0.0,
    "half-open": 1.0,
    "open": 2.0,
}


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


@dataclass(frozen=True)
class ExecutorStatsReport:
    """An immutable snapshot of :class:`ExecutorStats`."""

    #: queries that ran to an answer (Algorithm 3 completions)
    queries: int
    #: query-graph vertices executed, summed over all queries (their
    #: distribution is the ``svqa_query_vertices`` histogram)
    vertices: int
    #: scope-store (matchVertex) cache hits
    scope_hits: int
    #: scope-store cache misses
    scope_misses: int
    #: path-store (getRelationpairs) cache hits
    path_hits: int
    #: path-store cache misses
    path_misses: int
    #: pairs dropped by maxScore predicate filtering
    predicate_rejections: int
    #: vertices where *every* retrieved pair was filtered out
    predicate_dropouts: int
    #: constraints ("most frequently") that narrowed a result
    constraint_applications: int
    #: query graphs run through the semantic validator
    graphs_validated: int = 0
    #: ERROR diagnostics across all validated graphs
    validation_errors: int = 0
    #: WARNING diagnostics across all validated graphs
    validation_warnings: int = 0
    #: injected faults that fired
    faults_injected: int = 0
    #: per-site fault counts, sorted by site name
    fault_sites: tuple[tuple[str, int], ...] = ()
    #: backoffs charged before a re-attempt
    retry_attempts: int = 0
    #: operations that succeeded after at least one fault
    retry_recoveries: int = 0
    #: guard calls whose retry budget ran out
    retries_exhausted: int = 0
    #: circuit transitions to open
    breaker_trips: int = 0
    #: calls rejected by an open circuit
    breaker_short_circuits: int = 0
    #: queries cut off by their deadline budget
    deadline_cutoffs: int = 0
    #: answers salvaged by the degradation ladder
    degraded_answers: int = 0
    #: scope/path cache entries a graph write made stale (retired when
    #: it landed, or found stale at their next read)
    stale_scope_drops: int = 0
    #: warm starts that degraded to a full vision-pipeline rebuild
    store_rebuilds: int = 0
    #: path-store misses derived from a held neighborhood
    plan_neighborhood_fills: int = 0
    #: score-memo lookups computed for the first time (charged
    #: ``embed_score``)
    retrieval_ann_fresh: int = 0
    #: score-memo lookups served from the memo (charged ``ann_probe``)
    retrieval_ann_probes: int = 0

    @property
    def scope_hit_rate(self) -> float:
        """Scope-store hits over all scope-store requests."""
        return _rate(self.scope_hits, self.scope_misses)

    @property
    def path_hit_rate(self) -> float:
        """Path-store hits over all path-store requests."""
        return _rate(self.path_hits, self.path_misses)

    @property
    def mean_vertices_per_query(self) -> float:
        """Average executed query-graph vertices per query."""
        return self.vertices / self.queries if self.queries else 0.0


class ExecutorStats:
    """Mutable, thread-safe execution counters over a metrics registry.

    Every ``record_*`` method is safe to call from any worker thread;
    the executor calls them at the corresponding Algorithm-3 stages.
    Pass a shared :class:`~repro.observability.metrics.MetricsRegistry`
    to co-locate these series with other subsystems' metrics, or let
    the constructor create a private one.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        r = self.registry
        self._queries = r.counter(
            "svqa_queries_total",
            "Queries executed to completion by Algorithm 3.")
        self._query_vertices = r.histogram(
            "svqa_query_vertices",
            "Query-graph vertices executed per query.",
            buckets=COUNT_BUCKETS)
        self._query_latency = r.histogram(
            "svqa_query_latency_seconds",
            "Per-query simulated latency.",
            buckets=LATENCY_BUCKETS)
        self._cache_requests = r.counter(
            "svqa_cache_requests_total",
            "Key-centric cache lookups by store and outcome.",
            labels=("store", "outcome"))
        self._predicate_rejections = r.counter(
            "svqa_predicate_rejections_total",
            "Relation pairs dropped by maxScore predicate filtering.")
        self._predicate_dropouts = r.counter(
            "svqa_predicate_dropouts_total",
            "Vertices where predicate filtering dropped every pair.")
        self._constraints = r.counter(
            "svqa_constraint_applications_total",
            "Constraints that actually narrowed a result set.")
        self._validated = r.counter(
            "svqa_validated_graphs_total",
            "Query graphs run through the semantic validator.")
        self._diagnostics = r.counter(
            "svqa_validation_diagnostics_total",
            "Validator diagnostics by severity.",
            labels=("severity",))
        self._faults = r.counter(
            "svqa_faults_injected_total",
            "Injected faults that fired, by site.",
            labels=("site",))
        self._retries = r.counter(
            "svqa_retry_attempts_total",
            "Backoffs charged before a retry attempt.")
        self._recoveries = r.counter(
            "svqa_retry_recoveries_total",
            "Guarded operations that succeeded after faults.")
        self._exhausted = r.counter(
            "svqa_retries_exhausted_total",
            "Guard calls whose retry budget ran out.")
        self._breaker_trips = r.counter(
            "svqa_breaker_trips_total",
            "Circuit-breaker transitions to open.")
        self._short_circuits = r.counter(
            "svqa_breaker_short_circuits_total",
            "Calls rejected by an open circuit.")
        self._deadline_cutoffs = r.counter(
            "svqa_deadline_cutoffs_total",
            "Queries cut off by their deadline budget.")
        self._degraded = r.counter(
            "svqa_degraded_answers_total",
            "Answers salvaged by the degradation ladder.")
        self._stale_drops = r.counter(
            "svqa_stale_scope_drops_total",
            "Scope/path cache entries retired by a graph write that "
            "touched what they read.")
        self._store_rebuilds = r.counter(
            "svqa_store_rebuilds_total",
            "Warm starts that degraded to a full vision-pipeline "
            "rebuild (durable store unrecoverable).")
        self._hit_ratio = r.gauge(
            "svqa_cache_hit_ratio",
            "Cache hit ratio by store (refreshed at snapshot time).",
            labels=("store",))
        self._breaker_state = r.gauge(
            "svqa_breaker_state",
            "Circuit-breaker state by site "
            "(0=closed, 1=half-open, 2=open).",
            labels=("site",))
        self._plan_fills = r.counter(
            "svqa_plan_neighborhood_fills_total",
            "Path-store misses derived from a held neighborhood "
            "instead of rescanning.")
        self._ann_lookups = r.counter(
            "svqa_retrieval_ann_lookups_total",
            "Embedding scores through the score memo by executor site "
            "and outcome (fresh=computed, probe=memo hit).",
            labels=("site", "outcome"))
        # the series every warm ask counts into, keyed once
        self._store_lookups = {
            (store, hit): self._cache_requests.labels(
                store=store, outcome="hit" if hit else "miss")
            for store in ("scope", "path") for hit in (True, False)}
        self._retrieval_lookups: dict[tuple[str, str], Series] = {}

    def record_retrieval(self, site: str, fresh: int,
                         probes: int) -> None:
        """One score-memo lookup at ``site`` computed ``fresh`` scores
        and served ``probes`` from the memo."""
        if fresh:
            self._retrieval_series(site, "fresh").inc(fresh)
        if probes:
            self._retrieval_series(site, "probe").inc(probes)

    def _retrieval_series(self, site: str, outcome: str) -> Series:
        series = self._retrieval_lookups.get((site, outcome))
        if series is None:
            # a racing lane binds an equal key; either one may stay
            series = self._retrieval_lookups.setdefault(
                (site, outcome),
                self._ann_lookups.labels(site=site, outcome=outcome))
        return series

    def record_query(self, vertex_count: int) -> None:
        """One query ran to completion, executing ``vertex_count``
        query-graph vertices."""
        self._queries.inc()
        self._query_vertices.observe(vertex_count)

    def record_latency(self, seconds: float) -> None:
        """One query's end-to-end simulated latency."""
        self._query_latency.observe(seconds)

    def record_scope(self, hit: bool) -> None:
        """One scope-store (matchVertex) lookup."""
        self._store_lookups["scope", hit].inc()

    def record_path(self, hit: bool) -> None:
        """One path-store (getRelationpairs) lookup."""
        self._store_lookups["path", hit].inc()

    def record_filter(self, before: int, after: int) -> None:
        """Predicate filtering reduced ``before`` pairs to ``after``."""
        rejected = before - after
        if rejected <= 0:
            return
        self._predicate_rejections.inc(rejected)
        if after == 0:
            self._predicate_dropouts.inc()

    def record_constraint(self) -> None:
        """One constraint application narrowed a result set."""
        self._constraints.inc()

    def record_validation(self, errors: int, warnings: int) -> None:
        """One query graph went through the semantic validator."""
        self._validated.inc()
        if errors:
            self._diagnostics.inc(errors, severity="error")
        if warnings:
            self._diagnostics.inc(warnings, severity="warning")

    def record_fault(self, site: str) -> None:
        """One injected fault fired at ``site``."""
        self._faults.inc(site=site)

    def record_retry(self) -> None:
        """One backoff was charged before a retry attempt."""
        self._retries.inc()

    def record_recovery(self) -> None:
        """A guarded operation succeeded after at least one fault."""
        self._recoveries.inc()

    def record_retry_exhausted(self) -> None:
        """A guard call ran out of retry budget."""
        self._exhausted.inc()

    def record_breaker_trip(self) -> None:
        """A circuit breaker transitioned to open."""
        self._breaker_trips.inc()

    def record_breaker_short_circuit(self) -> None:
        """An open circuit rejected a call."""
        self._short_circuits.inc()

    def record_breaker_state(self, site: str, state: str) -> None:
        """Publish ``site``'s current breaker state to the gauge."""
        self._breaker_state.set(
            BREAKER_STATE_VALUES.get(state, -1.0), site=site
        )

    def record_deadline_cutoff(self) -> None:
        """A query was cut off by its deadline budget."""
        self._deadline_cutoffs.inc()

    def record_degraded(self) -> None:
        """One answer was salvaged by the degradation ladder."""
        self._degraded.inc()

    def record_stale_scope_drops(self, count: int) -> None:
        """Writes to the merged graph made ``count`` scope/path cache
        entries stale."""
        if count > 0:
            self._stale_drops.inc(count)

    def record_neighborhood_fill(self) -> None:
        """One path-store miss derived its pairs from a held
        neighborhood instead of rescanning."""
        self._plan_fills.inc()

    def record_store_rebuild(self) -> None:
        """A warm start found the durable store unrecoverable and
        degraded to a full rebuild."""
        self._store_rebuilds.inc()

    def reset(self) -> None:
        """Zero every counter, histogram, and gauge."""
        self.registry.reset()

    def snapshot(self) -> ExecutorStatsReport:
        """Freeze the counters into an :class:`ExecutorStatsReport`.

        Also refreshes the derived ``svqa_cache_hit_ratio`` gauges so
        a registry export taken right after a snapshot is consistent
        with the report.
        """
        cache = self._cache_requests
        scope_hits = int(cache.value(store="scope", outcome="hit"))
        scope_misses = int(cache.value(store="scope", outcome="miss"))
        path_hits = int(cache.value(store="path", outcome="hit"))
        path_misses = int(cache.value(store="path", outcome="miss"))
        self._hit_ratio.set(_rate(scope_hits, scope_misses),
                            store="scope")
        self._hit_ratio.set(_rate(path_hits, path_misses), store="path")
        fault_sites = tuple(
            (key[0], int(value))
            for key, value in self._faults.series_items()
        )
        lookups: dict[str, float] = {}
        for (_, outcome), value in self._ann_lookups.series_items():
            lookups[outcome] = lookups.get(outcome, 0.0) + value
        return ExecutorStatsReport(
            queries=int(self._queries.total()),
            vertices=int(sum(total for _, (_, total, _)
                             in self._query_vertices.series_items())),
            scope_hits=scope_hits,
            scope_misses=scope_misses,
            path_hits=path_hits,
            path_misses=path_misses,
            predicate_rejections=int(self._predicate_rejections.total()),
            predicate_dropouts=int(self._predicate_dropouts.total()),
            constraint_applications=int(self._constraints.total()),
            graphs_validated=int(self._validated.total()),
            validation_errors=int(
                self._diagnostics.value(severity="error")),
            validation_warnings=int(
                self._diagnostics.value(severity="warning")),
            faults_injected=int(self._faults.total()),
            fault_sites=fault_sites,
            retry_attempts=int(self._retries.total()),
            retry_recoveries=int(self._recoveries.total()),
            retries_exhausted=int(self._exhausted.total()),
            breaker_trips=int(self._breaker_trips.total()),
            breaker_short_circuits=int(self._short_circuits.total()),
            deadline_cutoffs=int(self._deadline_cutoffs.total()),
            degraded_answers=int(self._degraded.total()),
            stale_scope_drops=int(self._stale_drops.total()),
            store_rebuilds=int(self._store_rebuilds.total()),
            plan_neighborhood_fills=int(self._plan_fills.total()),
            retrieval_ann_fresh=int(lookups.get("fresh", 0.0)),
            retrieval_ann_probes=int(lookups.get("probe", 0.0)),
        )
