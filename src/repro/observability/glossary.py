"""The single source of truth for metric and benchmark definitions.

``repro bench --explain`` prints its per-row definitions from here,
and ``docs/OPERATIONS.md`` must cover every family listed here (an
anti-drift test in ``tests/observability/test_glossary.py`` holds the
three together: every ``svqa_*`` family registered anywhere in
``src/repro`` appears in :data:`METRIC_GLOSSARY`, and every glossary
entry appears in the operations runbook).
"""

from __future__ import annotations

#: every ``svqa_*`` metric family the system can emit, with a
#: one-line operator-facing definition
METRIC_GLOSSARY: dict[str, str] = {
    # --- core execution ---
    "svqa_queries_total":
        "Queries executed to completion by Algorithm 3.",
    "svqa_query_vertices":
        "Histogram of query-graph vertices executed per query.",
    "svqa_query_latency_seconds":
        "Histogram of per-query simulated latency (SimClock seconds).",
    "svqa_cache_requests_total":
        "Key-centric cache lookups, labeled by store (scope/path) and "
        "outcome (hit/miss).",
    "svqa_cache_hit_ratio":
        "Derived hit ratio per store, refreshed at snapshot time.",
    "svqa_predicate_rejections_total":
        "Relation pairs dropped by maxScore predicate filtering.",
    "svqa_predicate_dropouts_total":
        "Query-graph vertices where predicate filtering dropped every "
        "retrieved pair.",
    "svqa_constraint_applications_total":
        "Constraints (e.g. 'most frequently') that actually narrowed "
        "a result set.",
    "svqa_validated_graphs_total":
        "Query graphs run through the semantic validator.",
    "svqa_validation_diagnostics_total":
        "Validator diagnostics, labeled by severity (error/warning).",
    "svqa_stale_scope_drops_total":
        "Scope/path cache entries a graph write made stale, retired when "
        "it lands or found stale at their next read.",
    # --- multi-query planner ---
    "svqa_plan_batches_total":
        "Batches routed through the cost-based multi-query planner.",
    "svqa_plan_nodes_total":
        "Canonical plan nodes discovered across planned batches, "
        "labeled by kind (scope/path/neighborhood).",
    "svqa_plan_shared_nodes_total":
        "Shared sub-plan nodes executed exactly once by the share "
        "phase and fanned out to all consumers, labeled by kind.",
    "svqa_plan_overlay_fills_total":
        "Cache-miss closures served from the plan overlay instead of "
        "recomputing, labeled by store (scope/path).",
    # --- embedding score memo ---
    "svqa_retrieval_ann_lookups_total":
        "Embedding scores through the score memo, labeled by executor "
        "site (predicate/constraint/possessive) and outcome "
        "(fresh=computed, probe=score-memo hit).",
    # --- resilience ---
    "svqa_faults_injected_total":
        "Injected faults that fired, labeled by fault site.",
    "svqa_retry_attempts_total":
        "Backoffs charged before a retry attempt.",
    "svqa_retry_recoveries_total":
        "Guarded operations that succeeded after at least one fault.",
    "svqa_retries_exhausted_total":
        "Guard calls whose retry budget ran out.",
    "svqa_breaker_trips_total":
        "Circuit-breaker transitions to open.",
    "svqa_breaker_short_circuits_total":
        "Calls rejected outright by an open circuit.",
    "svqa_breaker_state":
        "Current breaker state per site "
        "(0=closed, 1=half-open, 2=open).",
    "svqa_deadline_cutoffs_total":
        "Queries cut off by their per-query deadline budget.",
    "svqa_degraded_answers_total":
        "Answers salvaged by the graceful-degradation ladder.",
    # --- serving layer ---
    "svqa_http_requests_total":
        "HTTP requests served, labeled by route and status code.",
    "svqa_admission_total":
        "Admission-control decisions, labeled by outcome "
        "(admitted/rate-limited).",
    "svqa_serve_batch_size":
        "Histogram of micro-batch sizes the serving bridge submitted.",
    # --- durable store ---
    "svqa_store_snapshots_total":
        "Durable-store snapshots written.",
    "svqa_store_recoveries_total":
        "Store recoveries attempted, labeled by verdict.",
    "svqa_store_quarantined_total":
        "Corrupt store files quarantined for forensics.",
    "svqa_store_wal_appends_total":
        "Mutations appended to the write-ahead log.",
    "svqa_store_wal_append_drops_total":
        "WAL appends dropped (sink closed or I/O failure).",
    "svqa_store_wal_records_replayed_total":
        "WAL records replayed during recovery.",
    "svqa_store_rebuilds_total":
        "Warm starts that degraded to a full vision-pipeline rebuild.",
}

#: definitions of the rows ``repro bench`` reports (printed verbatim
#: by ``repro bench --explain``)
BENCH_GLOSSARY: dict[str, str] = {
    "makespan":
        "Simulated seconds on the busiest worker lane — what a "
        "parallel deployment actually waits for.",
    "sim total":
        "Total simulated work summed over all worker-lane clock "
        "shards (excludes the planner's main-thread share phase).",
    "speedup":
        "Simulated total work divided by the makespan.",
    "wall":
        "Measured wall-clock seconds of the batch run itself.",
    "queries executed":
        "Queries that ran to an answer (svqa_queries_total).",
    "vertices / query":
        "Mean query-graph vertices executed per query "
        "(svqa_query_vertices).",
    "scope hit rate":
        "Scope-store hits over all scope requests "
        "(svqa_cache_requests_total, store=scope).",
    "path hit rate":
        "Path-store hits over all path requests "
        "(svqa_cache_requests_total, store=path).",
    "predicate rejections":
        "Pairs dropped by predicate filtering "
        "(svqa_predicate_rejections_total).",
    "predicate dropouts":
        "Vertices where filtering dropped every pair "
        "(svqa_predicate_dropouts_total).",
    "constraint applications":
        "Constraints that narrowed a result "
        "(svqa_constraint_applications_total).",
    "graphs validated":
        "Query graphs run through the semantic validator "
        "(svqa_validated_graphs_total).",
    "validation warnings":
        "WARNING diagnostics across validated graphs "
        "(svqa_validation_diagnostics_total, severity=warning).",
    "validation errors":
        "ERROR diagnostics across validated graphs "
        "(svqa_validation_diagnostics_total, severity=error).",
    "stale scope drops":
        "Cache entries a write made stale "
        "(svqa_stale_scope_drops_total).",
    "plan batches":
        "Batches routed through the multi-query planner "
        "(svqa_plan_batches_total).",
    "plan nodes":
        "Canonical plan nodes discovered (svqa_plan_nodes_total).",
    "plan shared nodes":
        "Sub-plan nodes executed once and fanned out "
        "(svqa_plan_shared_nodes_total).",
    "plan overlay fills":
        "Cache misses served from the plan overlay "
        "(svqa_plan_overlay_fills_total).",
    "ann fresh scores":
        "Embedding scores computed for the first time "
        "(svqa_retrieval_ann_lookups_total, outcome=fresh).",
    "ann memo probes":
        "Embedding scores served from the score memo "
        "(svqa_retrieval_ann_lookups_total, outcome=probe).",
    "faults injected":
        "Injected faults that fired (svqa_faults_injected_total).",
    "retry attempts":
        "Backoffs charged before a retry (svqa_retry_attempts_total).",
    "retry recoveries":
        "Operations that succeeded after faults "
        "(svqa_retry_recoveries_total).",
    "retries exhausted":
        "Guard calls whose retry budget ran out "
        "(svqa_retries_exhausted_total).",
    "breaker trips":
        "Circuit transitions to open (svqa_breaker_trips_total).",
    "breaker short-circuits":
        "Calls rejected by an open circuit "
        "(svqa_breaker_short_circuits_total).",
    "deadline cutoffs":
        "Queries cut off by their budget "
        "(svqa_deadline_cutoffs_total).",
    "degraded answers":
        "Answers salvaged by the degradation ladder "
        "(svqa_degraded_answers_total).",
}


def explain_lines() -> list[str]:
    """The ``repro bench --explain`` section, one definition per row."""
    width = max(len(name) for name in BENCH_GLOSSARY)
    return [f"  {name:<{width}}  {definition}"
            for name, definition in BENCH_GLOSSARY.items()]
