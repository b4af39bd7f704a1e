"""The one-line definition of every ``svqa_*`` metric family.

:mod:`tests.observability.test_glossary` holds the registering source
code, this table and the operator runbook ``docs/OPERATIONS.md``
together: every family registered anywhere in ``src/repro`` has an
entry here, and every entry appears in the runbook.
"""

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
    # --- neighborhood store ---
    "svqa_plan_neighborhood_fills_total":
        "Path-store misses whose relation pairs were derived from a "
        "held neighborhood in the cache instead of rescanning.",
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
