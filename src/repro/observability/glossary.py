"""The definitions of the rows ``repro bench`` reports.

``repro bench --explain`` prints them from here; each names the
``svqa_*`` metric family behind its row.  The per-family definitions
of ``docs/OPERATIONS.md`` are held to the families the code registers
by ``tests/observability/test_glossary.py``.
"""

from __future__ import annotations

#: definitions of the rows ``repro bench`` reports (printed verbatim
#: by ``repro bench --explain``)
BENCH_GLOSSARY: dict[str, str] = {
    "makespan":
        "Simulated seconds on the busiest worker lane — what a "
        "parallel deployment actually waits for.",
    "sim total":
        "Total simulated work summed over all worker-lane clock "
        "shards (excludes parsing, charged on the main thread).",
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
    "plan neighborhood fills":
        "Path-store misses derived from a held neighborhood "
        "(svqa_plan_neighborhood_fills_total).",
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
