"""Profiling reports built from spans and metrics.

``repro profile`` runs the MVQA suite with tracing enabled and uses
this module to turn the raw spans into a **per-stage simulated-time
breakdown** (how many sim-seconds each pipeline stage consumed, split
into total and *self* time so nested stages don't double-count) and a
``BENCH_baseline.json`` artifact that future PRs diff their hot-path
claims against.

Everything here is a pure function of the recorded spans/metrics, so
the outputs inherit the tracer's determinism: two same-seed runs
produce byte-identical breakdowns and baselines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.observability.spans import Span

#: schema version stamped into every baseline artifact, bumped on any
#: backwards-incompatible change to the JSON layout.  v2 added
#: ``clock_counts`` (per-operation SimClock charge counts — the
#: ``vertex_match`` entry is the ceiling the CI regression check
#: enforces) and changed the charge model ``vertex_match`` counts
#: under (per candidate *examined* by the candidate index, not per
#: distinct merged-graph label).
BASELINE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class StageRow:
    """Aggregated cost of one span name across a run."""

    name: str
    count: int           # spans recorded under this name
    total: float         # summed span durations (includes children)
    self_time: float     # summed durations minus child durations

    @property
    def mean(self) -> float:
        """Mean span duration in simulated seconds."""
        return self.total / self.count if self.count else 0.0


def stage_breakdown(spans: list[Span]) -> list[StageRow]:
    """Aggregate spans into per-stage rows, sorted by self time.

    *Self* time is a span's duration minus the durations of its
    direct children, so the per-stage column sums to total traced
    time instead of double-counting nested stages (``query_graph``
    contains ``parse`` and ``spoc``; ``executor.execute`` contains
    the cache and match spans).
    """
    child_time: dict[tuple[str, int], float] = {}
    for span in spans:
        if span.parent_id is not None:
            key = (span.trace_id, span.parent_id)
            child_time[key] = child_time.get(key, 0.0) + span.duration

    totals: dict[str, float] = {}
    selfs: dict[str, float] = {}
    counts: dict[str, int] = {}
    for span in spans:
        counts[span.name] = counts.get(span.name, 0) + 1
        totals[span.name] = totals.get(span.name, 0.0) + span.duration
        own = span.duration - child_time.get(
            (span.trace_id, span.span_id), 0.0
        )
        selfs[span.name] = selfs.get(span.name, 0.0) + own

    rows = [
        StageRow(name=name, count=counts[name],
                 total=round(totals[name], 9),
                 self_time=round(selfs[name], 9))
        for name in counts
    ]
    return sorted(rows, key=lambda r: (-r.self_time, r.name))


def build_baseline(
    suite: str,
    config: dict[str, Any],
    accuracy: dict[str, float],
    latency: dict[str, float],
    stages: list[StageRow],
    metrics: dict[str, Any],
    clock_counts: dict[str, int] | None = None,
) -> dict[str, Any]:
    """Assemble the ``BENCH_baseline.json`` payload (schema v2).

    The artifact deliberately carries **no wall-clock numbers** — it
    must be byte-reproducible on any machine — and no timestamps (the
    repo's determinism rules forbid reading the system clock; git
    history dates the artifact).  ``clock_counts`` records how many
    times each SimClock operation was charged; the checked-in counts
    double as regression ceilings (see
    :func:`charge_ceiling_violations`).
    """
    return {
        "schema_version": BASELINE_SCHEMA_VERSION,
        "suite": suite,
        "config": dict(sorted(config.items())),
        "accuracy": {k: round(v, 6) for k, v in sorted(accuracy.items())},
        "latency_simulated_seconds": {
            k: round(v, 6) for k, v in sorted(latency.items())
        },
        "stages": [
            {"name": row.name, "count": row.count,
             "total": row.total, "self": row.self_time}
            for row in stages
        ],
        "metrics": metrics,
        "clock_counts": {
            k: int(v) for k, v in sorted((clock_counts or {}).items())
        },
    }


def charge_ceiling_violations(
    baseline: dict[str, Any],
    counts: dict[str, int],
    operations: tuple[str, ...] = (
        "vertex_match", "edge_scan", "embed_score",
    ),
) -> list[str]:
    """Compare a run's SimClock charge counts against a baseline's
    recorded counts; returns one message per operation that exceeds
    its recorded ceiling (empty means no regression).

    The checked-in baseline counts are the contract: the candidate
    index must keep ``vertex_match`` at or below the number of
    candidates it examined when the baseline was recorded, the
    path and neighborhood stores must keep ``edge_scan`` at or below
    the mass recorded with their reuse, and the embedding score memo
    must keep ``embed_score`` at or below the post-memo fresh-score
    mass — an accidental return to linear scanning (or to re-embedding
    every candidate pair) fails CI instead of silently re-inflating
    simulated latency.
    """
    recorded = baseline.get("clock_counts", {})
    violations: list[str] = []
    for operation in operations:
        ceiling = recorded.get(operation)
        if ceiling is None:
            violations.append(
                f"{operation}: baseline has no recorded ceiling "
                "(regenerate BENCH_baseline.json with schema >= 2)"
            )
            continue
        current = counts.get(operation, 0)
        if current > ceiling:
            violations.append(
                f"{operation}: {current} charges exceed the baseline "
                f"ceiling of {ceiling}"
            )
    return violations


def dump_deterministic_json(payload: dict[str, Any]) -> str:
    """Serialize with sorted keys and a trailing newline.

    The one serialization used for every artifact the CI observability
    job byte-diffs (metric snapshots, baselines).
    """
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
