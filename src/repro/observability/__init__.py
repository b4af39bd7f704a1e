"""Observability: span tracing, metrics, and profiling reports.

Three cooperating pieces (DESIGN.md §5e):

* :mod:`repro.observability.spans` — the deterministic,
  SimClock-stamped span tracer threaded through the pipeline behind
  ``SVQAConfig.trace``;
* :mod:`repro.observability.metrics` — the named counter / gauge /
  histogram registry that backs
  :class:`~repro.core.stats.ExecutorStats`, with Prometheus text and
  JSON snapshot exports;
* :mod:`repro.observability.profiler` — per-stage breakdowns and the
  ``BENCH_baseline.json`` artifact built from the two above
  (surfaced by the ``repro profile`` / ``repro trace`` commands).

This package sits *below* :mod:`repro.core` (the stats collector
imports the registry), so nothing here may import from the core.
"""

from repro.observability.metrics import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    parse_prometheus,
)
from repro.observability.glossary import BENCH_GLOSSARY, explain_lines
from repro.observability.profiler import (
    BASELINE_SCHEMA_VERSION,
    StageRow,
    build_baseline,
    charge_ceiling_violations,
    dump_deterministic_json,
    stage_breakdown,
)
from repro.observability.spans import (
    SPAN_NAMES,
    Span,
    Tracer,
    maybe_span,
    maybe_trace,
    render_trace,
)

__all__ = [
    "BASELINE_SCHEMA_VERSION",
    "BENCH_GLOSSARY",
    "COUNT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "SPAN_NAMES",
    "Span",
    "StageRow",
    "Tracer",
    "build_baseline",
    "charge_ceiling_violations",
    "dump_deterministic_json",
    "explain_lines",
    "maybe_span",
    "maybe_trace",
    "parse_prometheus",
    "render_trace",
    "stage_breakdown",
]
