"""Configuration of the observability layer.

``SVQAConfig.observability`` takes an :class:`ObservabilityConfig` (or
``None`` — the default — which keeps the whole layer off: no tracer is
constructed, no span context managers open, and the off path is
bit-identical to a build without the layer).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ObservabilityConfig:
    """Knobs of the observability layer.

    ``trace`` enables span recording (the metrics registry behind
    :class:`~repro.core.stats.ExecutorStats` is always live — it *is*
    the stats implementation).  ``max_spans_per_trace`` is a safety
    valve against unbounded buffers on pathological inputs; past the
    cap, further spans in that trace are dropped silently.
    """

    trace: bool = True
    max_spans_per_trace: int = 100_000
