"""Metrics registry: named counters, gauges, and histograms.

The registry is the fleet-level half of the observability layer (the
span tracer in :mod:`repro.observability.spans` is the per-question
half).  Instrumented code registers *families* — a metric name plus a
fixed label schema — and records into labeled *series*:

>>> registry = MetricsRegistry()
>>> requests = registry.counter(
...     "svqa_cache_requests_total",
...     "Scope/path store lookups by outcome.",
...     labels=("store", "outcome"),
... )
>>> requests.inc(store="scope", outcome="hit")
>>> requests.value(store="scope", outcome="hit")
1.0

Two export formats are supported, both byte-deterministic (families
sorted by name, series by label values, fixed float formatting):

* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / sample lines);
* :meth:`MetricsRegistry.to_json` — a nested snapshot dict suitable
  for ``json.dumps(..., sort_keys=True)``; two same-seed runs must
  produce byte-identical snapshots (the CI observability job diffs
  them).

Histograms use **fixed** bucket bounds chosen at registration time —
never computed from the data — so bucket counts are comparable across
runs and commits.  All families and series are thread-safe: one
registry is shared by every worker thread of a batch run.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from itertools import accumulate
from typing import Any

from repro.locks import note_write, wrap_lock

#: fixed simulated-seconds buckets for per-query latency histograms
#: (chosen to straddle the MVQA per-query range of ~0.05-1 sim-s)
LATENCY_BUCKETS: tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: fixed buckets for small structural counts (vertices per query, ...)
COUNT_BUCKETS: tuple[float, ...] = (1, 2, 3, 4, 6, 8, 12, 16)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def _format_value(value: float) -> str:
    """Render a sample value deterministically (integers stay integral)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return value.replace("\\", "\\\\").replace('"', '\\"') \
                .replace("\n", "\\n")


class MetricFamily:
    """Base class: one named metric with a fixed label schema.

    Subclasses hold the per-series state; every mutation and read runs
    under the family's lock so one family can be shared by a worker
    pool.
    """

    metric_type = "untyped"

    def __init__(self, name: str, help_text: str,
                 labels: tuple[str, ...] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name: {label!r}")
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(labels)
        self._role = f"metrics.{name}"
        self._lock = wrap_lock(threading.Lock(), self._role)

    def _series_key(self, labels: dict[str, str]) -> tuple[str, ...]:
        """Validate ``labels`` against the schema and key the series."""
        if not labels and not self.label_names:
            return ()
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _label_text(self, key: tuple[str, ...],
                    extra: str | None = None) -> str:
        """Render one series' ``{name="value",...}`` suffix."""
        parts = [
            f'{name}="{_escape_label(value)}"'
            for name, value in zip(self.label_names, key, strict=True)
        ]
        if extra is not None:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def expose(self) -> list[str]:
        """The family's lines in the Prometheus text format."""
        raise NotImplementedError

    def snapshot(self) -> dict[str, Any]:
        """The family's JSON-ready snapshot dict."""
        raise NotImplementedError


class Counter(MetricFamily):
    """A monotonically increasing sum per label combination."""

    metric_type = "counter"

    def __init__(self, name: str, help_text: str,
                 labels: tuple[str, ...] = ()) -> None:
        super().__init__(name, help_text, labels)
        self._series: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (must be >= 0) to the labeled series."""
        self._add(self._series_key(labels), amount)

    def labels(self, **labels: str) -> Series:
        """The labeled series, its labels validated once: a hot call
        site binds it up front and counts through :meth:`Series.inc`.
        Binding creates no series; the first increment does."""
        return Series(self, self._series_key(labels))

    def _add(self, key: tuple[str, ...], amount: float) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (got {amount})"
            )
        with self._lock:
            note_write(self._role, key)
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of the labeled series (0.0 if never touched)."""
        key = self._series_key(labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def total(self) -> float:
        """Sum over every series of the family."""
        with self._lock:
            return sum(self._series.values())

    def series_items(self) -> list[tuple[tuple[str, ...], float]]:
        """All ``(label_values, value)`` pairs, sorted for determinism."""
        with self._lock:
            return sorted(self._series.items())

    def reset(self) -> None:
        """Drop every series (test/rollover support)."""
        with self._lock:
            self._series.clear()

    def expose(self) -> list[str]:
        """Prometheus lines: HELP/TYPE header plus one line per series."""
        lines = [f"# HELP {self.name} {self.help_text}",
                 f"# TYPE {self.name} {self.metric_type}"]
        for key, value in self.series_items():
            lines.append(f"{self.name}{self._label_text(key)} "
                         f"{_format_value(value)}")
        return lines

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dict: type, help, and the sorted series values."""
        return {
            "type": self.metric_type,
            "help": self.help_text,
            "series": [
                {"labels": dict(zip(self.label_names, key, strict=True)),
                 "value": value}
                for key, value in self.series_items()
            ],
        }


class Gauge(Counter):
    """A value that can go up and down (breaker state, hit ratio)."""

    metric_type = "gauge"

    def set(self, value: float, **labels: str) -> None:
        """Overwrite the labeled series with ``value``."""
        key = self._series_key(labels)
        with self._lock:
            note_write(self._role, key)
            self._series[key] = float(value)

    def _add(self, key: tuple[str, ...], amount: float) -> None:
        # a gauge may go down
        with self._lock:
            note_write(self._role, key)
            self._series[key] = self._series.get(key, 0.0) + amount


class Series:
    """One series of a :class:`Counter` or :class:`Gauge`, keyed once
    by :meth:`Counter.labels`."""

    __slots__ = ("_family", "_key")

    def __init__(self, family: Counter, key: tuple[str, ...]) -> None:
        self._family = family
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the series, as the family's ``inc``."""
        self._family._add(self._key, amount)


class _HistogramSeries:
    """One labeled histogram series: per-bucket counts (each
    observation in the first bucket whose bound covers it) + sum +
    count."""

    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, bucket_count: int) -> None:
        self.bucket_counts = [0] * bucket_count
        self.total = 0.0
        self.count = 0


class Histogram(MetricFamily):
    """Cumulative-bucket histogram with fixed, registration-time bounds."""

    metric_type = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: tuple[float, ...],
                 labels: tuple[str, ...] = ()) -> None:
        super().__init__(name, help_text, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"{name}: buckets must be a sorted, non-empty, "
                f"duplicate-free sequence, got {buckets}"
            )
        self.buckets = bounds
        self._series: dict[tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into the labeled series."""
        key = self._series_key(labels)
        with self._lock:
            note_write(self._role, key)
            series = self._series.get(key)
            if series is None:
                series = _HistogramSeries(len(self.buckets))
                self._series[key] = series
            bucket = bisect_left(self.buckets, value)
            if bucket < len(self.buckets):
                series.bucket_counts[bucket] += 1
            series.total += value
            series.count += 1

    def series_items(self) -> list[tuple[tuple[str, ...],
                                         tuple[list[int], float, int]]]:
        """Sorted ``(label_values, (buckets, sum, count))`` snapshots,
        the bucket counts cumulative."""
        with self._lock:
            return sorted(
                (key, (list(accumulate(s.bucket_counts)), s.total, s.count))
                for key, s in self._series.items()
            )

    def reset(self) -> None:
        """Drop every series (test/rollover support)."""
        with self._lock:
            self._series.clear()

    def expose(self) -> list[str]:
        """Prometheus lines: cumulative buckets plus _sum/_count."""
        lines = [f"# HELP {self.name} {self.help_text}",
                 f"# TYPE {self.name} {self.metric_type}"]
        for key, (counts, total, count) in self.series_items():
            for bound, bucket in zip(self.buckets, counts, strict=True):
                label_text = self._label_text(
                    key, extra=f'le="{_format_value(bound)}"'
                )
                lines.append(f"{self.name}_bucket{label_text} {bucket}")
            label_text = self._label_text(key, extra='le="+Inf"')
            lines.append(f"{self.name}_bucket{label_text} {count}")
            suffix = self._label_text(key)
            lines.append(f"{self.name}_sum{suffix} "
                         f"{_format_value(round(total, 9))}")
            lines.append(f"{self.name}_count{suffix} {count}")
        return lines

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dict with per-series buckets, sum, and count."""
        return {
            "type": self.metric_type,
            "help": self.help_text,
            "buckets": list(self.buckets),
            "series": [
                {"labels": dict(zip(self.label_names, key, strict=True)),
                 "bucket_counts": counts,
                 "sum": round(total, 9),
                 "count": count}
                for key, (counts, total, count) in self.series_items()
            ],
        }


def _parse_label_text(text: str, line: str) -> dict[str, str]:
    """Parse one sample line's ``name="value",...`` label body."""
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(text):
        match = _LABEL_PAIR_RE.match(text, pos)
        if match is None:
            raise ValueError(f"malformed label set in line: {line!r}")
        raw = match.group("value")
        labels[match.group("name")] = (
            raw.replace("\\n", "\n").replace('\\"', '"')
               .replace("\\\\", "\\")
        )
        pos = match.end()
        if pos < len(text):
            if text[pos] != ",":
                raise ValueError(
                    f"malformed label set in line: {line!r}"
                )
            pos += 1
    return labels


def parse_prometheus(text: str) -> dict[str, dict[str, Any]]:
    """Parse the Prometheus text exposition format back into data.

    The validating inverse of :meth:`MetricsRegistry.to_prometheus`,
    used by the serving smoke test to assert that ``GET /metrics``
    actually speaks the exposition format.  Returns a dict keyed by
    family name with ``{"type", "help", "samples"}`` entries, where
    ``samples`` is a list of ``(sample_name, labels, value)`` tuples
    (histogram ``_bucket``/``_sum``/``_count`` samples attach to
    their declaring family).  Raises :class:`ValueError` on any line
    that is neither a comment, blank, nor a well-formed sample.
    """
    families: dict[str, dict[str, Any]] = {}

    def family(name: str) -> dict[str, Any]:
        return families.setdefault(
            name, {"type": None, "help": None, "samples": []}
        )

    current: str | None = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"malformed comment line: {line!r}")
            key = "help" if parts[1] == "HELP" else "type"
            family(parts[2])[key] = parts[3]
            current = parts[2]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed sample line: {line!r}")
        name = match.group("name")
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"malformed sample value in line: {line!r}"
            ) from exc
        labels = _parse_label_text(match.group("labels") or "", line)
        owner = current if current is not None and (
            name == current or name.startswith(current + "_")
        ) else name
        family(owner)["samples"].append((name, labels, value))
    return families


class MetricsRegistry:
    """A named collection of metric families.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking
    for an existing name returns the existing family after checking
    that the type and label schema match (a mismatch raises
    ``ValueError`` — two subsystems silently sharing a name with
    different meanings is exactly the bug a registry exists to catch).
    """

    def __init__(self) -> None:
        self._lock = wrap_lock(threading.Lock(), "metrics.registry")
        self._families: dict[str, MetricFamily] = {}

    def _register(self, family_type: type, name: str, help_text: str,
                  labels: tuple[str, ...],
                  **kwargs: Any) -> MetricFamily:
        """Get-or-create a family, enforcing schema consistency.

        Family construction is virtual dispatch the registry lock
        must not pin (RP010), so the miss path constructs outside
        the critical section and inserts with a re-check: a racing
        registrant may win, in which case the loser's instance is
        discarded before anyone can observe it.
        """
        with self._lock:
            existing = self._families.get(name)
        if existing is None:
            candidate = family_type(name, help_text,
                                    labels=tuple(labels), **kwargs)
            with self._lock:
                existing = self._families.setdefault(name, candidate)
        if type(existing) is not family_type:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{existing.metric_type}"
            )
        if existing.label_names != tuple(labels):
            raise ValueError(
                f"metric {name!r} already registered with "
                f"labels {existing.label_names}"
            )
        return existing

    def counter(self, name: str, help_text: str,
                labels: tuple[str, ...] = ()) -> Counter:
        """Get-or-create a :class:`Counter` family."""
        family = self._register(Counter, name, help_text, labels)
        assert isinstance(family, Counter)
        return family

    def gauge(self, name: str, help_text: str,
              labels: tuple[str, ...] = ()) -> Gauge:
        """Get-or-create a :class:`Gauge` family."""
        family = self._register(Gauge, name, help_text, labels)
        assert isinstance(family, Gauge)
        return family

    def histogram(self, name: str, help_text: str,
                  buckets: tuple[float, ...] = LATENCY_BUCKETS,
                  labels: tuple[str, ...] = ()) -> Histogram:
        """Get-or-create a :class:`Histogram` family with fixed buckets."""
        family = self._register(Histogram, name, help_text, labels,
                                buckets=buckets)
        assert isinstance(family, Histogram)
        return family

    def families(self) -> list[MetricFamily]:
        """Every registered family, sorted by name."""
        with self._lock:
            return [self._families[name]
                    for name in sorted(self._families)]

    def reset(self) -> None:
        """Zero every series of every family (schemas survive)."""
        for family in self.families():
            reset = getattr(family, "reset", None)
            if reset is not None:
                reset()

    def to_prometheus(self) -> str:
        """The whole registry in the Prometheus text exposition format."""
        lines: list[str] = []
        for family in self.families():
            lines.extend(family.expose())
        return "\n".join(lines) + "\n" if lines else ""

    def to_json(self) -> dict[str, Any]:
        """A deterministic JSON-ready snapshot of every family."""
        return {family.name: family.snapshot()
                for family in self.families()}
