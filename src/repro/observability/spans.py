"""Deterministic, SimClock-stamped span tracing.

A *span* is one named stage of work (``parse``, ``cache.scope``,
``executor.match``, ...) with a start offset and duration in
**simulated seconds**, a parent span, and a flat attribute dict.
Spans belong to a *trace* — one question (``q0001``) or the offline
``build`` phase.

Determinism rules (also documented in DESIGN.md §5e):

* spans are stamped from the :class:`~repro.simtime.SimClock` of the
  executing thread, never from wall-clock, so two same-seed runs
  produce byte-identical exports;
* start offsets are **relative to the enclosing trace segment's
  start** on that segment's clock, which makes them comparable across
  worker counts (every clock shard starts a query at a different
  absolute elapsed value);
* each trace segment runs entirely in one thread and records into a
  private buffer (no locks on the hot path); buffers are merged —
  under the tracer's lock — only when the segment closes, which is
  the "per-shard buffers merged at join" contract the concurrent
  batch engine relies on;
* the multiset of ``(name, attributes)`` pairs across a whole run is
  worker-count invariant; the *assignment* of a shared-cache miss to
  a particular question is not (under concurrency, whichever query
  reaches the key first becomes the single-flight leader), so a
  worker-invariance comparison drops timing and trace identity.

The tracer never charges the clock — it only reads it — so enabling
tracing cannot perturb answers, latencies, or statistics.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any

from repro.locks import note_write, wrap_lock
from repro.simtime import SimClock

#: the closed span taxonomy (see DESIGN.md §5e); instrumentation may
#: only open spans with these names, so exports stay diffable across
#: commits
SPAN_NAMES: frozenset[str] = frozenset({
    "question",          # root: one question's parse phase
    "build",             # root: the offline build phase
    "parse",             # dependency parse of the question text
    "spoc",              # SPOC extraction for one clause
    "query_graph",       # Algorithm 2 end to end
    "aggregate.merge",   # attaching one scene graph to G_mg
    "cache.scope",       # one matchVertex scope-store access
    "cache.path",        # one getRelationpairs path-store access
    "executor.match",    # resolving one query-graph slot
    "executor.execute",  # Algorithm 3 over one query graph
    "resilience.retry",  # one backoff before a retry attempt
    "store.snapshot",    # writing one durable-store snapshot
    "store.wal_append",  # appending one mutation to the WAL
    "store.recover",     # snapshot load + WAL replay at warm start
})


@dataclass
class Span:
    """One recorded stage of work inside a trace."""

    name: str
    trace_id: str
    span_id: int                # position in the merged trace (birth order)
    parent_id: int | None       # enclosing span's ``span_id``, if any
    start: float                # sim-seconds from the trace segment start
    duration: float             # sim-seconds spent inside the span
    attributes: dict[str, Any] = field(default_factory=dict)

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute on the live span."""
        self.attributes[key] = value

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict with a fixed key set."""
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": round(self.start, 9),
            "duration": round(self.duration, 9),
            "attributes": dict(sorted(self.attributes.items())),
        }


class _Segment:
    """One thread's span buffer for one ``(trace_id, seq)`` segment."""

    __slots__ = ("trace_id", "seq", "clock", "base", "spans", "stack")

    def __init__(self, trace_id: str, seq: int,
                 clock: SimClock | None) -> None:
        self.trace_id = trace_id
        self.seq = seq
        self.clock = clock
        self.base = clock.elapsed if clock is not None else 0.0
        self.spans: list[Span] = []
        self.stack: list[int] = []

    def now(self) -> float:
        """Sim-seconds since this segment opened."""
        if self.clock is None:
            return 0.0
        return self.clock.elapsed - self.base


class Tracer:
    """Collects spans from any number of threads, deterministically.

    Usage::

        tracer = Tracer()
        with tracer.trace("q0001", clock):
            with tracer.span("query_graph") as sp:
                ...
                sp.set("clauses", 2)

    ``span`` outside an active ``trace`` records nothing and yields
    ``None`` — library code can therefore instrument unconditionally
    while only traced entry points produce data.  A trace id may be
    entered more than once (the batch engine parses a question on the
    main thread and executes it on a worker); the segments are
    ordered by entry sequence and concatenated at export.
    """

    def __init__(self, max_spans_per_trace: int = 100_000) -> None:
        if max_spans_per_trace < 1:
            raise ValueError("max_spans_per_trace must be >= 1, got "
                             f"{max_spans_per_trace}")
        self.max_spans_per_trace = max_spans_per_trace
        self._lock = wrap_lock(threading.Lock(), "tracer")
        self._segments: list[_Segment] = []
        self._seq_by_trace: dict[str, int] = {}
        self._local = threading.local()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextmanager
    def trace(self, trace_id: str,
              clock: SimClock | None = None) -> Iterator[None]:
        """Open a trace segment on the calling thread.

        Nested ``trace`` calls on the same thread are pass-throughs:
        the outermost segment keeps collecting (the facade opens the
        trace; inner layers only open spans).
        """
        if getattr(self._local, "segment", None) is not None:
            yield
            return
        with self._lock:
            note_write("tracer.segments", trace_id)
            seq = self._seq_by_trace.get(trace_id, 0)
            self._seq_by_trace[trace_id] = seq + 1
        segment = _Segment(trace_id, seq, clock)
        self._local.segment = segment
        try:
            yield
        finally:
            self._local.segment = None
            with self._lock:
                note_write("tracer.segments", segment.trace_id)
                self._segments.append(segment)

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span | None]:
        """Record one span under the thread's active trace (or no-op)."""
        if name not in SPAN_NAMES:
            raise ValueError(f"unknown span name: {name!r} "
                             "(see SPAN_NAMES / DESIGN.md §5e)")
        segment: _Segment | None = getattr(self._local, "segment", None)
        if segment is None or \
                len(segment.spans) >= self.max_spans_per_trace:
            yield None
            return
        start = segment.now()
        span = Span(
            name=name,
            trace_id=segment.trace_id,
            span_id=len(segment.spans),
            parent_id=segment.stack[-1] if segment.stack else None,
            start=start,
            duration=0.0,
            attributes=dict(attributes),
        )
        segment.spans.append(span)
        segment.stack.append(span.span_id)
        try:
            yield span
        finally:
            segment.stack.pop()
            span.duration = segment.now() - start

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def finished_spans(self) -> list[Span]:
        """Every span from every closed segment, canonically ordered.

        Segments are sorted by ``(trace_id, entry_seq)`` and each
        trace's segments are concatenated with span/parent ids
        rebased, so the output is independent of which worker thread
        ran which query and of segment *close* order.
        """
        with self._lock:
            segments = sorted(self._segments,
                              key=lambda s: (s.trace_id, s.seq))
        result: list[Span] = []
        offsets: dict[str, int] = {}
        for segment in segments:
            offset = offsets.get(segment.trace_id, 0)
            for span in segment.spans:
                result.append(Span(
                    name=span.name,
                    trace_id=span.trace_id,
                    span_id=span.span_id + offset,
                    parent_id=None if span.parent_id is None
                    else span.parent_id + offset,
                    start=span.start,
                    duration=span.duration,
                    attributes=dict(span.attributes),
                ))
            offsets[segment.trace_id] = offset + len(segment.spans)
        return result

    def to_jsonl(self) -> str:
        """One JSON object per span, canonically ordered and keyed."""
        lines = [
            json.dumps(span.to_dict(), sort_keys=True)
            for span in self.finished_spans()
        ]
        return "\n".join(lines) + "\n" if lines else ""


#: shared no-op context for the tracer-off fast path
_NULL_CONTEXT: AbstractContextManager[None] = nullcontext()


def maybe_trace(
    tracer: Tracer | None, trace_id: str, clock: SimClock | None
) -> AbstractContextManager[None]:
    """``tracer.trace(...)`` when tracing is on, else a no-op context.

    The instrumentation sites call this unconditionally; with
    ``SVQAConfig.trace`` off the tracer is ``None`` and the
    shared null context keeps the off path free of observable effects.
    """
    if tracer is None:
        return _NULL_CONTEXT
    return tracer.trace(trace_id, clock)


def maybe_span(
    tracer: Tracer | None, name: str, **attributes: Any
) -> AbstractContextManager[Span | None]:
    """``tracer.span(...)`` when tracing is on, else a no-op context.

    Yields the live :class:`Span` (so call sites can ``set`` outcome
    attributes like cache hit/miss) or ``None`` on the off path.
    """
    if tracer is None:
        return _NULL_CONTEXT
    return tracer.span(name, **attributes)


def render_trace(spans: list[Span], trace_id: str) -> str:
    """Pretty-print one trace's span tree (the ``repro trace`` view)."""
    selected = [s for s in spans if s.trace_id == trace_id]
    if not selected:
        return f"(no spans recorded for trace {trace_id!r})"
    children: dict[int | None, list[Span]] = {}
    for span in selected:
        children.setdefault(span.parent_id, []).append(span)

    lines: list[str] = []

    def walk(parent: int | None, depth: int) -> None:
        for span in children.get(parent, ()):
            attrs = ", ".join(
                f"{k}={v!r}" for k, v in sorted(span.attributes.items())
            )
            suffix = f"  [{attrs}]" if attrs else ""
            lines.append(
                f"{'  ' * depth}{span.name}  "
                f"{span.duration * 1000:.3f} sim-ms{suffix}"
            )
            walk(span.span_id, depth + 1)

    walk(None, 0)
    return "\n".join(lines)
