"""Unit tests for the deterministic span tracer."""

import json
import threading

import pytest

from repro.observability.spans import (
    SPAN_NAMES,
    Tracer,
    maybe_span,
    maybe_trace,
    render_trace,
)
from repro.simtime import SimClock
from tests.observability.helpers import span_multiset


def clock_with(cost):
    return SimClock(costs={"op": cost})


class TestSpanRecording:
    def test_nesting_records_parent_ids(self):
        tracer = Tracer()
        with tracer.trace("q0000"):
            with tracer.span("question"):
                with tracer.span("query_graph"):
                    with tracer.span("parse"):
                        pass
        spans = tracer.finished_spans()
        by_name = {s.name: s for s in spans}
        assert by_name["question"].parent_id is None
        assert by_name["query_graph"].parent_id == \
            by_name["question"].span_id
        assert by_name["parse"].parent_id == \
            by_name["query_graph"].span_id

    def test_durations_come_from_the_sim_clock(self):
        tracer = Tracer()
        clock = clock_with(0.5)
        with tracer.trace("q0000", clock):
            with tracer.span("question"):
                clock.charge("op")
        (span,) = tracer.finished_spans()
        assert span.duration == pytest.approx(0.5)
        assert span.start == pytest.approx(0.0)

    def test_starts_are_relative_to_segment_open(self):
        tracer = Tracer()
        clock = clock_with(1.0)
        clock.charge("op")  # pre-trace elapsed must not leak in
        with tracer.trace("q0000", clock):
            clock.charge("op")
            with tracer.span("question"):
                pass
        (span,) = tracer.finished_spans()
        assert span.start == pytest.approx(1.0)

    def test_span_outside_trace_is_noop(self):
        tracer = Tracer()
        with tracer.span("question") as span:
            assert span is None
        assert tracer.finished_spans() == []

    def test_unknown_span_name_rejected(self):
        tracer = Tracer()
        with tracer.trace("q0000"):
            with pytest.raises(ValueError):
                with tracer.span("not-a-stage"):
                    pass

    def test_taxonomy_has_the_documented_stages(self):
        assert {"parse", "spoc", "query_graph", "aggregate.merge",
                "cache.scope", "cache.path", "executor.match",
                "resilience.retry"} <= SPAN_NAMES

    def test_cap_stops_recording_not_execution(self):
        tracer = Tracer(max_spans_per_trace=2)
        with tracer.trace("q0000"):
            for _ in range(5):
                with tracer.span("spoc"):
                    pass
        assert len(tracer.finished_spans()) == 2

    def test_attributes_set_on_live_span(self):
        tracer = Tracer()
        with tracer.trace("q0000"):
            with tracer.span("cache.scope", key="k") as span:
                span.set("hit", True)
        (span,) = tracer.finished_spans()
        assert span.attributes == {"key": "k", "hit": True}

    def test_nested_trace_on_same_thread_is_passthrough(self):
        tracer = Tracer()
        with tracer.trace("q0000"):
            with tracer.trace("q0001"):
                with tracer.span("question"):
                    pass
        spans = tracer.finished_spans()
        assert [s.trace_id for s in spans] == ["q0000"]


class TestConcurrentMerge:
    def test_threads_record_into_private_segments(self):
        tracer = Tracer()

        def work(tid):
            with tracer.trace(tid):
                with tracer.span("question", q=tid):
                    with tracer.span("parse"):
                        pass

        threads = [threading.Thread(target=work, args=(f"q{i:04d}",))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.finished_spans()
        assert len(spans) == 16
        # canonical order: sorted by trace id, independent of join order
        trace_ids = [s.trace_id for s in spans]
        assert trace_ids == sorted(trace_ids)
        for tid in {s.trace_id for s in spans}:
            mine = [s for s in spans if s.trace_id == tid]
            roots = [s for s in mine if s.parent_id is None]
            assert len(roots) == 1

    def test_reentered_trace_segments_concatenate_with_rebase(self):
        tracer = Tracer()
        with tracer.trace("q0000"):
            with tracer.span("question"):
                pass
        with tracer.trace("q0000"):
            with tracer.span("executor.execute"):
                with tracer.span("executor.match"):
                    pass
        spans = tracer.finished_spans()
        assert [s.name for s in spans] == \
            ["question", "executor.execute", "executor.match"]
        ids = [s.span_id for s in spans]
        assert len(set(ids)) == 3  # rebased, no collisions
        assert spans[2].parent_id == spans[1].span_id


class TestExports:
    def test_jsonl_round_trips(self):
        tracer = Tracer()
        with tracer.trace("q0000"):
            with tracer.span("question", q="x"):
                pass
        lines = tracer.to_jsonl().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "question"
        assert record["trace"] == "q0000"
        assert record["attributes"] == {"q": "x"}

    def test_jsonl_is_deterministic(self):
        def build():
            tracer = Tracer()
            clock = clock_with(0.25)
            with tracer.trace("q0000", clock):
                with tracer.span("question"):
                    clock.charge("op")
            return tracer.to_jsonl()

        assert build() == build()

    def test_span_multiset_ignores_timing_and_trace(self):
        a = Tracer()
        with a.trace("q0000", clock_with(1.0)) :
            with a.span("cache.scope", key="k") as span:
                span.set("hit", False)
        b = Tracer()
        with b.trace("q0007"):
            with b.span("cache.scope", key="k") as span:
                span.set("hit", False)
        assert span_multiset(a.finished_spans()) == \
            span_multiset(b.finished_spans())

    def test_render_trace_shows_tree(self):
        tracer = Tracer()
        with tracer.trace("q0000"):
            with tracer.span("question"):
                with tracer.span("parse"):
                    pass
        text = render_trace(tracer.finished_spans(), "q0000")
        lines = text.splitlines()
        assert lines[0].startswith("question")
        assert lines[1].startswith("  parse")

    def test_render_trace_empty(self):
        assert "no spans" in render_trace([], "q0000")


class TestNullHelpers:
    def test_maybe_helpers_are_noops_without_tracer(self):
        with maybe_trace(None, "q0000", None):
            with maybe_span(None, "question") as span:
                assert span is None

    def test_maybe_helpers_record_with_tracer(self):
        tracer = Tracer()
        with maybe_trace(tracer, "q0000", None):
            with maybe_span(tracer, "question") as span:
                assert span is not None
        assert len(tracer.finished_spans()) == 1
