"""Acceptance tests for observability threaded through the pipeline.

Two contracts matter most (ISSUE acceptance criteria):

* with ``SVQAConfig.trace=False`` the system behaves
  bit-identically to a pre-observability build — same answers, same
  simulated latencies, same stats report;
* with tracing on, the multiset of ``(name, attributes)`` spans is
  invariant across worker counts, and two same-seed runs export
  byte-identical artifacts.
"""

import pytest

from repro.core import SVQA, SVQAConfig
from repro.dataset.kg import build_commonsense_kg
from repro.synth import SceneGenerator
from tests.observability.helpers import span_multiset

QUESTIONS = [
    "Is there a dog near the fence?",
    "How many dogs are standing on the grass?",
    "Is there a cat sitting on the chair?",
    "How many birds are near the tree?",
]


def build_svqa(trace=False, workers=1, pool=40, seed=31):
    scenes = SceneGenerator(seed=seed).generate_pool(pool)
    config = SVQAConfig(trace=trace, workers=workers,
                        cache_pool_size=10_000)
    system = SVQA(scenes, build_commonsense_kg(), config)
    system.build()
    return system


def run_batch(trace=False, workers=1):
    system = build_svqa(trace=trace, workers=workers)
    answers = system.answer_many(QUESTIONS)
    return system, answers


class TestZeroCostOff:
    def test_off_path_is_bit_identical(self):
        off_sys, off = run_batch(trace=False)
        on_sys, on = run_batch(trace=True)
        assert [a.value for a in off] == [a.value for a in on]
        assert [a.latency for a in off] == [a.latency for a in on]
        assert off_sys.elapsed == on_sys.elapsed
        assert off_sys.execution_report().stats == \
            on_sys.execution_report().stats

    def test_off_path_constructs_no_tracer(self):
        system = build_svqa(trace=False)
        assert system.tracer is None
        assert system.finished_spans() == []
        assert system.spans_jsonl() == ""


class TestTracing:
    def test_answer_records_a_question_trace(self):
        system = build_svqa(trace=True)
        system.answer(QUESTIONS[0])
        spans = system.finished_spans()
        names = {s.name for s in spans}
        assert "question" in names
        assert "query_graph" in names
        assert "parse" in names
        assert "executor.execute" in names
        assert "cache.scope" in names

    def test_build_trace_recorded(self):
        system = build_svqa(trace=True)
        build_spans = [s for s in system.finished_spans()
                       if s.trace_id == "build"]
        names = {s.name for s in build_spans}
        assert "build" in names
        assert "aggregate.merge" in names

    def test_trace_ids_unique_across_calls(self):
        system = build_svqa(trace=True)
        system.answer(QUESTIONS[0])
        system.answer_many(QUESTIONS[:2])
        system.answer(QUESTIONS[1])
        roots = [s for s in system.finished_spans()
                 if s.name == "question" and s.parent_id is None]
        trace_ids = [s.trace_id for s in roots]
        # parse-phase and execute-phase segments share the trace id;
        # count distinct question traces
        assert sorted(set(trace_ids)) == \
            ["q0000", "q0001", "q0002", "q0003"]

    def test_cache_spans_carry_hit_attribute(self):
        system = build_svqa(trace=True)
        system.answer(QUESTIONS[0])
        system.answer(QUESTIONS[0])
        scope = [s for s in system.finished_spans()
                 if s.name == "cache.scope"]
        assert any(s.attributes["hit"] for s in scope)
        assert any(not s.attributes["hit"] for s in scope)

    def test_same_seed_exports_are_byte_identical(self):
        def export():
            system = build_svqa(trace=True)
            system.answer_many(QUESTIONS)
            return system.spans_jsonl()

        assert export() == export()


class TestWorkerInvariance:
    def test_span_multiset_is_worker_count_invariant(self):
        serial, _ = run_batch(trace=True,
                              workers=1)
        parallel, _ = run_batch(trace=True,
                                workers=4)
        assert span_multiset(serial.finished_spans()) == \
            span_multiset(parallel.finished_spans())


class TestMetricsFacade:
    def test_registry_and_report_agree(self):
        system, _ = run_batch(trace=True)
        report = system.execution_report().stats
        registry = system.metrics
        snap = registry.to_json()
        queries = snap["svqa_queries_total"]["series"][0]["value"]
        assert queries == report.queries

    def test_latency_histogram_populated(self):
        system, _ = run_batch()
        snap = system.metrics_snapshot()
        series = snap["svqa_query_latency_seconds"]["series"][0]
        assert series["count"] == len(QUESTIONS)
        assert series["sum"] == pytest.approx(
            sum(system.last_batch.latencies))

    def test_hit_ratio_gauges_refresh_on_snapshot(self):
        system, _ = run_batch()
        report = system.execution_report().stats
        snap = system.metrics_snapshot()
        ratios = {
            s["labels"]["store"]: s["value"]
            for s in snap["svqa_cache_hit_ratio"]["series"]
        }
        assert ratios["scope"] == pytest.approx(report.scope_hit_rate)
        assert ratios["path"] == pytest.approx(report.path_hit_rate)

    def test_exposition_contains_core_families(self):
        system, _ = run_batch()
        text = system.metrics_exposition()
        assert "# TYPE svqa_queries_total counter" in text
        assert "# TYPE svqa_query_latency_seconds histogram" in text
        assert "# TYPE svqa_cache_hit_ratio gauge" in text
