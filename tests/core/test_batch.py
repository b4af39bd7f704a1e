"""Tests for the concurrent batch-execution engine."""

import pytest

from repro.core import (
    BatchExecutor,
    ExecutorStats,
    KeyCentricCache,
    generate_query_graph,
)
from repro.simtime import SimClock
from tests.core.test_executor import make_merged

QUESTIONS = [
    "How many dogs are standing on the grass?",
    "Is there a fence near the grass?",
    "What kind of animals is carried by the pets that are standing "
    "on the grass?",
    "Is there a cat near the grass?",
    "How many dogs are standing on the grass?",
    "Is there a fence near the grass?",
]


def parse_all(questions=QUESTIONS):
    return [generate_query_graph(q) for q in questions]


class TestSerialFallback:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            BatchExecutor(make_merged(), workers=0)

    def test_single_worker_single_shard(self):
        batch = BatchExecutor(make_merged(), workers=1)
        result = batch.run(parse_all())
        assert result.workers == 1
        assert len(result.shards) == 1
        assert result.simulated_total == \
            pytest.approx(result.simulated_makespan)

    def test_none_graphs_answer_unknown_in_order(self):
        graphs = parse_all()
        graphs[2] = None
        result = BatchExecutor(make_merged(), workers=1).run(graphs)
        assert len(result.answers) == len(graphs)
        assert result.answers[2].value == "unknown"
        assert result.latencies[2] == 0.0


class TestConcurrentExecution:
    def test_parallel_answers_match_serial(self):
        merged = make_merged()
        graphs = parse_all()
        serial = BatchExecutor(
            merged, cache=KeyCentricCache.create(pool_size=50),
            workers=1,
        ).run(graphs)
        parallel = BatchExecutor(
            merged, cache=KeyCentricCache.create(pool_size=50),
            workers=4,
        ).run(graphs)
        assert [a.value for a in serial.answers] == \
            [a.value for a in parallel.answers]
        assert [a.question_type for a in serial.answers] == \
            [a.question_type for a in parallel.answers]

    def test_result_invariants(self):
        result = BatchExecutor(
            make_merged(), cache=KeyCentricCache.create(pool_size=50),
            workers=4,
        ).run(parse_all())
        assert 1 <= len(result.shards) <= 4
        assert result.simulated_total == \
            pytest.approx(sum(result.shard_elapsed))
        assert result.simulated_makespan == \
            pytest.approx(max(result.shard_elapsed))
        assert result.simulated_makespan <= result.simulated_total
        assert result.simulated_makespan >= max(result.latencies)
        assert result.wall_clock >= 0.0
        assert result.speedup >= 1.0

    def test_submission_order_does_not_change_output_order(self):
        graphs = parse_all()
        order = list(reversed(range(len(graphs))))
        result = BatchExecutor(make_merged(), workers=3).run(
            graphs, order=order
        )
        counting = [a.value for a in result.answers]
        assert counting[0] == "2"   # first question, first slot

    def test_shards_merge_into_aggregate_clock(self):
        result = BatchExecutor(
            make_merged(), workers=2
        ).run(parse_all())
        aggregate = SimClock()
        result.merge_into(aggregate)
        assert aggregate.elapsed == pytest.approx(result.simulated_total)
        assert sum(aggregate.counts.values()) == \
            sum(sum(s.counts.values()) for s in result.shards)

    def test_stats_collected_across_workers(self):
        stats = ExecutorStats()
        BatchExecutor(
            make_merged(), cache=KeyCentricCache.create(pool_size=50),
            workers=4, stats=stats,
        ).run(parse_all())
        report = stats.snapshot()
        assert report.queries == len(QUESTIONS)
        assert report.vertices >= report.queries
        vertex_histogram = stats.registry.to_json()["svqa_query_vertices"]
        assert sum(series["count"]
                   for series in vertex_histogram["series"]) == \
            report.queries
        assert report.scope_hits + report.scope_misses > 0


class TestMVQAEquivalence:
    """Acceptance: workers=4 answers identical (type + value) to the
    serial path on the MVQA question set."""

    @pytest.fixture(scope="class")
    def mvqa(self):
        from repro.dataset.mvqa import build_mvqa

        return build_mvqa(seed=5, pool_size=1_200, image_count=400)

    def test_answer_many_workers_equivalence(self, mvqa):
        from repro.core import SVQA

        questions = [q.text for q in mvqa.questions]
        serial = SVQA(mvqa.scenes, mvqa.kg)
        serial.build()
        serial_answers = serial.answer_many(questions, workers=1)

        parallel = SVQA(mvqa.scenes, mvqa.kg)
        parallel.build()
        parallel_answers = parallel.answer_many(questions, workers=4)

        assert [a.value for a in serial_answers] == \
            [a.value for a in parallel_answers]
        assert [a.question_type for a in serial_answers] == \
            [a.question_type for a in parallel_answers]
        batch = parallel.last_batch
        assert batch.workers == 4
        assert batch.simulated_makespan <= batch.simulated_total


class TestPerSlotDeadlines:
    """Satellite: a mid-batch deadline kill must not shift slots."""

    MULTI = ("What kind of animals is carried by the pets that are "
             "standing on the grass?")

    def run_batch(self, workers, deadlines):
        questions = [
            "Is there a fence near the grass?",
            self.MULTI,
            "How many dogs are standing on the grass?",
        ]
        graphs = [generate_query_graph(q) for q in questions]
        return BatchExecutor(make_merged(), workers=workers).run(
            graphs, deadlines=deadlines)

    def test_mid_batch_kill_keeps_slots_aligned(self):
        result = self.run_batch(workers=1, deadlines=[None, 1e-6, None])
        assert len(result.answers) == 3
        killed = result.answers[1]
        assert killed.value == "unknown"
        assert killed.degraded
        # the neighbours are exactly what an unbudgeted run produces
        free = self.run_batch(workers=1, deadlines=None)
        assert result.answers[0].value == free.answers[0].value
        assert result.answers[2].value == free.answers[2].value
        assert not free.answers[1].degraded

    def test_workers_1_and_4_agree_on_kills(self):
        deadlines = [None, 1e-6, None]
        serial = self.run_batch(workers=1, deadlines=deadlines)
        parallel = self.run_batch(workers=4, deadlines=deadlines)
        assert [a.value for a in serial.answers] == \
            [a.value for a in parallel.answers]
        assert [a.degraded for a in serial.answers] == \
            [a.degraded for a in parallel.answers]

    def test_deadline_list_must_match_batch_length(self):
        graphs = parse_all()
        with pytest.raises(ValueError):
            BatchExecutor(make_merged(), workers=1).run(
                graphs, deadlines=[None])
