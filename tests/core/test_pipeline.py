"""Integration tests for the SVQA facade."""

import pytest

from repro.core import (
    SVQA,
    QueryGraphExecutor,
    SVQAConfig,
    estimate_parallel_latency,
)
from repro.dataset.kg import build_commonsense_kg
from repro.dataset.mvqa import build_mvqa
from repro.errors import ExecutionError, QueryError
from repro.resilience.degrade import KEYWORD_FALLBACK_CONFIDENCE
from repro.synth import SceneGenerator
from repro.vision import (
    MODELS,
    DetectorConfig,
    RelationPredictor,
    SGGConfig,
    SGGPipeline,
    SimulatedDetector,
)
from tests.core.oracles import unplanned_answers
from tests.core.test_cache import held_items


@pytest.fixture(scope="module")
def svqa():
    scenes = SceneGenerator(seed=31).generate_pool(50)
    system = SVQA(scenes, build_commonsense_kg())
    system.build()
    return system


class TestBuild:
    def test_answer_before_build_raises(self):
        system = SVQA([], build_commonsense_kg())
        with pytest.raises(QueryError):
            system.answer("Is there a dog near the fence?")

    def test_unknown_relation_model_raises(self):
        scenes = SceneGenerator(seed=1).generate_pool(3)
        system = SVQA(scenes, build_commonsense_kg(),
                      SVQAConfig(relation_model="gpt-7"))
        with pytest.raises(QueryError):
            system.build()

    def test_corpusless_build_raises(self):
        # a warm-start system has no corpus; building it must fail
        # loudly instead of merging an empty graph
        scenes = SceneGenerator(seed=1).generate_pool(3)
        for system in (SVQA(config=SVQAConfig()), SVQA(scenes)):
            with pytest.raises(QueryError, match="corpus"):
                system.build()
            assert system.merged is None

    def test_build_returns_merged_graph(self, svqa):
        assert svqa.merged is not None
        assert svqa.merged.graph.vertex_count > 0

    def test_sgg_config_is_the_tde_switch(self):
        # Table V's ablation: SGGConfig.use_tde alone picks the path
        scenes = SceneGenerator(seed=5).generate_pool(12)
        original = SVQA(scenes, build_commonsense_kg(),
                        SVQAConfig(sgg=SGGConfig(use_tde=False)))
        original.build()
        tde = SVQA(scenes, build_commonsense_kg())
        tde.build()
        expected = SGGPipeline(
            SimulatedDetector(DetectorConfig()),
            RelationPredictor(MODELS["neural-motifs"]),
            SGGConfig(use_tde=False),
        ).run_many(scenes)

        def edges(results):
            return [(r.image_id, r.relations, r.ranked_triples)
                    for r in results]

        assert edges(original.scene_graphs) == edges(expected)
        assert edges(tde.scene_graphs) != edges(expected)


class TestAnswering:
    def test_answer_has_latency(self, svqa):
        answer = svqa.answer("Is there a dog near the fence?")
        assert answer.latency is not None
        assert answer.latency > 0

    def test_answer_many_preserves_order(self, svqa):
        questions = [
            "Is there a dog near the fence?",
            "How many dogs are standing on the grass?",
        ]
        answers = svqa.answer_many(questions)
        assert len(answers) == 2
        assert answers[1].value.isdigit()

    def test_answer_matches_unplanned_oracle(self):
        """``answer()`` is a one-question ``answer_many``: asked one
        question per call over the fast MVQA suite (a warm session,
        salvaged questions included), it gives the answers of the
        unplanned, uncached oracle."""
        dataset = build_mvqa(seed=5, pool_size=1_200, image_count=400)
        questions = [q.text for q in dataset.questions]
        system = SVQA(dataset.scenes, dataset.kg)
        system.build()
        got = [system.answer(question) for question in questions]
        assert sum(answer.degraded for answer in got) == 3
        assert [a.value for a in got] == \
            [a.value for a in unplanned_answers(system, questions)]

    def test_executor_crash_is_salvaged_with_the_parsed_type(
            self, svqa, monkeypatch):
        # the surface text reads as a reasoning question; the slot
        # keeps the type of the query graph that was executed
        question = "What is the number of dogs on the grass?"
        parsed = svqa.parse_question(question).question_type

        def crash(self, graph, deadline_limit=None):
            raise ExecutionError("injected crash")

        monkeypatch.setattr(QueryGraphExecutor, "execute", crash)
        answer = svqa.answer(question)
        assert (answer.value, answer.degraded) == ("unknown", True)
        assert answer.question_type is parsed
        assert [(e.site, e.kind) for e in answer.fault_events] == \
            [("executor.execute", "error")]
        assert answer.latency == 0.0

    def test_unparseable_question_degrades_gracefully(self, svqa):
        # the grammar rejects "canis"; the keyword-match fallback
        # answers instead, capped and attributed, as /ask does
        answers = svqa.answer_many([
            "Does the kind of canis that is sitting on the bed appear "
            "in front of the vehicle?",
        ])
        answer = answers[0]
        assert answer.degraded
        assert answer.confidence <= KEYWORD_FALLBACK_CONFIDENCE
        assert [(e.site, e.kind) for e in answer.fault_events] == \
            [("parse.question", "error"), ("parse.question", "degraded")]

    def test_clock_accumulates(self, svqa):
        before = svqa.elapsed
        svqa.answer("Is there a cat near the sofa?")
        assert svqa.elapsed > before

    def test_cache_report(self, svqa):
        svqa.answer("Is there a dog near the fence?")
        svqa.answer("Is there a dog near the fence?")
        report = svqa.cache_report()
        assert report.scope_hits > 0


class TestStaleRetirementAcrossBatches:
    """Every ``answer_many`` batch builds fresh executors; a graph
    mutation between batches must still retire the entries the
    earlier batch cached that it can change, and only those."""

    QUESTIONS = [
        "Is there a dog near the fence?",
        "How many dogs are standing on the grass?",
        "What is the man holding?",
    ]

    def test_next_batch_retires_stale_entries(self):
        scenes = SceneGenerator(seed=31).generate_pool(30)
        system = SVQA(scenes, build_commonsense_kg())
        system.build()
        before = [a.value for a in system.answer_many(self.QUESTIONS)]
        assert system.stats.snapshot().stale_scope_drops == 0
        assert system.cache_report().scope_misses > 0
        # an isolated vertex with a label no question matches moves
        # the epoch without touching any entry
        held = held_items(system._cache)
        system.merged.graph.add_vertex("zeppelin")
        assert system.stats.snapshot().stale_scope_drops == 0
        assert held_items(system._cache) == held
        misses = system.cache_report().scope_misses
        assert [a.value for a in system.answer_many(self.QUESTIONS)] \
            == before
        assert system.cache_report().scope_misses == misses
        # another dog joins what "dogs" resolves to, but carries no
        # relation: every entry still holds
        graph = system.merged.graph
        graph.add_vertex("dog")
        assert [a.value for a in system.answer_many(self.QUESTIONS)] \
            == before
        assert system.stats.snapshot().stale_scope_drops == 0
        # the dog that joined stands on the grass: the path entry's
        # endpoints moved earlier, and this edge changes its pairs
        grass = graph.find_vertices("grass")[0]
        graph.add_edge(graph.find_vertices("dog")[-1].id, grass.id,
                       "standing on")
        after = [a.value for a in system.answer_many(self.QUESTIONS)]
        assert system.stats.snapshot().stale_scope_drops > 0
        # ("What is the man holding?" does not parse: "unknown")
        assert after[:2] == [a.value for a in
                             unplanned_answers(system, self.QUESTIONS[:2])]
        # the write is retired once, not per batch
        drops = system.stats.snapshot().stale_scope_drops
        system.answer_many(self.QUESTIONS)
        assert system.stats.snapshot().stale_scope_drops == drops


    def test_edges_at_joined_endpoints_reach_the_answer(self):
        """An endpoint that joined with no relation is accepted on
        read; a later edge at it must still change the answer, from
        a joined subject and into a joined object alike."""
        scenes = SceneGenerator(seed=31).generate_pool(30)
        system = SVQA(scenes, build_commonsense_kg())
        system.build()
        graph = system.merged.graph
        questions = self.QUESTIONS[:2]

        def assert_fresh():
            assert [a.value for a in system.answer_many(questions)] == \
                [a.value for a in unplanned_answers(system, questions)]

        assert_fresh()
        grass = graph.find_vertices("grass")[0]
        dog = graph.add_vertex("dog")
        assert_fresh()
        graph.add_edge(dog.id, grass.id, "standing on")
        assert_fresh()
        more_grass = graph.add_vertex("grass")
        assert_fresh()
        for other in graph.find_vertices("dog")[:2]:
            graph.add_edge(other.id, more_grass.id, "standing on")
            assert_fresh()


class TestSchedulerIntegration:
    def test_scheduler_off_still_answers(self):
        scenes = SceneGenerator(seed=32).generate_pool(20)
        system = SVQA(scenes, build_commonsense_kg(),
                      SVQAConfig(enable_scheduler=False))
        system.build()
        answers = system.answer_many([
            "Is there a dog near the fence?",
            "Is there a dog near the fence?",
        ])
        assert answers[0].value == answers[1].value


class TestConcurrentAnswerMany:
    QUESTIONS = [
        "Is there a dog near the fence?",
        "How many dogs are standing on the grass?",
        "Is there a cat near the sofa?",
        "Is there a dog near the fence?",
    ]

    def test_workers_param_matches_serial(self, svqa):
        serial = svqa.answer_many(self.QUESTIONS, workers=1)
        parallel = svqa.answer_many(self.QUESTIONS, workers=4)
        assert [a.value for a in serial] == [a.value for a in parallel]
        assert [a.question_type for a in serial] == \
            [a.question_type for a in parallel]

    def test_workers_from_config(self):
        from repro.synth import SceneGenerator

        scenes = SceneGenerator(seed=33).generate_pool(20)
        system = SVQA(scenes, build_commonsense_kg(),
                      SVQAConfig(workers=3))
        system.build()
        system.answer_many(self.QUESTIONS)
        assert system.last_batch.workers == 3

    def test_last_batch_and_execution_report(self, svqa):
        svqa.answer_many(self.QUESTIONS, workers=2)
        batch = svqa.last_batch
        assert batch is not None
        assert len(batch.answers) == len(self.QUESTIONS)
        assert batch.simulated_makespan <= batch.simulated_total
        report = svqa.execution_report()
        assert report.stats.queries > 0
        assert report.cache.scope_hits >= 0
        assert report.last_batch is batch

    def test_shards_fold_into_system_clock(self, svqa):
        before = svqa.elapsed
        svqa.answer_many(self.QUESTIONS, workers=2)
        assert svqa.elapsed >= \
            before + svqa.last_batch.simulated_total

    def test_invalid_workers_raises(self, svqa):
        with pytest.raises(ValueError):
            svqa.answer_many(self.QUESTIONS, workers=0)


class TestParallelEstimate:
    def test_single_worker_is_sum(self):
        assert estimate_parallel_latency([1.0, 2.0, 3.0], 1) == 6.0

    def test_many_workers_is_max(self):
        assert estimate_parallel_latency([1.0, 2.0, 3.0], 3) == 3.0

    def test_packing(self):
        # longest-first: [5] vs [3, 2] -> makespan 5
        assert estimate_parallel_latency([5.0, 3.0, 2.0], 2) == 5.0

    def test_empty(self):
        assert estimate_parallel_latency([], 4) == 0.0

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            estimate_parallel_latency([1.0], 0)
