"""Tests for cost-based multi-query plan sharing (DESIGN.md §5j).

Plan sharing is the only batch path, so its equivalence suite is
differential: answers must equal the unplanned, uncached oracle of
:mod:`tests.core.oracles`.
"""

import pytest

from repro.core import (
    QueryGraphExecutor,
    SVQA,
    SVQAConfig,
    build_forest,
    build_plans,
    canonicalize,
    generate_query_graph,
    plan_order,
)
from repro.core.cache import KeyCentricCache
from repro.dataset.kg import build_commonsense_kg
from repro.graph.observe import Reads
from repro.synth import SceneGenerator
from tests.core.oracles import unplanned_answers
from tests.core.test_executor import make_merged
from tests.core.test_scope_oracle import mvqa_dataset  # noqa: F401

QUESTIONS = [
    "How many dogs are standing on the grass?",
    "Is there a fence near the grass?",
    "What kind of animals is carried by the pets that are standing "
    "on the grass?",
    "Is there a cat near the grass?",
    "How many dogs are standing on the grass?",
    "Is there a dog near the fence?",
]


def parse_all(questions=QUESTIONS):
    return [generate_query_graph(q) for q in questions]


def build_system(**config):
    scenes = SceneGenerator(seed=31).generate_pool(40)
    system = SVQA(scenes, build_commonsense_kg(), SVQAConfig(**config))
    system.build()
    return system


@pytest.fixture(scope="module")
def svqa_on():
    return build_system(trace=True)


def answer_dicts(system, workers=1):
    return [a.to_dict() for a in system.answer_many(QUESTIONS,
                                                    workers=workers)]


class TestCanonicalization:
    def test_same_input_same_forest_signature(self):
        first = build_forest(build_plans(parse_all()))
        second = build_forest(build_plans(parse_all()))
        assert first.signature() == second.signature()

    def test_repeated_questions_share_nodes(self):
        forest = build_forest(build_plans(parse_all()))
        assert forest.shared, "repeated questions must share sub-plans"
        scopes = forest.shared_by_kind("scope")
        assert ("scope", "grass") in [node.node.key for node in scopes]
        for shared in forest.shared.values():
            assert shared.uses >= 2

    def test_dynamic_slots_are_not_shared(self):
        graph = generate_query_graph(
            "What kind of animals is carried by the pets that are "
            "standing on the grass?"
        )
        plan = canonicalize(graph)
        # a dependency-fed slot's key depends on runtime bindings, so
        # it gets no scope node: fewer scope nodes than filled slots
        slots = sum(spoc.slot(slot) is not None
                    for spoc in graph.vertices
                    for slot in ("subject", "object"))
        scopes = [node for node in plan.nodes if node.kind == "scope"]
        assert len(graph.edges) > 0
        assert len(scopes) < slots

    def test_plan_order_is_permutation(self):
        plans = build_plans(parse_all())
        forest = build_forest(plans)
        order = plan_order(plans, forest)
        assert sorted(order) == list(range(len(plans)))

    def test_kinds_limit_what_is_shared(self):
        plans = build_plans(parse_all())
        everything = build_forest(plans)
        assert everything.shared_counts()["scope"] > 0
        assert everything.shared_counts()["neighborhood"] > 0
        scopes = build_forest(plans, kinds=("scope",))
        assert scopes.shared_counts()["neighborhood"] == 0
        assert scopes.shared_counts()["scope"] == \
            everything.shared_counts()["scope"]
        assert not build_forest(plans, kinds=()).shared


def strip_latency(dicts):
    """Drop ``meta.latency``: sharing lowers per-query charges by
    design, while everything else must be byte-identical."""
    for payload in dicts:
        payload["meta"].pop("latency")
    return dicts


class TestPlannerEquivalence:
    def test_planner_on_matches_planner_off(self, svqa_on):
        """The planned batch answers exactly like the unplanned,
        uncached oracle, at any worker count."""
        oracle = strip_latency([a.to_dict() for a in
                                unplanned_answers(svqa_on, QUESTIONS)])
        for workers in (1, 4):
            assert strip_latency(answer_dicts(svqa_on, workers)) == \
                oracle, workers

    def test_worker_count_does_not_change_answers(self, svqa_on):
        assert answer_dicts(svqa_on, workers=1) == \
            answer_dicts(svqa_on, workers=4)

    def test_planned_batch_is_recorded(self, svqa_on):
        svqa_on.answer_many(QUESTIONS)
        plan = svqa_on.last_plan
        assert plan is not None
        assert sorted(plan.order) == list(range(len(QUESTIONS)))
        assert plan.forest.fanout_uses() > 0
        assert plan.share.charged_seconds > 0

    def test_planner_emits_plan_metrics(self, svqa_on):
        svqa_on.answer_many(QUESTIONS)
        snapshot = svqa_on.metrics_snapshot()
        assert "svqa_plan_batches_total" in snapshot
        assert "svqa_plan_shared_nodes_total" in snapshot
        names = [span.name for span in svqa_on.finished_spans()]
        assert "planner.share" in names


class TestSchedulerAblation:
    """``enable_scheduler=False`` must keep the input order — it used
    to be ignored whenever the planner ran — and still share."""

    def test_scheduler_off_keeps_input_order_and_shares(self, svqa_on):
        answers_on = strip_latency(answer_dicts(svqa_on))
        planned = svqa_on.last_plan
        identity = list(range(len(QUESTIONS)))
        # precondition: the scheduler does reorder this batch
        assert planned is not None and planned.order != identity
        off = build_system(enable_scheduler=False)
        assert strip_latency(answer_dicts(off)) == answers_on
        plan = off.last_plan
        assert plan is not None
        assert plan.order == identity
        assert plan.share.shared_scopes > 0
        assert plan.share.shared_neighborhoods > 0


class TestCacheOffAblation:
    """With both caches off there is no cross-query reuse: no shared
    result may be served that the stores would not keep."""

    def test_cache_off_charges_equal_unplanned_oracle(self):
        config = dict(enable_scope_cache=False, enable_path_cache=False)
        planned = build_system(**config)
        oracle = build_system(**config)
        answers = planned.answer_many(QUESTIONS)
        expected = unplanned_answers(oracle, QUESTIONS)
        assert strip_latency([a.to_dict() for a in answers]) == \
            strip_latency([a.to_dict() for a in expected])
        assert planned.last_plan is not None
        assert not planned.last_plan.forest.shared
        # the score memo's fresh + probe counts do not depend on the
        # order the questions ran in, so every count must agree
        assert dict(planned.clock.counts) == dict(oracle.clock.counts)
        assert planned.execution_report().stats.plan_neighborhood_fills == 0

    def test_one_cache_off_shares_only_the_other_kind(self):
        scope_only = build_system(enable_path_cache=False)
        scope_only.answer_many(QUESTIONS)
        plan = scope_only.last_plan
        assert plan is not None
        assert plan.share.shared_scopes > 0
        assert plan.share.shared_neighborhoods == 0
        path_only = build_system(enable_scope_cache=False)
        path_only.answer_many(QUESTIONS)
        plan = path_only.last_plan
        assert plan is not None
        assert plan.share.shared_scopes == 0
        assert plan.share.shared_neighborhoods > 0




class TestHeldNeighborhood:
    """A shared neighborhood is a cache entry: served while it holds,
    retired by the writes that touch what it read, never used for
    endpoints other than those it was computed from."""

    QUESTION = "Is there a fence near the grass?"
    KEY = ("nbr", "out", "fence")

    def baseline_value(self):
        executor = QueryGraphExecutor(make_merged())
        return executor.execute(generate_query_graph(self.QUESTION)).value

    def poisoned_executor(self, source_ids=None):
        # an empty neighborhood for the subject: if the executor serves
        # it no relation pair survives and the judgment flips to "no",
        # so a wrong use is a visibly wrong answer
        merged = make_merged()
        executor = QueryGraphExecutor(merged, cache=KeyCentricCache.create())
        ids = tuple(v.id for v in executor.match_vertex_label("fence"))
        if source_ids is not None:
            ids = source_ids(ids)
        executor.cache.put_nbr(self.KEY, (ids, []), (Reads(out_of=ids),),
                               executor.cache.stamp())
        assert executor.cache.get_nbr(self.KEY) is not None
        return executor

    def test_poisoned_entry_is_served_when_source_ids_match(self):
        executor = self.poisoned_executor()
        answer = executor.execute(generate_query_graph(self.QUESTION))
        # positive control: the poison IS served, proving the guard
        # below is what protects
        assert answer.value != self.baseline_value()

    def test_entry_for_other_source_ids_is_never_used(self):
        for change in (lambda ids: ids[:-1], lambda ids: (*ids, 10**6),
                       lambda ids: ids[::-1]):
            executor = self.poisoned_executor(change)
            answer = executor.execute(generate_query_graph(self.QUESTION))
            assert answer.value == self.baseline_value()

    def test_out_edge_write_retires_the_entry_and_is_rescanned(self):
        system = build_system()
        system.answer_many(QUESTIONS)
        cache = system._cache
        key = ("nbr", "out", "dog")
        source_ids, _ = cache.get_nbr(key)
        graph = system.merged.graph
        fence = graph.find_vertices("fence")[0]
        edge = graph.add_edge(source_ids[0], fence.id, "near")
        assert cache.get_nbr(key) is None
        before = dict(system.clock.counts)
        question = "Is there a dog near the fence?"
        answers = system.answer_many([question])
        delta = {name: count - before.get(name, 0)
                 for name, count in system.clock.counts.items()}
        assert delta.get("edge_scan", 0) > 0
        assert delta.get("pair_filter", 0) == 0
        pairs, _ = cache.path._values[
            ("path", ("dog", ""), ("fence", ""))]
        assert edge.id in [pair.edge.id for pair in pairs.pairs]
        expected = unplanned_answers(system, [question])
        assert strip_latency([a.to_dict() for a in answers]) == \
            strip_latency([a.to_dict() for a in expected])

    def test_one_question_batch_derives_from_a_warm_batch(
            self, mvqa_dataset):
        system = SVQA(mvqa_dataset.scenes, mvqa_dataset.kg,
                      SVQAConfig(workers=1))
        system.build()
        system.answer_many([q.text for q in mvqa_dataset.questions])
        question = "Is there a dog near the grass?"
        assert system._cache.get_nbr(("nbr", "out", "dog")) is not None
        before = dict(system.clock.counts)
        fills = system.stats.snapshot().plan_neighborhood_fills
        answers = system.answer_many([question])
        delta = {name: count - before.get(name, 0)
                 for name, count in system.clock.counts.items()}
        assert delta.get("pair_filter", 0) > 0
        assert delta.get("edge_scan", 0) == 0
        assert system.stats.snapshot().plan_neighborhood_fills == fills + 1
        expected = unplanned_answers(system, [question])
        assert strip_latency([a.to_dict() for a in answers]) == \
            strip_latency([a.to_dict() for a in expected])
