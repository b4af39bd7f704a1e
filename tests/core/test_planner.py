"""Tests for cost-based multi-query plan sharing (DESIGN.md §5j).

Plan sharing is the only batch path, so its equivalence suite is
differential: answers must equal the unplanned, uncached oracle of
:mod:`tests.core.oracles`.
"""

import pytest

from repro.core import (
    ObservabilityConfig,
    PlanOverlay,
    QueryGraphExecutor,
    SVQA,
    SVQAConfig,
    build_forest,
    build_plans,
    canonicalize,
    generate_query_graph,
    plan_order,
)
from repro.core.executor import ScopeEntry
from repro.dataset.kg import build_commonsense_kg
from repro.synth import SceneGenerator
from tests.core.oracles import unplanned_answers
from tests.core.test_executor import make_merged

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
    return build_system(observability=ObservabilityConfig())


def answer_dicts(system, workers=1):
    return [a.to_dict() for a in system.answer_many(QUESTIONS,
                                                    workers=workers)]


class TestCanonicalization:
    def test_same_input_same_forest_signature(self):
        epoch = 17
        first = build_forest(build_plans(parse_all(), epoch), epoch)
        second = build_forest(build_plans(parse_all(), epoch), epoch)
        assert first.signature() == second.signature()

    def test_repeated_questions_share_nodes(self):
        epoch = 3
        forest = build_forest(build_plans(parse_all(), epoch), epoch)
        assert forest.shared, "repeated questions must share sub-plans"
        scopes = forest.shared_by_kind("scope")
        assert any(node.node.key[2] == "grass" for node in scopes)
        for shared in forest.shared.values():
            assert shared.uses >= 2
            assert shared.node.key[1] == epoch

    def test_share_threshold_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_forest([], epoch=0, threshold=1)

    def test_dynamic_slots_are_not_shared(self):
        graph = generate_query_graph(
            "What kind of animals is carried by the pets that are "
            "standing on the grass?"
        )
        plan = canonicalize(graph, epoch=5)
        # a dependency-fed slot's key depends on runtime bindings, so
        # it gets no scope node: fewer scope nodes than filled slots
        slots = sum(spoc.slot(slot) is not None
                    for spoc in graph.vertices
                    for slot in ("subject", "object"))
        scopes = [node for node in plan.nodes if node.kind == "scope"]
        assert len(graph.edges) > 0
        assert len(scopes) < slots
        for node in plan.nodes:
            assert node.key[1] == 5

    def test_plan_order_is_permutation(self):
        epoch = 9
        plans = build_plans(parse_all(), epoch)
        forest = build_forest(plans, epoch)
        order = plan_order(plans, forest)
        assert sorted(order) == list(range(len(plans)))

    def test_kinds_limit_what_is_shared(self):
        epoch = 4
        plans = build_plans(parse_all(), epoch)
        everything = build_forest(plans, epoch)
        assert everything.shared_counts()["scope"] > 0
        assert everything.shared_counts()["neighborhood"] > 0
        scopes = build_forest(plans, epoch, kinds=("scope",))
        assert scopes.shared_counts()["neighborhood"] == 0
        assert scopes.shared_counts()["scope"] == \
            everything.shared_counts()["scope"]
        assert not build_forest(plans, epoch, kinds=()).shared


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
    """With both caches off there is no cross-query reuse: the plan
    overlay must not serve anything the stores would not."""

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
        assert planned.execution_report().stats.plan_overlay_fills == 0

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


class TestEpochSafety:
    """A mid-batch epoch bump must make shared results unreachable."""

    QUESTION = "Is there a fence near the grass?"

    def baseline_value(self):
        executor = QueryGraphExecutor(make_merged())
        return executor.execute(generate_query_graph(self.QUESTION)).value

    def poisoned_overlay(self, epoch):
        # empty scopes for both endpoints: if the executor ever serves
        # these entries no relation pair survives and the judgment
        # flips to "no", so a leak is a visibly wrong answer
        overlay = PlanOverlay(epoch=epoch)
        for label in ("fence", "grass"):
            overlay.put_scope(("scope", epoch, label),
                              ScopeEntry([], 0, 0, (), 0, epoch))
        overlay.freeze()
        return overlay

    def test_overlay_is_consulted_at_matching_epoch(self):
        merged = make_merged()
        overlay = self.poisoned_overlay(merged.graph.epoch)
        executor = QueryGraphExecutor(merged, plan_overlay=overlay)
        answer = executor.execute(generate_query_graph(self.QUESTION))
        # positive control: the poison IS served while epochs match,
        # proving the guard below is what protects after the bump
        assert answer.value != self.baseline_value()

    def test_epoch_bump_makes_overlay_unreachable(self):
        merged = make_merged()
        overlay = self.poisoned_overlay(merged.graph.epoch)
        merged.graph.add_vertex("marker", {"kind": "concept"})
        assert merged.graph.epoch > overlay.epoch
        executor = QueryGraphExecutor(merged, plan_overlay=overlay)
        answer = executor.execute(generate_query_graph(self.QUESTION))
        assert answer.value == self.baseline_value()

    def test_frozen_overlay_rejects_writes(self):
        overlay = PlanOverlay(epoch=0)
        overlay.freeze()
        with pytest.raises(RuntimeError):
            overlay.put_scope(("scope", 0, "fence"),
                              ScopeEntry([], 0, 0, (), 0, 0))
