"""Unit tests for the baseline simulations (VQA models + splitters)."""

import pytest

from repro.baselines import (
    ABCD_BILINEAR,
    ABCD_MLP,
    BaselineSplitter,
    BaselineVQA,
    DISSIM,
    LinguisticSplitter,
    OFA,
    VILT,
    VISUALBERT,
)
from repro.core.spoc import QuestionType
from repro.simtime import SimClock
from repro.synth import SceneGenerator


@pytest.fixture(scope="module")
def scenes():
    return SceneGenerator(seed=41).generate_pool(40)


class TestBaselineVQA:
    def test_answers_deterministic(self, scenes):
        question = "Is there a dog near the fence?"
        a = BaselineVQA(VISUALBERT, scenes).answer(question)
        b = BaselineVQA(VISUALBERT, scenes).answer(question)
        assert a.value == b.value

    def test_latency_model(self, scenes):
        model = BaselineVQA(VISUALBERT, scenes)
        model.answer("Is there a dog near the fence?")
        first = model.clock.elapsed
        model.answer("Is there a cat near the sofa?")
        second = model.clock.elapsed - first
        # the load cost is paid exactly once
        assert first > second
        assert first - second == pytest.approx(VISUALBERT.load_seconds)

    def test_per_clause_forward_cost(self, scenes):
        model = BaselineVQA(OFA, scenes)
        model.answer("Is there a dog near the fence?")  # 2 clauses
        cost_two = model.clock.counts.get("vqa_forward", 0)
        assert cost_two >= 1

    def test_unparseable_question(self, scenes):
        model = BaselineVQA(OFA, scenes)
        answer = model.answer(
            "Does the kind of canis that is sitting on the bed appear "
            "in front of the vehicle?"
        )
        assert answer.value == "unknown"

    def test_answer_many_length(self, scenes):
        model = BaselineVQA(OFA, scenes)
        answers = model.answer_many(["Is there a dog near the fence?"] * 3)
        assert len(answers) == 3

    def test_reliability_lookup(self):
        assert VISUALBERT.reliability_for(QuestionType.COUNTING) == \
            pytest.approx(0.62)

    def test_registry(self):
        assert [spec.name for spec in (VISUALBERT, VILT, OFA)] == \
            ["VisualBert", "Vilt", "OFA"]


class TestSplitters:
    QUESTION = ("Does the dog that is holding the frisbee appear near "
                "the man?")

    def test_baseline_splitter_splits(self):
        splitter = BaselineSplitter(ABCD_MLP)
        clauses = splitter.split(self.QUESTION)
        assert len(clauses) == 2

    def test_load_cost_once(self):
        clock = SimClock()
        splitter = BaselineSplitter(DISSIM, clock)
        splitter.split(self.QUESTION)
        after_first = clock.elapsed
        splitter.split(self.QUESTION)
        after_second = clock.elapsed
        assert after_first > (after_second - after_first)

    def test_linguistic_splitter_no_load(self):
        clock = SimClock()
        LinguisticSplitter(clock).split(self.QUESTION)
        assert clock.elapsed < 1.0

    def test_linguistic_beats_dl_on_one_question(self):
        ours = SimClock()
        LinguisticSplitter(ours).split(self.QUESTION)
        theirs = SimClock()
        BaselineSplitter(ABCD_MLP, theirs).split(self.QUESTION)
        assert ours.elapsed < theirs.elapsed

    def test_unparseable_returns_whole(self):
        splitter = LinguisticSplitter()
        out = splitter.split("canis canis canis")
        assert out == ["canis canis canis"]

    def test_registry(self):
        assert [spec.name for spec in (ABCD_MLP, ABCD_BILINEAR, DISSIM)] \
            == ["ABCD-MLP", "ABCD-bilinear", "DisSim"]
