"""End-to-end resilience tests over the SVQA facade and batch engine.

Covers the acceptance criteria of the resilience layer, which is
always on: the default session answers like the unplanned oracle and
moves no fault counter, batch slot alignment under mid-batch crashes
(workers=1 and 4 agree), deadline cutoff determinism, parse-failure
survival in ``answer_many``, and a chaos sweep with graceful,
reproducible decay.
"""

import pytest

from repro.core import (
    SVQA,
    SVQAConfig,
    BatchExecutor,
    generate_query_graph,
)
from repro.core.spoc import DependencyKind, QueryGraph, QuestionType, SPOC, Term
from repro.dataset.kg import build_commonsense_kg
from repro.errors import TokenizationError
from repro.resilience import ResilienceConfig
from repro.synth import SceneGenerator
from tests.core.oracles import unplanned_answers
from tests.core.test_executor import make_merged

QUESTIONS = [
    "Is there a dog near the fence?",
    "How many dogs are standing on the grass?",
    "Is there a cat near the grass?",
    "What kind of animals is standing on the grass?",
    "Is there a fence near the grass?",
]

#: the grammar rejects "canis"; the keyword fallback answers it
UNPARSEABLE = ("Does the kind of canis that is sitting on the bed "
               "appear in front of the vehicle?")


def build_svqa(resilience=None, seed=31, pool=40, workers=1):
    """A built session; ``resilience=None`` means the default config."""
    scenes = SceneGenerator(seed=seed).generate_pool(pool)
    system = SVQA(scenes, build_commonsense_kg(),
                  SVQAConfig(workers=workers,
                             resilience=resilience or ResilienceConfig()))
    system.build()
    return system


def poisoned_graph():
    """A query graph whose execution raises (cyclic wiring, no start)."""
    spoc = SPOC(
        subject=Term(text="dog", head="dog"), predicate="near",
        object=Term(text="fence", head="fence"), clause_index=0,
        depth=0, is_main=True, question_type=QuestionType.JUDGMENT,
        answer_role="subject", source_text="poisoned",
    )
    other = SPOC(
        subject=Term(text="cat", head="cat"), predicate="near",
        object=Term(text="sofa", head="sofa"), clause_index=1,
        depth=1, is_main=False, question_type=None,
        answer_role="subject", source_text="poisoned",
    )
    kind = DependencyKind.S2S
    return QueryGraph(vertices=[spoc, other],
                      edges=[(0, 1, kind), (1, 0, kind)],
                      question="poisoned")


class TestDefaultSession:
    """The guards are always on; with no fault injected they must
    change nothing but the answers to questions that would fail."""

    def test_answers_match_unplanned_oracle(self):
        system = build_svqa()
        planned = system.answer_many(QUESTIONS)
        oracle = unplanned_answers(system, QUESTIONS)
        assert [a.value for a in planned] == [a.value for a in oracle]
        assert not any(a.degraded for a in planned)

    def test_zero_rate_specs_change_nothing(self):
        default = build_svqa()
        plain = default.answer_many(QUESTIONS + [UNPARSEABLE])
        chaosless = build_svqa(resilience=ResilienceConfig.chaos(0.0))
        guarded = chaosless.answer_many(QUESTIONS + [UNPARSEABLE])
        assert [a.to_json() for a in plain] == \
            [a.to_json() for a in guarded]
        assert default.clock.counts == chaosless.clock.counts
        assert default.elapsed == pytest.approx(chaosless.elapsed)

    def test_only_degraded_answers_move(self):
        for resilience in (None, ResilienceConfig.chaos(0.0)):
            system = build_svqa(resilience=resilience)
            answers = system.answer_many(QUESTIONS + [UNPARSEABLE])
            assert [a.degraded for a in answers] == \
                [False] * len(QUESTIONS) + [True]
            stats = system.execution_report().stats
            assert stats.faults_injected == 0
            assert stats.retry_attempts == 0
            assert stats.retry_recoveries == 0
            assert stats.retries_exhausted == 0
            assert stats.breaker_trips == 0
            assert stats.breaker_short_circuits == 0
            assert stats.deadline_cutoffs == 0
            assert stats.degraded_answers == 1


class TestBatchCrashAbsorption:
    def run_batch(self, workers):
        merged = make_merged()
        graphs = [generate_query_graph(q) for q in [
            "Is there a dog near the fence?",
            "How many dogs are standing on the grass?",
        ]]
        graphs.insert(1, poisoned_graph())
        return BatchExecutor(merged, workers=workers).run(graphs)

    def test_crash_mid_batch_keeps_slots_aligned(self):
        result = self.run_batch(workers=1)
        assert len(result.answers) == 3
        assert len(result.latencies) == 3
        crashed = result.answers[1]
        assert crashed.value == "unknown"
        assert crashed.degraded
        assert crashed.fault_events
        assert crashed.fault_events[0].site == "executor.execute"
        # the healthy neighbours answered normally
        assert result.answers[0].value in ("yes", "no")
        assert result.answers[2].value.isdigit()

    def test_workers_1_and_4_agree(self):
        serial = self.run_batch(workers=1)
        parallel = self.run_batch(workers=4)
        assert [a.value for a in serial.answers] == \
            [a.value for a in parallel.answers]
        assert [a.degraded for a in serial.answers] == \
            [a.degraded for a in parallel.answers]


class TestParseFailureSurvival:
    def test_answer_many_absorbs_non_query_repro_errors(self, monkeypatch):
        """Satellite: ParseError/TokenizationError are ReproErrors but
        not QueryErrors — they must cost one slot, not the batch."""
        system = build_svqa(resilience=None)
        real_parse = generate_query_graph

        def flaky_parse(question, clock=None, tracer=None, analyse=None):
            if question == "BOOM":
                raise TokenizationError("unlexable input")
            return real_parse(question, clock=clock)

        monkeypatch.setattr("repro.core.pipeline.generate_query_graph",
                            flaky_parse)
        answers = system.answer_many([QUESTIONS[0], "BOOM", QUESTIONS[1]])
        assert len(answers) == 3
        assert answers[1].value == "unknown"
        assert answers[0].value in ("yes", "no")
        assert answers[2].value.isdigit()

    def test_keyword_fallback_salvages_rejected_parse(self, monkeypatch):
        system = build_svqa(resilience=ResilienceConfig.chaos(0.0))
        real_parse = generate_query_graph

        def rejecting_parse(question, clock=None, tracer=None, analyse=None):
            if question.startswith("Is there a dog"):
                raise TokenizationError("grammar rejected")
            return real_parse(question, clock=clock)

        monkeypatch.setattr("repro.core.pipeline.generate_query_graph",
                            rejecting_parse)
        answer = system.answer("Is there a dog near the fence?")
        assert answer.degraded
        assert answer.confidence <= 0.3
        assert any(e.site == "parse.question" for e in answer.fault_events)
        # the keyword fallback still produced a typed yes/no answer
        assert answer.value in ("yes", "no", "unknown")
        assert system.execution_report().stats.degraded_answers >= 1


class TestDeadlineCutoff:
    def make_system(self):
        config = ResilienceConfig(query_deadline=0.001)
        return build_svqa(resilience=config, pool=30)

    def test_tiny_deadline_degrades_with_attribution(self):
        # multi-clause: the budget is spent after the first condition
        # vertex, so the main clause is cut off mid-walk
        system = self.make_system()
        answer = system.answer(
            "What kind of animals is carried by the pets that are "
            "standing on the grass?"
        )
        assert answer.degraded
        assert any(e.kind == "deadline" for e in answer.fault_events)
        assert system.execution_report().stats.deadline_cutoffs >= 1

    def test_cutoff_is_deterministic(self):
        first = self.make_system().answer_many(QUESTIONS)
        second = self.make_system().answer_many(QUESTIONS)
        assert [a.value for a in first] == [a.value for a in second]
        assert [a.latency for a in first] == [a.latency for a in second]
        assert [len(a.fault_events) for a in first] == \
            [len(a.fault_events) for a in second]


class TestChaosSweep:
    RATES = [0.0, 0.3, 0.7]

    def sweep(self, seed=0):
        outcomes = {}
        for rate in self.RATES:
            system = build_svqa(
                resilience=ResilienceConfig.chaos(rate, seed=seed),
                pool=30,
            )
            answers = system.answer_many(QUESTIONS)
            outcomes[rate] = (answers, system.execution_report().stats)
        return outcomes

    def test_every_question_answered_at_every_rate(self):
        for rate, (answers, _) in self.sweep().items():
            assert len(answers) == len(QUESTIONS), f"rate {rate}"
            assert all(a.value for a in answers)

    def test_degraded_answers_carry_provenance(self):
        for _, (answers, _) in self.sweep().items():
            for answer in answers:
                if answer.degraded:
                    assert answer.fault_events

    def test_fault_pressure_grows_with_rate(self):
        outcomes = self.sweep()
        faults = [outcomes[r][1].faults_injected for r in self.RATES]
        assert faults[0] == 0
        assert faults == sorted(faults)
        assert faults[-1] > 0

    def test_same_seed_identical_outcomes(self):
        first = self.sweep(seed=3)
        second = self.sweep(seed=3)
        for rate in self.RATES:
            assert [a.value for a in first[rate][0]] == \
                [a.value for a in second[rate][0]]
            assert first[rate][1] == second[rate][1]

    def test_chaos_build_marks_skipped_images(self):
        system = build_svqa(resilience=ResilienceConfig.chaos(0.9, seed=1),
                            pool=30)
        assert system.merged.skipped_images
