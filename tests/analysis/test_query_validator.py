"""Tests for the query-graph semantic validator (layer 1).

Hand-built broken graphs must each trigger their rule; every
parseable MVQA question must validate without ERROR diagnostics
(warnings are acceptable — they flag fuzzy-match reliance, not
breakage).
"""

import pytest

from repro.analysis import (
    QueryGraphValidator,
    Severity,
    validate_query_graph,
)
from repro.core import generate_query_graph
from repro.core.spoc import (
    DependencyKind,
    QueryGraph,
    QuestionType,
    SPOC,
    Term,
)
from repro.errors import QueryParseError
from tests.analysis.helpers import by_rule


def term(head, **kwargs):
    return Term(text=head, head=head, **kwargs)


def spoc(subject=None, predicate="be", obj=None, **kwargs):
    return SPOC(subject=subject, predicate=predicate, object=obj,
                **kwargs)


def judgment_main(subject="dog", obj="grass", **kwargs):
    return spoc(subject=term(subject), obj=term(obj),
                is_main=True, question_type=QuestionType.JUDGMENT,
                source_text=f"{subject} be {obj}", **kwargs)


def condition(subject="dog", obj="grass", depth=1, **kwargs):
    return spoc(subject=term(subject), obj=term(obj), depth=depth,
                source_text=f"{subject} be {obj}", **kwargs)


class TestBrokenGraphs:
    def test_dangling_edge_triggers_qg001(self):
        graph = QueryGraph(
            vertices=[judgment_main()],
            edges=[(0, 5, DependencyKind.S2S)],
        )
        report = validate_query_graph(graph)
        assert "QG001" in report.rule_ids()
        assert report.has_errors

    def test_self_loop_triggers_qg001(self):
        graph = QueryGraph(
            vertices=[judgment_main()],
            edges=[(0, 0, DependencyKind.S2S)],
        )
        assert "QG001" in validate_query_graph(graph).rule_ids()

    def test_cycle_triggers_qg002(self):
        graph = QueryGraph(
            vertices=[judgment_main(), condition()],
            edges=[(0, 1, DependencyKind.S2S),
                   (1, 0, DependencyKind.S2S)],
        )
        report = validate_query_graph(graph)
        qg002 = by_rule(report, "QG002")
        assert len(qg002) == 1
        assert qg002[0].severity is Severity.ERROR
        assert "no execution order" in qg002[0].message

    def test_missing_main_clause_triggers_qg003(self):
        graph = QueryGraph(vertices=[condition()])
        assert "QG003" in validate_query_graph(graph).rule_ids()

    def test_two_main_clauses_trigger_qg003(self):
        graph = QueryGraph(
            vertices=[judgment_main(), judgment_main()]
        )
        assert "QG003" in validate_query_graph(graph).rule_ids()

    def test_unreachable_condition_triggers_qg004(self):
        # the condition clause has no edge into the main clause
        graph = QueryGraph(
            vertices=[judgment_main(), condition()], edges=[]
        )
        report = validate_query_graph(graph)
        qg004 = by_rule(report, "QG004")
        assert len(qg004) == 1
        assert qg004[0].severity is Severity.WARNING
        assert qg004[0].location.vertex == 1

    def test_counting_main_without_wh_triggers_qg005(self):
        main = spoc(subject=term("dog"), obj=term("grass"),
                    is_main=True,
                    question_type=QuestionType.COUNTING,
                    answer_role="subject")
        report = validate_query_graph(QueryGraph(vertices=[main]))
        assert "QG005" in report.rule_ids()
        assert report.has_errors

    def test_judgment_main_with_wh_triggers_qg005(self):
        main = spoc(subject=term("what", is_wh=True),
                    obj=term("grass"), is_main=True,
                    question_type=QuestionType.JUDGMENT)
        assert "QG005" in validate_query_graph(
            QueryGraph(vertices=[main])
        ).rule_ids()

    def test_contradictory_providers_trigger_qg006(self):
        # two providers bind the main clause's subject slot with
        # unrelated labels (dog vs sofa) — the intersection is empty
        graph = QueryGraph(
            vertices=[
                judgment_main(),
                condition(subject="dog", obj="grass"),
                condition(subject="sofa", obj="fence"),
            ],
            edges=[(1, 0, DependencyKind.S2S),
                   (2, 0, DependencyKind.S2S)],
        )
        report = validate_query_graph(graph)
        qg006 = by_rule(report, "QG006")
        assert len(qg006) == 1
        assert qg006[0].severity is Severity.WARNING
        assert "'dog'" in qg006[0].message
        assert "'sofa'" in qg006[0].message

    def test_synonym_providers_do_not_trigger_qg006(self):
        graph = QueryGraph(
            vertices=[
                judgment_main(),
                condition(subject="dog", obj="grass"),
                condition(subject="dog", obj="fence"),
            ],
            edges=[(1, 0, DependencyKind.S2S),
                   (2, 0, DependencyKind.S2S)],
        )
        assert not by_rule(validate_query_graph(graph), "QG006")

    def test_constraint_on_empty_slot_triggers_qg007_error(self):
        broken = spoc(subject=term("dog"), obj=None,
                      constraint="most frequently", is_main=True,
                      question_type=QuestionType.JUDGMENT,
                      answer_role="object")
        report = validate_query_graph(QueryGraph(vertices=[broken]))
        qg007 = by_rule(report, "QG007")
        assert len(qg007) == 1
        assert qg007[0].severity is Severity.ERROR

    def test_unrecognised_constraint_triggers_qg007_warning(self):
        fuzzy = spoc(subject=term("dog"), obj=term("grass"),
                     constraint="zorbly", is_main=True,
                     question_type=QuestionType.JUDGMENT,
                     answer_role="object")
        report = validate_query_graph(QueryGraph(vertices=[fuzzy]))
        qg007 = by_rule(report, "QG007")
        assert len(qg007) == 1
        assert qg007[0].severity is Severity.WARNING

    def test_unknown_term_triggers_qg008(self):
        graph = QueryGraph(
            vertices=[judgment_main(subject="canis", obj="grass")]
        )
        report = validate_query_graph(graph)
        qg008 = by_rule(report, "QG008")
        assert len(qg008) == 1
        assert qg008[0].severity is Severity.WARNING
        assert "'canis'" in qg008[0].message

    def test_capitalised_proper_name_is_exempt_from_qg008(self):
        graph = QueryGraph(
            vertices=[judgment_main(subject="Harry Potter")]
        )
        # proper names match annotation labels, not the lexicon
        assert not by_rule(validate_query_graph(graph), "QG008")

    def test_degenerate_spoc_triggers_qg009(self):
        empty = spoc(subject=None, obj=None, predicate="",
                     is_main=True,
                     question_type=QuestionType.JUDGMENT)
        report = validate_query_graph(QueryGraph(vertices=[empty]))
        assert len(by_rule(report, "QG009")) == 2  # no slots + no verb


class TestValidatorConfiguration:
    def test_rule_subset_runs_only_named_rules(self):
        graph = QueryGraph(
            vertices=[condition()],  # no main: QG003 would fire
            edges=[(0, 0, DependencyKind.S2S)],
        )
        validator = QueryGraphValidator(rules=("QG001",))
        report = validator.validate(graph)
        assert report.rule_ids() == ["QG001"]

    def test_unknown_rule_id_is_rejected(self):
        with pytest.raises(ValueError):
            QueryGraphValidator(rules=("QG999",))


class TestRealQuestions:
    @pytest.mark.parametrize("question", [
        "Is there a dog near the fence?",
        "How many dogs are standing on the grass?",
        "What kind of clothes is worn by the wizard?",
    ])
    def test_parsed_questions_validate_clean(self, question):
        report = validate_query_graph(generate_query_graph(question))
        assert not report.has_errors
        assert len(report) == 0


class TestMVQASweep:
    def test_all_mvqa_questions_validate_without_errors(self):
        from repro.dataset.mvqa import build_mvqa

        dataset = build_mvqa(seed=5, pool_size=1_200, image_count=400)
        parse_rejections = 0
        for question in dataset.questions:
            try:
                graph = generate_query_graph(question.text)
            except QueryParseError:
                # the deliberate Fig. 8(a)/Fig. 9 out-of-grammar
                # questions are rejected at parse time
                parse_rejections += 1
                continue
            report = validate_query_graph(graph)
            assert not report.has_errors, (
                f"{question.text!r}: {report.render()}"
            )
        assert parse_rejections <= 5


class TestParseAttribution:
    """Satellite: parse failures carry clause index + offending term."""

    def test_foreign_word_failure_names_the_term(self):
        with pytest.raises(QueryParseError) as info:
            generate_query_graph("Is there a canis near the fence?")
        assert info.value.term == "canis"

    def test_validate_spoc_failure_carries_clause_index(self):
        from repro.core.spoc_extract import validate_spoc

        broken = spoc(subject=None, obj=None, clause_index=2,
                      source_text="mystery clause")
        with pytest.raises(QueryParseError) as info:
            validate_spoc(broken)
        assert info.value.clause_index == 2
        assert info.value.term == "mystery clause"
