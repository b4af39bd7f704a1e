"""Unit tests for clause segmentation, SPOC extraction, and Algorithm 2."""

import pytest

from repro.core import (
    DependencyKind,
    QuestionType,
    describe_query_graph,
    generate_query_graph,
    segment_clauses,
)
from repro.errors import QueryParseError
from repro.nlp import parse
from repro.simtime import SimClock


FLAGSHIP = (
    "What kind of clothes are worn by the wizard who is most frequently "
    "hanging out with Harry Potter's girlfriend?"
)


class TestClauseSegmentation:
    def test_two_clauses(self):
        tree = parse(FLAGSHIP)
        clauses = segment_clauses(tree)
        assert len(clauses) == 2
        assert clauses[0].is_main
        assert not clauses[1].is_main

    def test_relative_clause_has_antecedent(self):
        tree = parse(FLAGSHIP)
        clauses = segment_clauses(tree)
        antecedent = clauses[1].antecedent
        assert tree.tokens[antecedent].text == "wizard"

    def test_depths(self):
        tree = parse("Does the dog that is holding the frisbee appear "
                     "near the man that is next to the bus?")
        clauses = segment_clauses(tree)
        assert [c.depth for c in clauses] == [0, 1, 1]

    def test_nested_depth(self):
        tree = parse("How many dogs are standing on the grass that is "
                     "near the fence that is behind the house?")
        clauses = segment_clauses(tree)
        assert sorted(c.depth for c in clauses) == [0, 1, 2]


class TestFlagshipSPOCs:
    """Example 4 / Figure 4 of the paper, end to end."""

    @pytest.fixture(scope="class")
    def graph(self):
        return generate_query_graph(FLAGSHIP)

    def test_main_spoc_voice_normalized(self, graph):
        main = graph.vertices[graph.main_index]
        # "are worn" became the active "wear" with subject wizard
        assert main.predicate == "wear"
        assert main.subject.head == "wizard"
        assert main.object.head == "clothes"
        assert main.object.kind_of

    def test_condition_spoc(self, graph):
        condition = graph.vertices[1 - graph.main_index]
        assert condition.predicate == "hang out with"
        assert condition.subject.head == "wizard"
        assert condition.object.head == "girlfriend"
        assert condition.object.owner == "Harry Potter"

    def test_constraint_extracted(self, graph):
        condition = graph.vertices[1 - graph.main_index]
        assert condition.constraint == "most frequently"

    def test_s2s_edge(self, graph):
        assert len(graph.edges) == 1
        src, dst, kind = graph.edges[0]
        assert kind is DependencyKind.S2S
        assert dst == graph.main_index

    def test_question_type(self, graph):
        assert graph.question_type is QuestionType.REASONING

    def test_starts_at_condition(self, graph):
        assert graph.start_vertices() == [1 - graph.main_index + 0]


class TestQuestionTypes:
    def test_counting(self):
        graph = generate_query_graph(
            "How many dogs are standing on the grass that is near the "
            "fence?"
        )
        assert graph.question_type is QuestionType.COUNTING
        main = graph.vertices[graph.main_index]
        assert main.answer_role == "subject"
        assert main.subject.head == "dog"

    def test_counting_kinds(self):
        graph = generate_query_graph(
            "How many kinds of animals are eating the grass that is near "
            "the fence?"
        )
        main = graph.vertices[graph.main_index]
        assert main.subject.kind_of
        assert main.subject.head == "animal"

    def test_judgment_do_support(self):
        graph = generate_query_graph(
            "Does the dog that is holding the frisbee appear in front of "
            "the man?"
        )
        assert graph.question_type is QuestionType.JUDGMENT
        main = graph.vertices[graph.main_index]
        assert main.predicate == "appear in front of"

    def test_judgment_copular(self):
        graph = generate_query_graph(
            "Is the animal that is sitting on the sofa a cat?"
        )
        assert graph.question_type is QuestionType.JUDGMENT
        main = graph.vertices[graph.main_index]
        assert main.predicate == "be"
        assert main.object.head == "cat"

    def test_reasoning(self):
        graph = generate_query_graph(
            "What kind of animals is carried by the pets that were "
            "situated in the car?"
        )
        assert graph.question_type is QuestionType.REASONING


class TestEdgeKinds:
    def test_o2s_for_object_chain(self):
        graph = generate_query_graph(
            "How many dogs are standing on the grass that is near the "
            "fence?"
        )
        kinds = [kind for _, _, kind in graph.edges]
        assert kinds == [DependencyKind.O2S]

    def test_two_conditions_bind_different_slots(self):
        graph = generate_query_graph(
            "Does the dog that is holding the frisbee appear near the "
            "man that is next to the bus?"
        )
        assert len(graph.edges) == 2
        kinds = {kind for _, _, kind in graph.edges}
        assert DependencyKind.S2S in kinds
        assert DependencyKind.O2S in kinds

    def test_three_clause_chain(self):
        graph = generate_query_graph(
            "How many dogs are standing on the grass that is near the "
            "fence that is behind the house?"
        )
        assert len(graph.vertices) == 3
        assert len(graph.edges) == 2
        # execution starts at the deepest condition only
        assert len(graph.start_vertices()) == 1


class TestDependencyKindSemantics:
    def test_consumer_and_provider_slots(self):
        assert DependencyKind.S2O.consumer_slot == "subject"
        assert DependencyKind.S2O.provider_slot == "object"
        assert DependencyKind.O2S.consumer_slot == "object"
        assert DependencyKind.O2S.provider_slot == "subject"


class TestErrors:
    def test_foreign_word_fails_cleanly(self):
        with pytest.raises(QueryParseError):
            generate_query_graph(
                "Does the kind of canis that is sitting on the bed appear "
                "in front of the vehicle?"
            )

    def test_describe_renders(self):
        graph = generate_query_graph("Is there a dog near the fence?")
        text = describe_query_graph(graph)
        assert "v0" in text


class TestCharges:
    """The skeleton charges Algorithm 2's stages however the analysis
    went: a graph, a grammar rejection, or a degenerate clause."""

    def test_graph_charges_every_clause(self):
        clock = SimClock()
        generate_query_graph(FLAGSHIP, clock=clock)
        assert clock.counts == {"pos_tag": 1, "dep_parse": 1,
                                "clause_segment": 1, "spoc_extract": 2}

    def test_grammar_rejection_charges_the_parse_only(self):
        clock = SimClock()
        with pytest.raises(QueryParseError):
            generate_query_graph("Is there a canis near the fence?",
                                 clock=clock)
        assert clock.counts == {"pos_tag": 1, "dep_parse": 1}

    def test_degenerate_clause_charges_up_to_the_failure(self):
        def reject_second_clause(question):
            raise QueryParseError("degenerate clause", clause_index=1)

        clock = SimClock()
        with pytest.raises(QueryParseError):
            generate_query_graph(FLAGSHIP, clock=clock,
                                 analyse=reject_second_clause)
        assert clock.counts == {"pos_tag": 1, "dep_parse": 1,
                                "clause_segment": 1, "spoc_extract": 2}
