"""Focused unit tests for clause spans and SPOC extraction details."""

import pytest

from repro.core.clauses import segment_clauses
from repro.core.spoc import SPOC, Term
from repro.core.spoc_extract import CONSTRAINT_WORDS, validate_spoc
from repro.errors import QueryParseError
from repro.nlp import parse


def descends_from(tree, index, ancestor):
    current = tree.heads[index]
    while current != -1:
        if current == ancestor:
            return True
        current = tree.heads[current]
    return False


def clause_token_span(tree, clause, all_clauses):
    """Token indices of one clause: its subtree minus the subtrees of
    the clauses nested inside it."""
    excluded = set()
    for other in all_clauses:
        if other.head != clause.head and \
                descends_from(tree, other.head, clause.head):
            excluded.update(tree.subtree(other.head))
    return [i for i in tree.subtree(clause.head) if i not in excluded]


class TestClauseSpans:
    def test_main_span_excludes_relative(self):
        tree = parse("Does the dog that is holding the frisbee appear "
                     "near the man?")
        clauses = segment_clauses(tree)
        main = next(c for c in clauses if c.is_main)
        span_words = [tree.tokens[i].text
                      for i in clause_token_span(tree, main, clauses)]
        assert "holding" not in span_words
        assert "appear" in span_words
        assert "dog" in span_words

    def test_relative_span_is_local(self):
        tree = parse("Does the dog that is holding the frisbee appear "
                     "near the man?")
        clauses = segment_clauses(tree)
        relative = next(c for c in clauses if not c.is_main)
        span_words = [tree.tokens[i].text
                      for i in clause_token_span(tree, relative, clauses)]
        assert "holding" in span_words
        assert "frisbee" in span_words
        assert "appear" not in span_words


class TestTermStructure:
    def test_term_slot_access(self):
        subject = Term("dog", "dog")
        spoc = SPOC(subject=subject, predicate="run", object=None)
        assert spoc.slot("subject") is subject
        assert spoc.slot("object") is None

    def test_unknown_slot_raises(self):
        spoc = SPOC(subject=None, predicate="run", object=None)
        with pytest.raises(ValueError):
            spoc.slot("verb")

    def test_repr_contains_fields(self):
        spoc = SPOC(subject=Term("dog", "dog"), predicate="run",
                    object=None, constraint="most")
        text = repr(spoc)
        assert "dog" in text and "most" in text


class TestValidation:
    def test_empty_spoc_rejected(self):
        spoc = SPOC(subject=None, predicate="run", object=None)
        with pytest.raises(QueryParseError):
            validate_spoc(spoc)

    def test_missing_predicate_rejected(self):
        spoc = SPOC(subject=Term("dog", "dog"), predicate="",
                    object=None)
        with pytest.raises(QueryParseError):
            validate_spoc(spoc)

    def test_valid_spoc_passes(self):
        spoc = SPOC(subject=Term("dog", "dog"), predicate="run",
                    object=Term("grass", "grass"))
        validate_spoc(spoc)  # no exception


class TestConstraintWords:
    def test_predefined_set_nonempty(self):
        assert "most frequently" in CONSTRAINT_WORDS

    def test_constraint_parsed_from_question(self):
        from repro.core import generate_query_graph

        graph = generate_query_graph(
            "Does the dog that is most frequently standing on the grass "
            "appear near the fence?"
        )
        constraints = [v.constraint for v in graph.vertices]
        assert "most frequently" in constraints

    def test_no_constraint_is_none(self):
        from repro.core import generate_query_graph

        graph = generate_query_graph(
            "Does the dog that is standing on the grass appear near "
            "the fence?"
        )
        assert all(v.constraint is None for v in graph.vertices)
