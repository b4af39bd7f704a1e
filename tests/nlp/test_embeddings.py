"""Unit tests for deterministic embeddings and maxScore."""

import numpy as np
import pytest

from repro.nlp import (
    are_synonyms,
    cosine,
    hypernym_chain,
    max_score,
    phrase_vector,
    word_vector,
)
from tests.nlp.oracles import is_kind_of, rank_scores


class TestVectors:
    def test_unit_norm(self):
        assert np.linalg.norm(word_vector("dog")) == pytest.approx(1.0)

    def test_deterministic(self):
        assert np.allclose(word_vector("wizard"), word_vector("wizard"))

    def test_case_insensitive(self):
        assert np.allclose(word_vector("Dog"), word_vector("dog"))

    def test_phrase_vector_unit_norm(self):
        assert np.linalg.norm(phrase_vector("hanging out with")) == \
            pytest.approx(1.0)

    def test_empty_phrase_raises(self):
        with pytest.raises(ValueError):
            phrase_vector("  ")


class TestSimilarityStructure:
    def test_synonyms_are_close(self):
        # §VII: "dog" and "puppy" must be consistent
        assert cosine("dog", "puppy") > 0.6

    def test_unrelated_words_are_far(self):
        assert cosine("dog", "fence") < 0.4

    def test_synonyms_beat_unrelated(self):
        assert cosine("wear", "wearing") > cosine("wear", "jump")

    def test_relation_phrases(self):
        assert cosine("hang out", "hang out with") > 0.6

    def test_self_similarity_is_one(self):
        assert cosine("dog", "dog") == pytest.approx(1.0)


class TestMaxScore:
    def test_picks_most_similar(self):
        best, score = max_score("wearing", ["wearing", "holding", "near"])
        assert best == "wearing"
        assert score == pytest.approx(1.0)

    def test_synonym_match(self):
        best, _ = max_score("wear", ["holding", "wearing", "riding"])
        assert best == "wearing"

    def test_empty_candidates(self):
        best, score = max_score("dog", [])
        assert best is None
        assert score == float("-inf")

    def test_rank_scores_sorted(self):
        ranked = rank_scores("dog", ["puppy", "fence", "dog"])
        assert ranked[0][0] == "dog"
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)


class TestSemanticLexicon:
    def test_are_synonyms(self):
        assert are_synonyms("dog", "puppy")
        assert are_synonyms("dog", "dog")
        assert not are_synonyms("dog", "cat")

    def test_hypernym_chain(self):
        assert hypernym_chain("dog") == ["pet", "animal"]

    def test_is_kind_of(self):
        assert is_kind_of("dog", "animal")
        assert is_kind_of("robe", "clothes")
        assert not is_kind_of("dog", "vehicle")

    def test_hypernym_chain_of_root(self):
        assert hypernym_chain("animal") == []
