"""Unit tests for the tokenizer."""

import pytest

from repro.errors import TokenizationError
from repro.nlp import tokenize


class TestTokenize:
    def test_simple_sentence(self):
        assert [t.text for t in tokenize("the dog runs")] == ["the", "dog", "runs"]

    def test_question_mark_detached(self):
        tokens = tokenize("Is this a cat?")
        assert tokens[-1].text == "?"
        assert tokens[-2].text == "cat"

    def test_possessive_clitic_split(self):
        texts = [t.text for t in tokenize("Harry Potter's girlfriend")]
        assert texts == ["Harry", "Potter", "'s", "girlfriend"]

    def test_contraction_split(self):
        texts = [t.text for t in tokenize("doesn't it run?")]
        assert texts == ["does", "n't", "it", "run", "?"]

    def test_contraction_whats(self):
        texts = [t.text for t in tokenize("What's that?")]
        assert texts == ["What", "'s", "that", "?"]

    def test_indices_are_sequential(self):
        tokens = tokenize("a b c d")
        assert [t.index for t in tokens] == [0, 1, 2, 3]

    def test_numbers_kept_whole(self):
        texts = [t.text for t in tokenize("more than 25 dogs")]
        assert "25" in texts

    def test_hyphenated_word_kept(self):
        texts = [t.text for t in tokenize("a well-known wizard")]
        assert "well-known" in texts

    def test_comma_detached(self):
        texts = [t.text for t in tokenize("dogs, cats and birds")]
        assert texts[:2] == ["dogs", ","]

    def test_empty_raises(self):
        with pytest.raises(TokenizationError):
            tokenize("   ")

    def test_non_string_raises(self):
        with pytest.raises(TokenizationError):
            tokenize(None)  # type: ignore[arg-type]

    def test_is_word_and_is_punct(self):
        tokens = tokenize("dog?")
        assert tokens[0].is_word and not tokens[0].is_punct
        assert tokens[1].is_punct and not tokens[1].is_word
