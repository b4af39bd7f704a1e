"""Differential test: the inverse hypernym closure behind
``categories_for_word`` against the linear scan it replaced.

The oracle walks every category's hypernym chain on each call; the
closure answers from a dictionary built once.  They must agree on
every word the taxonomy and lexicon know, in any letter case, and on
words neither knows.
"""

import pytest

from repro.dataset.groundtruth import categories_for_word
from repro.nlp.semlex import HYPERNYMS, hypernym_chain
from repro.synth.taxonomy import category_names


def linear_categories_for_word(word: str) -> set[str]:
    """Reference implementation: scan every category's chain."""
    lowered = word.lower()
    result: set[str] = set()
    known = set(category_names())
    if lowered in known:
        result.add(lowered)
    for category in known:
        if lowered in hypernym_chain(category):
            result.add(category)
    return result


def vocabulary() -> list[str]:
    words = set(category_names()) | set(HYPERNYMS) | set(HYPERNYMS.values())
    return sorted(words)


def case_variants(word: str) -> list[str]:
    return [word, word.upper(), word.title(), word.swapcase()]


UNKNOWN = ["", " ", "spaceship", "dogs", "pets", "an imal", "dog ",
           "x" * 40, "thing-thing", "ANIMALS"]


class TestClosureMatchesLinearScan:
    @pytest.mark.parametrize("word", vocabulary())
    def test_known_words_in_every_case(self, word):
        for variant in case_variants(word):
            assert categories_for_word(variant) == \
                linear_categories_for_word(variant), variant

    @pytest.mark.parametrize("word", UNKNOWN)
    def test_unknown_words(self, word):
        assert categories_for_word(word) == \
            linear_categories_for_word(word)

    def test_vocabulary_covers_every_category_and_hypernym(self):
        words = vocabulary()
        assert set(category_names()) <= set(words)
        assert set(HYPERNYMS) <= set(words)
        assert set(HYPERNYMS.values()) <= set(words)


class TestFreshSets:
    def test_mutating_a_result_does_not_leak(self):
        first = categories_for_word("pet")
        expected = set(first)
        first.add("spaceship")
        first.discard("dog")
        assert categories_for_word("pet") == expected

    def test_unknown_word_result_is_mutable(self):
        found = categories_for_word("spaceship")
        found.add("dog")
        assert categories_for_word("spaceship") == set()
