"""Unit tests for the category taxonomy."""

import pytest

from repro.nlp.lexicon import NOUN_TABLE
from repro.synth import (
    CATEGORIES,
    Group,
    MVQA_GROUPS,
    category_by_name,
    category_index,
    category_names,
)


class TestTaxonomy:
    def test_all_names_unique(self):
        names = category_names()
        assert len(names) == len(set(names))

    def test_every_category_in_lexicon(self):
        for category in CATEGORIES:
            assert category.name in NOUN_TABLE

    def test_lookup_by_name(self):
        dog = category_by_name("dog")
        assert dog.group is Group.ANIMAL

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            category_by_name("dragon")

    def test_category_index_stable_and_positive(self):
        # index 0 is reserved for raster background
        assert category_index(CATEGORIES[0].name) == 1
        indices = [category_index(c.name) for c in CATEGORIES]
        assert indices == sorted(indices)
        assert min(indices) == 1

    def test_groups_cover_mvqa_filter(self):
        for group in MVQA_GROUPS:
            assert any(c.group == group for c in CATEGORIES), \
                f"no categories in {group}"

    def test_size_ranges_valid(self):
        for category in CATEGORIES:
            lo, hi = category.size
            assert 0 < lo <= hi <= 128

    def test_depth_bias_in_unit_interval(self):
        for category in CATEGORIES:
            assert 0.0 <= category.depth_bias <= 1.0
