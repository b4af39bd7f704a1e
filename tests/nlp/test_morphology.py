"""Unit tests for morphology: lemmas, number, inflection, voice."""

from repro.nlp import (
    gerund,
    normalize_predicate,
    noun_plural,
    noun_singular,
    past_participle,
    verb_lemma,
)


class TestVerbLemma:
    def test_irregular_participle(self):
        assert verb_lemma("worn") == "wear"

    def test_irregular_past(self):
        assert verb_lemma("wore") == "wear"

    def test_gerund_form(self):
        assert verb_lemma("hanging") == "hang"

    def test_doubled_consonant(self):
        assert verb_lemma("sitting") == "sit"

    def test_third_singular(self):
        assert verb_lemma("carries") == "carry"

    def test_be_forms(self):
        assert verb_lemma("is") == "be"
        assert verb_lemma("were") == "be"

    def test_unknown_regular_ed(self):
        assert verb_lemma("zoomed") == "zoom"

    def test_unknown_regular_ing(self):
        assert verb_lemma("zooming") == "zoom"

    def test_base_is_identity(self):
        assert verb_lemma("wear") == "wear"


class TestNounNumber:
    def test_singular_regular(self):
        assert noun_singular("dogs") == "dog"

    def test_singular_irregular(self):
        assert noun_singular("men") == "man"
        assert noun_singular("people") == "person"

    def test_singular_es(self):
        assert noun_singular("benches") == "bench"

    def test_singular_ies(self):
        assert noun_singular("puppies") == "puppy"

    def test_singular_of_singular_is_identity(self):
        assert noun_singular("dog") == "dog"

    def test_invariant_plural(self):
        assert noun_singular("sheep") == "sheep"

    def test_plural_regular(self):
        assert noun_plural("dog") == "dogs"

    def test_plural_irregular(self):
        assert noun_plural("man") == "men"

    def test_plural_y(self):
        assert noun_plural("puppy") == "puppies"

    def test_plural_ch(self):
        assert noun_plural("bench") == "benches"


class TestInflection:
    def test_gerund(self):
        assert gerund("sit") == "sitting"
        assert gerund("ride") == "riding"

    def test_past_participle(self):
        assert past_participle("wear") == "worn"
        assert past_participle("walk") == "walked"


class TestNormalizePredicate:
    def test_passive_to_active(self):
        # §IV-B Example 4: "are worn" -> "wear"
        assert normalize_predicate(["are", "worn"]) == "wear"

    def test_progressive(self):
        assert normalize_predicate(["is", "hanging"]) == "hang"

    def test_phrasal_verb_keeps_particle(self):
        assert normalize_predicate(["is", "hanging", "out", "with"]) == \
            "hang out with"

    def test_bare_copula(self):
        assert normalize_predicate(["is"]) == "be"

    def test_negation_dropped(self):
        assert normalize_predicate(["is", "not", "sitting"]) == "sit"

    def test_do_support_dropped(self):
        assert normalize_predicate(["does", "appear"]) == "appear"

    def test_simple_present_kept(self):
        assert normalize_predicate(["wears"]) == "wear"
