"""Unit and equivalence tests for the VertexCandidateIndex.

The index must return exactly the label set (and order) of a linear
scan with :func:`labels_match`, ``matchVertex``'s reference label
test, kept here as the oracle — the equivalence classes at the bottom
fuzz that contract over the MVQA vocabulary and randomly mutated
synthetic graphs.
"""

import random

import pytest

from repro.core import SVQA, SVQAConfig
from repro.core.executor import _is_category
from repro.dataset.mvqa import build_mvqa
from repro.graph import Graph, VertexCandidateIndex
from repro.graph.candidates import (
    label_bigrams,
    length_compatible,
    max_edit_distance,
    occurrence_keys,
)
from repro.nlp.dword import within_distance
from repro.nlp.morphology import noun_singular
from repro.nlp.semlex import are_synonyms

THRESHOLD = 0.34


def make_index(*labels):
    index = VertexCandidateIndex()
    for label in labels:
        index.add_label(label)
    return index


def ordered_labels(index):
    """Every indexed label in graph insertion order (the order the old
    linear scan compared them in)."""
    return sorted(index._order, key=index._order.__getitem__)


def labels_match(query, candidate, threshold=THRESHOLD):
    """``matchVertex``'s label test — the reference predicate.

    Exact, number-normalized, and synonym matches always count; the
    normalized-Levenshtein fallback only applies to words of five or
    more characters, so short labels ("cat"/"car", "grass"/"dress")
    don't collide on one edit.
    """
    q = query.lower()
    c = candidate.lower()
    if q == c:
        return True
    if noun_singular(q) == noun_singular(c):
        return True
    if are_synonyms(q, c) and not _is_category(q):
        # a non-category query word reaches its cluster ("puppy"
        # finds dog instances); a category query ("girl") matches
        # exactly, so it neither bleeds into sibling categories
        # ("woman") nor climbs to a broad concept ("person")
        return True
    if min(len(q), len(c)) >= 5:
        return within_distance(q, c, threshold)
    return False


def assert_scan_equivalent(index, queries):
    """The index must accept exactly the labels :func:`labels_match`
    accepts, in the same order."""
    base = ordered_labels(index)
    for query in queries:
        match = index.match(query, THRESHOLD,
                            include_synonyms=not _is_category(query))
        expected = tuple(
            candidate for candidate in base
            if labels_match(query, candidate)
        )
        assert match.labels == expected, (
            f"query {query!r}: index {match.labels} != scan {expected}"
        )
        assert match.total == len(base)


class TestPruningHelpers:
    def test_bigrams(self):
        assert label_bigrams("dog") == {"do", "og"}
        assert label_bigrams("a") == set()

    def test_occurrence_keys_count_duplicates(self):
        assert occurrence_keys("moo") == [("m", 0), ("o", 0), ("o", 1)]

    def test_length_compatible_matches_distance_floor(self):
        # the minimal normalized distance between lengths a and b is
        # |a-b|/max(a,b); the filter must agree with within_distance on
        # the best case (identical prefix, pure insertion suffix)
        for a in range(5, 12):
            for b in range(5, 12):
                best = "x" * min(a, b)
                padded = "x" * max(a, b)
                assert length_compatible(a, b, THRESHOLD) == \
                    within_distance(best, padded, THRESHOLD)

    def test_max_edit_distance_is_exact(self):
        # d_max must be the largest d with 2d/(a+b+d) < t, under the
        # exact float expression within_distance evaluates
        for a in range(5, 12):
            for b in range(5, 12):
                d_max = max_edit_distance(a, b, THRESHOLD)
                total = a + b
                assert (2.0 * d_max) / (total + d_max) < THRESHOLD
                d_next = d_max + 1
                assert (2.0 * d_next) / (total + d_next) >= THRESHOLD


class TestBuckets:
    def test_exact_case_insensitive(self):
        index = make_index("Dog", "cat")
        assert index.match("dog", THRESHOLD).labels == ("Dog",)

    def test_number_normalized(self):
        index = make_index("dog", "cat")
        assert index.match("dogs", THRESHOLD).labels == ("dog",)

    def test_synonym_cluster(self):
        index = make_index("dog", "cat")
        assert "dog" in index.match("puppy", THRESHOLD).labels

    def test_category_query_skips_synonyms(self):
        index = make_index("dog", "cat")
        match = index.match("puppy", THRESHOLD, include_synonyms=False)
        assert match.labels == ()

    def test_levenshtein_fallback(self):
        index = make_index("glasses", "clothes")
        assert index.match("glases", THRESHOLD).labels == ("glasses",)

    def test_short_words_never_fuzzy(self):
        index = make_index("car", "cart")
        assert index.match("cat", THRESHOLD).labels == ()


class TestRefcounting:
    def test_duplicate_labels_survive_one_removal(self):
        graph = Graph(name="g")
        a = graph.add_vertex("dog", {})
        b = graph.add_vertex("dog", {})
        assert graph.vertex_labels.count("dog") == 2
        graph.remove_vertex(a.id)
        assert graph.candidate_index.match("dog", THRESHOLD).labels == \
            ("dog",)
        graph.remove_vertex(b.id)
        match = graph.candidate_index.match("dog", THRESHOLD)
        assert match.labels == ()
        assert match.total == 0

    def test_remove_unknown_label_raises(self):
        index = make_index("dog")
        with pytest.raises(KeyError):
            index.remove_label("cat")

    def test_readded_label_moves_to_end_of_order(self):
        index = make_index("glasses", "classes")
        index.remove_label("glasses")
        index.add_label("glasses")
        # re-insertion order mirrors the vertex store: last added, last
        # scanned
        assert index.match("glases", THRESHOLD).labels == \
            ("classes", "glasses")


class TestAccounting:
    def test_examined_counts_bucket_entries(self):
        graph = Graph(name="g")
        for label in ("dog", "dog", "cat"):
            graph.add_vertex(label, {})
        match = graph.candidate_index.match("dog", THRESHOLD)
        # "dog" sits in both the exact and singular buckets; distinct
        # labels, not vertices, are what the lookup examines
        assert match.labels == ("dog",)
        assert match.examined >= 1
        assert match.total == 2

    def test_pruning_skips_most_of_a_large_index(self):
        index = make_index(*(f"filler{i:04d}" for i in range(200)),
                           "glasses")
        match = index.match("glases", THRESHOLD)
        assert match.labels == ("glasses",)
        assert match.total == 201
        assert match.examined < 20
        assert match.pruned > 180


class TestGraphMaintenance:
    def test_add_vertex_indexes_label(self):
        graph = Graph(name="g")
        graph.add_vertex("dog", {})
        assert graph.candidate_index.match("dog", THRESHOLD).labels == \
            ("dog",)

    def test_remove_vertex_unindexes_last_copy(self):
        graph = Graph(name="g")
        a = graph.add_vertex("dog", {})
        graph.add_vertex("dog", {})
        graph.remove_vertex(a.id)
        assert graph.vertex_labels.count("dog") == 1
        assert graph.candidate_index.match("dog", THRESHOLD).labels == \
            ("dog",)

    def test_relabel_vertex_moves_label(self):
        graph = Graph(name="g")
        v = graph.add_vertex("dog", {})
        graph.relabel_vertex(v.id, "cat")
        assert "dog" not in graph.vertex_labels
        assert graph.candidate_index.match("dog", THRESHOLD).labels == ()
        assert graph.candidate_index.match("cat", THRESHOLD).labels == \
            ("cat",)

    def test_every_mutator_bumps_the_epoch(self):
        graph = Graph(name="g")
        seen = [graph.epoch]

        def bumped():
            seen.append(graph.epoch)
            assert seen[-1] > seen[-2]

        a = graph.add_vertex("dog", {})
        bumped()
        b = graph.add_vertex("cat", {})
        bumped()
        edge = graph.add_edge(a.id, b.id, "near")
        bumped()
        graph.remove_edge(edge.id)
        bumped()
        graph.relabel_vertex(b.id, "sofa")
        bumped()
        graph.remove_vertex(b.id)
        bumped()


#: labels/queries rich in plurals, synonym-cluster members, and
#: length >= 5 near-misses that exercise the Levenshtein buckets
FUZZ_VOCAB = [
    "dog", "dogs", "puppy", "hound", "cat", "kitten", "feline",
    "person", "woman", "girl", "glasses", "glases", "classes",
    "clothes", "clothing", "vehicle", "vehicles", "vehicel", "grass",
    "grasses", "dress", "fence", "horse", "house", "mouse", "table",
    "cable", "stable", "apple", "apples", "banana", "robe", "rope",
    "coat", "goat", "Neville Longbottom",
]
FUZZ_QUERIES = FUZZ_VOCAB + [
    "dogg", "cattle", "glas", "vehicl", "persons", "women", "housee",
    "tables", "grase", "animal", "animals", "pet",
]


class TestScanEquivalence:
    """The index-backed matcher is extensionally equal to the linear
    :func:`labels_match` scan — the contract the executor relies on."""

    def test_mvqa_vocabulary(self):
        dataset = build_mvqa(seed=7, pool_size=1_200, image_count=400)
        svqa = SVQA(dataset.scenes, dataset.kg, SVQAConfig(workers=1))
        svqa.build()
        index = svqa.merged.graph.candidate_index
        words = sorted({
            word.strip("?,.'\"").lower()
            for question in dataset.questions
            for word in question.text.split()
            if word.strip("?,.'\"")
        })
        assert len(words) > 50
        assert_scan_equivalent(index, words)

    def test_interleaved_mutations(self):
        rng = random.Random(1234)
        for round_index in range(6):
            graph = Graph(name=f"fuzz-{round_index}")
            live = []
            for step in range(60):
                op = rng.random()
                if op < 0.55 or not live:
                    vertex = graph.add_vertex(rng.choice(FUZZ_VOCAB), {})
                    live.append(vertex.id)
                elif op < 0.8:
                    graph.remove_vertex(
                        live.pop(rng.randrange(len(live)))
                    )
                else:
                    graph.relabel_vertex(rng.choice(live),
                                         rng.choice(FUZZ_VOCAB))
                if step % 10 == 9:
                    assert_scan_equivalent(graph.candidate_index,
                                           FUZZ_QUERIES)
