"""Unit and equivalence tests for the embedding score memo (ScoreMemo).

``rank``/``best`` must be extensionally equal to the linear
:func:`tests.nlp.oracles.rank_scores` / ``max_score`` scans (the
oracle) — the contract the executor relies on for byte-identical
answers.  The fuzz classes at the bottom mirror
``tests/graph/test_candidates.py``: the MVQA vocabulary and randomly
mutated synthetic graphs.
"""

import random
import sys
import threading

from repro.dataset.mvqa import build_mvqa
from repro.graph import Graph
from repro.nlp import score_memo as score_memo_module
from repro.nlp.score_memo import ScoreMemo
from repro.nlp.embeddings import max_score
from tests.core.oracles import LinearScores
from tests.nlp.oracles import rank_scores

PREDICATES = [
    "standing on", "sitting on", "near", "wearing", "holding",
    "carrying", "riding", "watching", "hanging out with", "is a",
    "wears", "held by", "next to", "on", "under",
]


def assert_rank_equivalent(index, queries, candidates):
    """``rank``/``best`` must equal the linear scans outright."""
    for query in queries:
        ranked, _, _ = index.rank(query, candidates)
        assert ranked == rank_scores(query, candidates), query
        best, score, _, _ = index.best(query, candidates)
        assert (best, score) == max_score(query, candidates), query


class TestExactScoring:
    def test_rank_matches_linear_scan(self):
        index = ScoreMemo()
        assert_rank_equivalent(index, ["wear", "stand", "sit near"],
                               PREDICATES)

    def test_empty_candidates(self):
        index = ScoreMemo()
        assert index.best("dog", []) == (None, float("-inf"), 0, 0)
        ranked, fresh, probes = index.rank("dog", [])
        assert ranked == [] and fresh == 0 and probes == 0

    def test_fresh_then_probes(self):
        index = ScoreMemo()
        _, _, fresh, probes = index.best("wear", PREDICATES)
        assert (fresh, probes) == (len(PREDICATES), 0)
        _, _, fresh, probes = index.best("wear", PREDICATES)
        assert (fresh, probes) == (0, len(PREDICATES))

    def test_memo_is_case_insensitive(self):
        index = ScoreMemo()
        index.rank("Wear", ["Wearing", "near"])
        _, fresh, probes = index.rank("wear", ["wearing", "NEAR"])
        assert (fresh, probes) == (0, 2)

    def test_duplicate_candidates_charge_like_the_scan(self):
        # the linear scan charges per candidate occurrence, so fresh
        # counts occurrences too (only one float is actually computed)
        index = ScoreMemo()
        ranked, fresh, probes = index.rank("near",
                                           ["near", "near", "near"])
        assert fresh == 3 and probes == 0
        assert ranked == rank_scores("near", ["near", "near", "near"])
        _, fresh, probes = index.rank("near", ["near", "near"])
        assert fresh == 0 and probes == 2

    def test_a_key_another_lane_stored_first_is_a_probe(self,
                                                        monkeypatch):
        # lane B scores and stores ("wear", "near") while lane A, which
        # missed it at its snapshot, is still computing: the key is
        # fresh once in total, whichever lane stores it
        import repro.nlp.score_memo as score_memo

        index = ScoreMemo()
        real = score_memo.phrase_vector
        counts = []

        def interleaved(text):
            # lane A's unlocked compute phase, first candidate
            if text == "near" and not counts:
                counts.append(None)
                counts[0] = index.rank("wear", ["near"])[1:]
            return real(text)

        monkeypatch.setattr(score_memo, "phrase_vector", interleaved)
        ranked, fresh, probes = index.rank("wear", ["near", "wearing"])
        assert ranked == rank_scores("wear", ["near", "wearing"])
        assert counts == [(1, 0)]
        assert (fresh, probes) == (1, 1)

    def test_racing_lanes_count_each_key_fresh_once(self):
        index = ScoreMemo()
        queries = ["wear", "stand", "sit near", "hold"]
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def lane():
                for query in queries:
                    results.append(index.rank(query, PREDICATES)[1:])

            threads = [threading.Thread(target=lane) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        fresh = sum(f for f, _ in results)
        probes = sum(p for _, p in results)
        assert fresh == len(queries) * len(PREDICATES)
        assert fresh + probes == 8 * len(queries) * len(PREDICATES)


class TestBoundedGrowth:
    def test_more_scores_than_its_capacity(self, monkeypatch):
        """More distinct (query, candidate) pairs than a small bound
        keep the memo within it, dropping its oldest rows, and every
        result still equals the linear scans."""
        monkeypatch.setattr(score_memo_module, "SCORE_CAPACITY", 10)
        index, linear = ScoreMemo(), LinearScores()
        for i, query in enumerate(PREDICATES):
            candidates = [f"label{i} {j}" for j in range(4)] + PREDICATES[:3]
            assert index.rank(query, candidates)[0] == \
                linear.rank(query, candidates)[0]
            assert index.best(query, candidates)[:2] == \
                linear.best(query, candidates)[:2]
            assert index._held == sum(map(len, index._scores.values()))
            assert index._held <= 10
        assert len(index._scores) < len(PREDICATES) * 4


class TestRefcounting:
    def test_duplicate_labels_survive_one_removal(self):
        graph = Graph(name="g")
        a = graph.add_vertex("dog", {})
        b = graph.add_vertex("grass", {})
        first = graph.add_edge(a.id, b.id, "near")
        second = graph.add_edge(b.id, a.id, "near")
        graph.score_memo.rank("close", ["near"])
        graph.remove_edge(first.id)
        assert graph.edge_labels.count("near") == 1
        # the label still has an edge: its memo rows stay
        assert graph.score_memo.rank("close", ["near"])[1:] == (0, 1)
        graph.remove_edge(second.id)
        assert "near" not in graph.edge_labels
        assert graph.score_memo.rank("close", ["near"])[1:] == (1, 0)

    def test_retire_purges_memo_rows(self):
        index = ScoreMemo()
        index.rank("wear", ["wearing", "near"])
        assert sum(map(len, index._scores.values())) == 2
        index.forget("wearing")
        assert sum(map(len, index._scores.values())) == 1
        # a re-added label recomputes identical floats (scores are
        # pure), so correctness is unaffected by the purge
        assert_rank_equivalent(index, ["wear"], ["wearing", "near"])


class TestGraphMaintenance:
    def test_add_edge_indexes_label(self):
        graph = Graph(name="g")
        a = graph.add_vertex("dog", {})
        b = graph.add_vertex("grass", {})
        graph.add_edge(a.id, b.id, "standing on")
        assert "standing on" in graph.edge_labels

    def test_remove_edge_unindexes_last_copy(self):
        graph = Graph(name="g")
        a = graph.add_vertex("dog", {})
        b = graph.add_vertex("grass", {})
        c = graph.add_vertex("cat", {})
        first = graph.add_edge(a.id, b.id, "near")
        graph.add_edge(c.id, b.id, "near")
        graph.remove_edge(first.id)
        assert graph.edge_labels.count("near") == 1

    def test_remove_vertex_retires_its_edge_labels(self):
        graph = Graph(name="g")
        a = graph.add_vertex("dog", {})
        b = graph.add_vertex("grass", {})
        graph.add_edge(a.id, b.id, "standing on")
        graph.score_memo.rank("stand", ["standing on"])
        graph.remove_vertex(a.id)
        assert "standing on" not in graph.edge_labels
        assert graph.score_memo.rank("stand", ["standing on"])[1:] == \
            (1, 0)

    def test_index_stays_fresh_across_epochs(self):
        """Epoch-bump staleness regression: the index must track the
        live edge-label multiset through arbitrary mutations."""
        graph = Graph(name="g")
        a = graph.add_vertex("dog", {})
        b = graph.add_vertex("grass", {})
        before = graph.epoch
        edge = graph.add_edge(a.id, b.id, "standing on")
        assert graph.epoch > before
        assert list(graph.edge_labels) == ["standing on"]
        graph.remove_edge(edge.id)
        assert list(graph.edge_labels) == []


FUZZ_LABELS = PREDICATES + [
    "wore", "worn by", "sat on", "stands on", "close to", "beside",
    "behind", "in front of", "part of", "made of", "owns", "owned by",
]
FUZZ_QUERIES = [
    "wear", "wears", "sit", "stand", "near", "hold", "ride", "own",
    "front", "behind", "hang out", "be",
]


class TestScanEquivalence:
    """The score memo is extensionally equal to the linear embedding
    scans — the contract the executor relies on."""

    def test_mvqa_vocabulary(self):
        dataset = build_mvqa(seed=7, pool_size=1_200, image_count=400)
        words = sorted({
            word.strip("?,.'\"").lower()
            for question in dataset.questions
            for word in question.text.split()
            if word.strip("?,.'\"")
        })
        assert len(words) > 50
        index = ScoreMemo()
        assert_rank_equivalent(index, words, FUZZ_LABELS)

    def test_interleaved_mutations(self):
        rng = random.Random(1234)
        for round_index in range(4):
            graph = Graph(name=f"fuzz-{round_index}")
            hub = graph.add_vertex("hub", {})
            live = []
            for step in range(50):
                op = rng.random()
                if op < 0.6 or not live:
                    spoke = graph.add_vertex("spoke", {})
                    edge = graph.add_edge(hub.id, spoke.id,
                                          rng.choice(FUZZ_LABELS))
                    live.append(edge.id)
                else:
                    graph.remove_edge(
                        live.pop(rng.randrange(len(live)))
                    )
                if step % 10 == 9:
                    labels = list(graph.edge_labels)
                    assert set(labels) == \
                        {e.label for e in graph.edges()}
                    assert len(labels) == len(set(labels))
                    queries = rng.sample(FUZZ_QUERIES, 4)
                    if labels:
                        assert_rank_equivalent(graph.score_memo,
                                               queries, labels)
