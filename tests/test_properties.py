"""Cross-module property-based tests on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, k_hop_neighborhood, k_hop_subgraph
from repro.nlp.embeddings import cosine, phrase_vector
from repro.simtime import SimClock
from tests.graph.helpers import induced_edges


# ---------------------------------------------------------------------------
# random graph strategy
# ---------------------------------------------------------------------------

@st.composite
def graphs(draw):
    n = draw(st.integers(2, 12))
    g = Graph()
    labels = [f"l{draw(st.integers(0, 4))}" for _ in range(n)]
    for label in labels:
        g.add_vertex(label)
    edge_count = draw(st.integers(0, 2 * n))
    for _ in range(edge_count):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        if src != dst:
            g.add_edge(src, dst, f"e{draw(st.integers(0, 2))}")
    return g


class TestGraphProperties:
    @given(graphs(), st.integers(0, 4))
    @settings(max_examples=40)
    def test_k_hop_monotone_in_k(self, g, k):
        start = next(iter(g.vertex_ids()))
        smaller = k_hop_neighborhood(g, start, k)
        larger = k_hop_neighborhood(g, start, k + 1)
        assert smaller <= larger

    @given(graphs(), st.integers(0, 3))
    @settings(max_examples=40)
    def test_subgraph_edges_are_internal(self, g, k):
        start = next(iter(g.vertex_ids()))
        view = k_hop_subgraph(g, start, k)
        for edge in induced_edges(view):
            assert edge.src in view.vertex_ids
            assert edge.dst in view.vertex_ids

    @given(graphs())
    @settings(max_examples=40)
    def test_degree_sums_equal_edge_count(self, g):
        out_sum = sum(len(g.out_edges(v)) for v in g.vertex_ids())
        in_sum = sum(g.in_degree(v) for v in g.vertex_ids())
        assert out_sum == in_sum == g.edge_count

    @given(graphs())
    @settings(max_examples=40)
    def test_label_index_consistent(self, g):
        for label in g.vertex_labels.labels():
            for vertex in g.find_vertices(label):
                assert vertex.label == label
        assert sum(
            g.vertex_labels.count(label)
            for label in g.vertex_labels.labels()
        ) == g.vertex_count


class TestEmbeddingProperties:
    WORDS = st.sampled_from([
        "dog", "puppy", "cat", "fence", "wear", "wearing", "holding",
        "near", "grass", "wizard", "robe", "carrying", "carry",
    ])

    @given(WORDS)
    def test_unit_norm(self, word):
        assert np.linalg.norm(phrase_vector(word)) == 1.0 or \
            abs(np.linalg.norm(phrase_vector(word)) - 1.0) < 1e-6

    @given(WORDS, WORDS)
    def test_cosine_symmetric(self, a, b):
        assert abs(cosine(a, b) - cosine(b, a)) < 1e-9

    @given(WORDS, WORDS)
    def test_cosine_bounded(self, a, b):
        assert -1.0 - 1e-9 <= cosine(a, b) <= 1.0 + 1e-9

    @given(WORDS)
    def test_self_similarity(self, word):
        assert abs(cosine(word, word) - 1.0) < 1e-9


class TestSimClockProperties:
    @given(st.lists(st.sampled_from(["pos_tag", "dep_parse",
                                     "vqa_forward", "edge_scan"]),
                    max_size=30))
    def test_charges_additive_and_nonnegative(self, operations):
        clock = SimClock()
        total = 0.0
        for op in operations:
            charged = clock.charge(op)
            assert charged >= 0
            total += charged
        assert clock.elapsed == sum(
            clock.costs[op] for op in operations
        ) or abs(clock.elapsed - total) < 1e-12
