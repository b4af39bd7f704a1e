"""Unit tests for the k-hop neighbourhood (Definition 1)."""

import pytest

from repro.graph import Graph, k_hop_neighborhood


@pytest.fixture
def chain():
    """0 -> 1 -> 2 -> 3 -> 4"""
    g = Graph()
    ids = [g.add_vertex(str(i)).id for i in range(5)]
    for a, b in zip(ids, ids[1:], strict=False):
        g.add_edge(a, b, "next")
    return g, ids


class TestKHop:
    def test_zero_hops_is_self(self, chain):
        g, ids = chain
        assert k_hop_neighborhood(g, ids[0], 0) == {ids[0]}

    def test_one_hop_on_chain(self, chain):
        g, ids = chain
        # undirected by default (matches Example 3 of the paper)
        assert k_hop_neighborhood(g, ids[2], 1) == {ids[1], ids[2], ids[3]}

    def test_k_hop_directed(self, chain):
        g, ids = chain
        assert k_hop_neighborhood(g, ids[2], 1, directed=True) == {ids[2], ids[3]}

    def test_k_hop_saturates(self, chain):
        g, ids = chain
        assert k_hop_neighborhood(g, ids[0], 100) == set(ids)

    def test_negative_k_raises(self, chain):
        g, ids = chain
        with pytest.raises(ValueError):
            k_hop_neighborhood(g, ids[0], -1)

    def test_paper_example3_fence_man(self):
        # S("Fence", 1) contains Fence and Man (Example 3)
        g = Graph()
        fence = g.add_vertex("Fence").id
        man = g.add_vertex("Man").id
        far = g.add_vertex("Dog").id
        g.add_edge(fence, man, "behind")
        g.add_edge(man, fence, "in front of")
        g.add_edge(man, far, "watching")
        s = k_hop_neighborhood(g, fence, 1)
        assert s == {fence, man}
