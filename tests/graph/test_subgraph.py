"""Unit tests for induced subgraph views and G[S(t,k)] extraction."""

import pytest

from repro.graph import Graph, SubgraphView, k_hop_subgraph
from tests.graph.helpers import induced_edges


@pytest.fixture
def sample():
    """fence <-> man -> dog -> frisbee, man -> grass"""
    g = Graph()
    fence = g.add_vertex("Fence").id
    man = g.add_vertex("Man").id
    dog = g.add_vertex("Dog").id
    frisbee = g.add_vertex("Frisbee").id
    grass = g.add_vertex("Grass").id
    g.add_edge(fence, man, "behind")
    g.add_edge(man, fence, "in front of")
    g.add_edge(man, dog, "watching")
    g.add_edge(dog, frisbee, "catching")
    g.add_edge(man, grass, "standing on")
    return g, dict(fence=fence, man=man, dog=dog, frisbee=frisbee, grass=grass)


class TestView:
    def test_view_membership(self, sample):
        g, ids = sample
        view = SubgraphView(g, frozenset({ids["fence"], ids["man"]}))
        assert ids["fence"] in view
        assert ids["dog"] not in view

    def test_view_edges_are_induced(self, sample):
        g, ids = sample
        view = SubgraphView(g, frozenset({ids["fence"], ids["man"]}))
        labels = sorted(e.label for e in induced_edges(view))
        assert labels == ["behind", "in front of"]

    def test_view_label_lookup(self, sample):
        g, ids = sample
        view = SubgraphView(g, frozenset({ids["fence"], ids["man"]}))
        assert [v.id for v in view.find_vertices("Man")] == [ids["man"]]
        assert view.find_vertices("Dog") == []

    def test_view_validates_ids(self, sample):
        g, _ = sample
        from repro.errors import VertexNotFoundError

        with pytest.raises(VertexNotFoundError):
            k_hop_subgraph(g, 999, 1)


class TestKHopSubgraph:
    def test_one_hop_around_fence(self, sample):
        g, ids = sample
        view = k_hop_subgraph(g, ids["fence"], 1)
        assert view.vertex_ids == frozenset({ids["fence"], ids["man"]})
        assert view.anchor == ids["fence"]

    def test_two_hop_around_fence(self, sample):
        g, ids = sample
        view = k_hop_subgraph(g, ids["fence"], 2)
        expected = {ids["fence"], ids["man"], ids["dog"], ids["grass"]}
        assert view.vertex_ids == frozenset(expected)

    def test_vertex_count(self, sample):
        g, ids = sample
        assert len(k_hop_subgraph(g, ids["fence"], 1).vertex_ids) == 2
