"""Unit tests for the core graph model."""

import pytest

from repro.errors import (
    DuplicateVertexError,
    EdgeNotFoundError,
    VertexNotFoundError,
)
from repro.graph import Graph


def edges_between(graph, src, dst):
    """Every edge from ``src`` to ``dst``, in adjacency order."""
    return [e for e in graph.out_edges(src) if e.dst == dst]


@pytest.fixture
def triangle():
    """a -> b -> c -> a with distinct labels."""
    g = Graph(name="triangle")
    a = g.add_vertex("a")
    b = g.add_vertex("b")
    c = g.add_vertex("c")
    g.add_edge(a.id, b.id, "ab")
    g.add_edge(b.id, c.id, "bc")
    g.add_edge(c.id, a.id, "ca")
    return g, a, b, c


class TestVertices:
    def test_add_vertex_assigns_dense_ids(self):
        g = Graph()
        ids = [g.add_vertex(f"v{i}").id for i in range(5)]
        assert ids == [0, 1, 2, 3, 4]

    def test_vertex_lookup(self):
        g = Graph()
        v = g.add_vertex("dog", {"image_id": 7})
        got = g.vertex(v.id)
        assert got.label == "dog"
        assert got.props == {"image_id": 7}

    def test_vertex_lookup_missing_raises(self):
        g = Graph()
        with pytest.raises(VertexNotFoundError):
            g.vertex(99)

    def test_explicit_vertex_id(self):
        g = Graph()
        v = g.add_vertex("x", vertex_id=10)
        assert v.id == 10
        # next auto id continues past the explicit one
        assert g.add_vertex("y").id == 11

    def test_duplicate_vertex_id_raises(self):
        g = Graph()
        g.add_vertex("x", vertex_id=3)
        with pytest.raises(DuplicateVertexError):
            g.add_vertex("y", vertex_id=3)

    def test_props_are_copied(self):
        g = Graph()
        props = {"k": 1}
        v = g.add_vertex("x", props)
        props["k"] = 2
        assert v.props["k"] == 1

    def test_contains(self):
        g = Graph()
        v = g.add_vertex("x")
        assert v.id in g
        assert 999 not in g

    def test_relabel_updates_index(self):
        g = Graph()
        v = g.add_vertex("old")
        g.relabel_vertex(v.id, "new")
        assert [u.id for u in g.find_vertices("new")] == [v.id]
        assert g.find_vertices("old") == []

    def test_remove_vertex_removes_incident_edges(self, triangle):
        g, a, b, c = triangle
        g.remove_vertex(b.id)
        assert g.vertex_count == 2
        assert g.edge_count == 1  # only c -> a survives
        labels = [e.label for e in g.edges()]
        assert labels == ["ca"]

    def test_remove_missing_vertex_raises(self):
        g = Graph()
        with pytest.raises(VertexNotFoundError):
            g.remove_vertex(0)


class TestEdges:
    def test_add_edge_requires_endpoints(self):
        g = Graph()
        v = g.add_vertex("x")
        with pytest.raises(VertexNotFoundError):
            g.add_edge(v.id, 42, "r")
        with pytest.raises(VertexNotFoundError):
            g.add_edge(42, v.id, "r")

    def test_multigraph_allows_parallel_edges(self):
        g = Graph()
        a = g.add_vertex("dog")
        b = g.add_vertex("man")
        g.add_edge(a.id, b.id, "near")
        g.add_edge(a.id, b.id, "in front of")
        assert len(edges_between(g, a.id, b.id)) == 2

    def test_self_loop(self):
        g = Graph()
        a = g.add_vertex("x")
        g.add_edge(a.id, a.id, "self")
        assert len(g.out_edges(a.id)) == 1
        assert g.in_degree(a.id) == 1

    def test_remove_edge(self, triangle):
        g, a, b, c = triangle
        edge = edges_between(g, a.id, b.id)[0]
        g.remove_edge(edge.id)
        assert edges_between(g, a.id, b.id) == []
        assert g.edge_count == 2

    def test_remove_missing_edge_raises(self):
        g = Graph()
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(0)

    def test_edge_lookup(self, triangle):
        g, a, b, _ = triangle
        edge = edges_between(g, a.id, b.id)[0]
        assert g.edge(edge.id).label == "ab"


class TestAdjacency:
    def test_successors_predecessors(self, triangle):
        g, a, b, c = triangle
        assert [e.dst for e in g.out_edges(a.id)] == [b.id]
        assert [e.src for e in g.in_edges(a.id)] == [c.id]

    def test_degrees(self, triangle):
        g, a, _, _ = triangle
        assert len(g.out_edges(a.id)) == 1
        assert g.in_degree(a.id) == 1

    def test_degree_of_missing_vertex_raises(self):
        g = Graph()
        with pytest.raises(VertexNotFoundError):
            g.in_degree(0)


class TestLabelIndex:
    def test_find_vertices_by_label(self):
        g = Graph()
        ids = [g.add_vertex("dog").id for _ in range(3)]
        g.add_vertex("cat")
        assert [v.id for v in g.find_vertices("dog")] == ids

    def test_find_edges_by_label(self, triangle):
        g, a, b, _ = triangle
        assert len(g.edge_labels.ids("ab")) == 1
        assert g.edge_labels.ids("nope") == []

    def test_label_counts(self):
        g = Graph()
        for _ in range(4):
            g.add_vertex("dog")
        g.add_vertex("cat")
        counts = g.vertex_labels.counts()
        assert counts == {"dog": 4, "cat": 1}

    def test_index_updated_on_removal(self):
        g = Graph()
        v = g.add_vertex("dog")
        g.remove_vertex(v.id)
        assert g.find_vertices("dog") == []

    def test_repr(self, triangle):
        g, *_ = triangle
        assert "vertices=3" in repr(g)
        assert "edges=3" in repr(g)
