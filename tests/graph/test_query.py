"""Unit tests for vertex lookup and relation retrieval."""

import pytest

from repro.graph import Graph, relations_between


@pytest.fixture
def scene():
    """Two wizards wearing clothes, one muggle."""
    g = Graph()
    w1 = g.add_vertex("wizard")
    w2 = g.add_vertex("wizard")
    robe = g.add_vertex("robe")
    hat = g.add_vertex("hat")
    muggle = g.add_vertex("muggle")
    g.add_edge(w1.id, robe.id, "wearing")
    g.add_edge(w2.id, hat.id, "wearing")
    g.add_edge(muggle.id, hat.id, "holding")
    return g, [w1, w2], [robe, hat], muggle


class TestVertexLookup:
    def test_finds_all_with_label(self, scene):
        g, wizards, _, _ = scene
        assert g.find_vertices("wizard") == wizards

    def test_unknown_label_empty(self, scene):
        g, *_ = scene
        assert g.find_vertices("dragon") == []


class TestRelations:
    def test_relations_between(self, scene):
        g, wizards, clothes, _ = scene
        pairs = relations_between(g, wizards, clothes)
        triples = sorted(p.triple for p in pairs)
        assert triples == [
            ("wizard", "wearing", "hat"),
            ("wizard", "wearing", "robe"),
        ]

    def test_relations_between_excludes_other_subjects(self, scene):
        g, wizards, clothes, muggle = scene
        pairs = relations_between(g, wizards, clothes)
        assert all(p.subject.label == "wizard" for p in pairs)

    def test_include_reverse(self):
        g = Graph()
        a = g.add_vertex("a")
        b = g.add_vertex("b")
        g.add_edge(b.id, a.id, "rev")
        assert relations_between(g, [a], [b]) == []
        pairs = relations_between(g, [a], [b], include_reverse=True)
        assert [p.edge.label for p in pairs] == ["rev"]

    def test_empty_inputs(self, scene):
        g, wizards, _, _ = scene
        assert relations_between(g, [], []) == []
        assert relations_between(g, wizards, []) == []

    def test_triple_property(self, scene):
        g, wizards, clothes, _ = scene
        pair = relations_between(g, wizards, clothes)[0]
        s, p, o = pair.triple
        assert s == "wizard" and p == "wearing"
