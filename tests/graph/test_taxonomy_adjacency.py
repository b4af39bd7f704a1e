"""The sparse taxonomy adjacency of :class:`repro.graph.Graph`.

``taxonomy_in_edges`` / ``taxonomy_out_edges`` must always equal
``in_edges`` / ``out_edges`` filtered to ``is a`` / ``instance of``, in
the same order, and the sparse maps behind them must hold an entry only
for a vertex that has such an edge (memory stays bounded by the
taxonomy, not by the graph).  Checked after every mutator call, after
recovery from a snapshot plus WAL, and across a net-zero round.
"""

import random

import pytest

from repro.dataset.kg import build_commonsense_kg
from repro.errors import VertexNotFoundError
from repro.graph import (
    INSTANCE_OF,
    IS_A,
    TAXONOMY_LABELS,
    DurableStore,
    Graph,
)


def assert_taxonomy_adjacency(graph: Graph) -> None:
    """Every vertex's taxonomy lists equal the filtered full lists, and
    the sparse maps hold no empty or dangling entry."""
    has_in, has_out = set(), set()
    for vertex_id in graph.vertex_ids():
        expected_in = [e for e in graph.in_edges(vertex_id)
                       if e.label in TAXONOMY_LABELS]
        expected_out = [e for e in graph.out_edges(vertex_id)
                        if e.label in TAXONOMY_LABELS]
        assert graph.taxonomy_in_edges(vertex_id) == expected_in
        assert graph.taxonomy_out_edges(vertex_id) == expected_out
        if expected_in:
            has_in.add(vertex_id)
        if expected_out:
            has_out.add(vertex_id)
    assert set(graph.taxonomy_targets()) == has_in
    assert set(graph._taxonomy_in) == has_in
    assert set(graph._taxonomy_out) == has_out
    assert all(graph._taxonomy_in.values())
    assert all(graph._taxonomy_out.values())


def taxonomy_state(graph: Graph) -> tuple[dict, dict]:
    return ({v: list(ids) for v, ids in graph._taxonomy_in.items()},
            {v: list(ids) for v, ids in graph._taxonomy_out.items()})


def seeded_graph() -> Graph:
    """The commonsense KG plus instances linked by ``instance of`` and
    a few relation edges between them."""
    graph = build_commonsense_kg()
    rng = random.Random(7)
    concepts = sorted(graph.vertex_ids())
    instances = []
    for _ in range(40):
        concept = graph.vertex(rng.choice(concepts))
        instance = graph.add_vertex(concept.label, {"kind": "instance"})
        graph.add_edge(instance.id, concept.id, INSTANCE_OF)
        instances.append(instance.id)
    for _ in range(30):
        graph.add_edge(*rng.sample(instances, 2), "near")
    return graph


def mutate(graph: Graph, rng: random.Random, ops: int, check) -> list[int]:
    """``ops`` seeded calls of the five mutators, ``check()`` after each;
    returns the ids of the vertices still alive that it added."""
    labels = sorted({v.label for v in graph.vertices()})
    edge_labels = [IS_A, INSTANCE_OF, "near", "on"]
    added: list[int] = []
    for _ in range(ops):
        vertex_ids = sorted(graph.vertex_ids())
        kind = rng.choice(["add_vertex", "add_edge", "remove_edge",
                           "remove_vertex", "relabel_vertex"])
        if kind == "add_vertex" or not added:
            added.append(graph.add_vertex(rng.choice(labels)).id)
        elif kind == "add_edge":
            src, dst = rng.choice(added), rng.choice(vertex_ids)
            if rng.random() < 0.5:
                src, dst = dst, src
            graph.add_edge(src, dst, rng.choice(edge_labels))
        elif kind == "remove_edge":
            edges = sorted(e.id for e in graph.edges()
                           if e.src in added or e.dst in added)
            if edges:
                graph.remove_edge(rng.choice(edges))
        elif kind == "remove_vertex":
            graph.remove_vertex(added.pop(rng.randrange(len(added))))
        else:
            graph.relabel_vertex(rng.choice(added), rng.choice(labels))
        check()
    return added


class TestTaxonomyAdjacency:
    def test_kg_build_fills_it(self):
        graph = seeded_graph()
        assert_taxonomy_adjacency(graph)
        assert graph.taxonomy_targets()
        # sparse: the relation-only instances have no in-side entry
        assert len(graph.taxonomy_targets()) < graph.vertex_count

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_after_every_mutator_call(self, seed):
        graph = seeded_graph()
        mutate(graph, random.Random(seed), 150,
               lambda: assert_taxonomy_adjacency(graph))

    def test_remove_vertex_cascade_drops_entries(self):
        graph = seeded_graph()
        concept = max(graph.taxonomy_targets(),
                      key=lambda v: len(graph.taxonomy_in_edges(v)))
        children = [e.src for e in graph.taxonomy_in_edges(concept)]
        graph.remove_vertex(concept)
        assert concept not in graph.taxonomy_targets()
        assert_taxonomy_adjacency(graph)
        for child in children:
            assert all(e.dst != concept
                       for e in graph.taxonomy_out_edges(child))

    def test_net_zero_round_restores_the_maps(self):
        graph = seeded_graph()
        before = taxonomy_state(graph)
        added = mutate(graph, random.Random(3), 120, lambda: None)
        for vertex_id in added:
            graph.remove_vertex(vertex_id)
        assert_taxonomy_adjacency(graph)
        # the round only touched edges incident to its own vertices,
        # so removing them restores the exact lists, order included
        assert taxonomy_state(graph) == before

    def test_recover_rebuilds_it(self, tmp_path):
        graph = seeded_graph()
        store = DurableStore(tmp_path)
        store.snapshot(graph)
        store.attach(graph)
        mutate(graph, random.Random(4), 80, lambda: None)
        store.close()
        recovered = DurableStore(tmp_path).recover().graph
        assert recovered is not None
        assert_taxonomy_adjacency(recovered)
        assert taxonomy_state(recovered) == taxonomy_state(graph)

    def test_unknown_vertex_raises(self):
        graph = seeded_graph()
        missing = max(graph.vertex_ids()) + 1
        for read in (graph.taxonomy_in_edges, graph.taxonomy_out_edges):
            with pytest.raises(VertexNotFoundError):
                read(missing)
        with pytest.raises(VertexNotFoundError):
            graph.out_degree_sum([0, missing])
        with pytest.raises(VertexNotFoundError):
            graph.in_degree_sum([missing])
        with pytest.raises(VertexNotFoundError):
            graph.out_edges_into([missing], {0})
        with pytest.raises(VertexNotFoundError):
            graph.vertices_by_id([0, missing])


class TestBulkReads:
    """The bulk adjacency reads equal their per-vertex definitions."""

    def test_against_per_vertex_reads(self):
        graph = seeded_graph()
        rng = random.Random(5)
        ids = sorted(graph.vertex_ids())
        for _ in range(20):
            sources = rng.sample(ids, 12) + [ids[0], ids[0]]
            targets = set(rng.sample(ids, 30))
            assert graph.out_degree_sum(sources) == \
                sum(len(graph.out_edges(v)) for v in sources)
            assert graph.in_degree_sum(sources) == \
                sum(graph.in_degree(v) for v in sources)
            assert graph.out_edges_into(sources, targets) == [
                e for v in sources for e in graph.out_edges(v)
                if e.dst in targets]
            assert graph.vertices_by_id(sources) == \
                [graph.vertex(v) for v in sources]
