"""Differential test: the executor's taxonomy walks against full scans.

``matchVertex``'s downward expansion (``_expand_to_instances``, behind
every scope-store miss) and the answer-side ``kind of`` filter
(``_is_kind_of``) read the graph's sparse ``is a`` / ``instance of``
adjacency.  Their oracles in :mod:`tests.core.oracles` read every in-
or out-edge instead.  Starting from the fast-MVQA merged graph, seeded
runs of all five mutators — taxonomy edges added and removed, concept
vertices removed with their cascades — are interleaved with checks of
every label the MVQA questions resolve.

``make scope-fuzz`` runs the same check over more seeds and longer
mutation runs (``tests/core/scope_fuzz.py``).
"""

import random

import pytest

from repro.core import SVQA, ExecutorConfig, QueryGraphExecutor, SVQAConfig
from repro.core import generate_query_graph
from repro.core.aggregator import MergedGraph, MergeStats
from repro.dataset.mvqa import build_mvqa
from repro.errors import QueryParseError
from repro.graph import INSTANCE_OF, IS_A, Graph
from repro.nlp.semlex import HYPERNYMS
from tests.core.oracles import full_scan_is_kind_of, full_scan_scope_ids

#: ancestors each label's ``kind of`` answer is checked against
KIND_OF_SAMPLE = 6


def question_vocabulary(questions) -> list[str]:
    """Every term head and possessive owner the MVQA questions resolve."""
    labels = set()
    for question in questions:
        try:
            graph = generate_query_graph(question.text)
        except QueryParseError:
            continue
        for spoc in graph.vertices:
            for term in (spoc.subject, spoc.object):
                if term is not None:
                    labels.add(term.head)
                    if term.owner is not None:
                        labels.add(term.owner)
    return sorted(labels)


def clone(graph: Graph) -> Graph:
    """An id- and adjacency-order-preserving copy of ``graph``."""
    copy = Graph(name=graph.name)
    for vertex in graph.vertices():
        copy.add_vertex(vertex.label, vertex.props, vertex_id=vertex.id)
    for edge in graph.edges():
        copy.add_edge(edge.src, edge.dst, edge.label, edge.props,
                      edge_id=edge.id)
    return copy


class TaxonomyMutations:
    """Seeded runs of the five mutators, biased toward the taxonomy.

    Half the added edges and half the removed ones carry ``is a`` /
    ``instance of``; half the removed vertices have a taxonomy in-edge
    (a concept), so their cascade drops many ``instance of`` edges.
    """

    def __init__(self, graph: Graph, seed: int) -> None:
        self.graph = graph
        self.rng = random.Random(seed)
        self.vertex_labels = sorted({v.label for v in graph.vertices()})
        self.edge_labels = sorted({e.label for e in graph.edges()})

    def run(self, ops: int) -> None:
        rng, graph = self.rng, self.graph
        for _ in range(ops):
            vertex_ids = sorted(graph.vertex_ids())
            kind = rng.choice(["add_vertex", "add_edge", "remove_edge",
                               "remove_vertex", "relabel_vertex"])
            if kind == "add_vertex" or len(vertex_ids) < 2:
                graph.add_vertex(rng.choice(self.vertex_labels),
                                 {"kind": "instance"})
            elif kind == "add_edge":
                label = rng.choice(
                    [IS_A, INSTANCE_OF] if rng.random() < 0.5
                    else self.edge_labels)
                src, dst = rng.sample(vertex_ids, 2)
                graph.add_edge(src, dst, label)
            elif kind == "remove_edge":
                taxonomy = sorted(graph.edge_labels.ids(IS_A)
                                  + graph.edge_labels.ids(INSTANCE_OF))
                pool = taxonomy if taxonomy and rng.random() < 0.5 \
                    else sorted(e.id for e in graph.edges())
                if pool:
                    graph.remove_edge(rng.choice(pool))
            elif kind == "remove_vertex":
                concepts = sorted(graph.taxonomy_targets())
                pool = concepts if concepts and rng.random() < 0.5 \
                    else vertex_ids
                graph.remove_vertex(rng.choice(pool))
            else:
                graph.relabel_vertex(rng.choice(vertex_ids),
                                     rng.choice(self.vertex_labels))


def assert_matches_oracle(executor: QueryGraphExecutor, labels: list[str],
                          ancestors: list[str], rng: random.Random) -> None:
    graph, config = executor.graph, executor.config
    for label in labels:
        got = [v.id for v in executor.match_vertex_label(label)]
        assert got == full_scan_scope_ids(graph, label, config), label
        # a seeded sample, plus the label's own hypernym chain so that
        # positive answers are checked too
        checked = rng.sample(ancestors, KIND_OF_SAMPLE)
        parent = HYPERNYMS.get(label)
        while parent is not None and parent not in checked:
            checked.append(parent)
            parent = HYPERNYMS.get(parent)
        for ancestor in checked:
            assert executor._is_kind_of(label, ancestor) == \
                full_scan_is_kind_of(graph, label, ancestor, config), \
                (label, ancestor)


def run_scope_fuzz(base: Graph, labels: list[str], seed: int, runs: int,
                   ops: int) -> None:
    """Mutate a copy of ``base`` in ``runs`` seeded runs of ``ops``
    mutations, checking every label before the first and after each."""
    graph = clone(base)
    executor = QueryGraphExecutor(
        MergedGraph(graph=graph, stats=MergeStats({}, [], 0.0, 0.0, 0, 0, 0)),
        config=ExecutorConfig(),
    )
    ancestors = sorted(set(labels) | set(HYPERNYMS.values()))
    mutations = TaxonomyMutations(graph, seed)
    check_rng = random.Random(f"kind-of:{seed}")
    assert_matches_oracle(executor, labels, ancestors, check_rng)
    for _ in range(runs):
        mutations.run(ops)
        assert_matches_oracle(executor, labels, ancestors, check_rng)


@pytest.fixture(scope="module")
def mvqa_base():
    dataset = build_mvqa(seed=5, pool_size=1_200, image_count=400)
    system = SVQA(dataset.scenes, dataset.kg, SVQAConfig(workers=1))
    system.build()
    return system.merged.graph, question_vocabulary(dataset.questions)


def test_vocabulary_is_taxonomy_heavy(mvqa_base):
    graph, labels = mvqa_base
    assert len(labels) > 30
    # the check is only meaningful if expansion does real work
    assert len(graph.taxonomy_targets()) > 20
    assert any(label in HYPERNYMS.values() for label in labels)


@pytest.mark.parametrize("seed", [0, 1])
def test_scope_and_kind_of_match_full_scans(mvqa_base, seed):
    graph, labels = mvqa_base
    run_scope_fuzz(graph, labels, seed, runs=3, ops=40)
