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

``TestSessionKindOfMemo`` asks the same answers through one long-lived
session, whose executors share the key-centric cache's ``kind`` store,
which observes the graph's writes, while mutator bursts move the epoch
between asks; the workers=4 batch runs under the runtime sanitizer
with the store's lock role seen.
"""

import random
import sys
import threading

import pytest

from repro import locks
from repro.analysis.concurrency.sanitizer import SanitizerConfig
from repro.core import SVQA, ExecutorConfig, QueryGraphExecutor, SVQAConfig
from repro.core import generate_query_graph
from repro.core.aggregator import MergedGraph, MergeStats
from repro.core import cache as cache_module
from repro.core import executor as executor_module
from repro.core.cache import KIND_CAPACITY, KeyCentricCache
from repro.core.stats import ExecutorStats
from repro.dataset.mvqa import build_mvqa
from repro.errors import QueryParseError
from repro.graph import INSTANCE_OF, IS_A, Graph
from repro.graph.observe import Reads
from repro.nlp.semlex import HYPERNYMS
from tests.core.oracles import (
    full_scan_is_kind_of,
    full_scan_scope_ids,
    unplanned_answers,
)

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


def kind_of_sample(label: str, ancestors: list[str],
                   rng: random.Random) -> list[str]:
    """A seeded sample of ancestors, plus the label's own hypernym
    chain so that positive answers are checked too."""
    checked = rng.sample(ancestors, KIND_OF_SAMPLE)
    parent = HYPERNYMS.get(label)
    while parent is not None and parent not in checked:
        checked.append(parent)
        parent = HYPERNYMS.get(parent)
    return checked


def merged_of(graph: Graph) -> MergedGraph:
    return MergedGraph(graph=graph,
                       stats=MergeStats({}, [], 0.0, 0.0, 0, 0, 0))


def session_executor(session: SVQA) -> QueryGraphExecutor:
    """An executor over the session's graph that shares its cache,
    stats and clock, as every executor of its batches does."""
    return QueryGraphExecutor(
        session.merged, cache=session._cache, clock=session.clock,
        config=session.config.executor, stats=session.stats,
        resilience=session.resilience, tracer=session.tracer,
    )


def assert_matches_oracle(executor: QueryGraphExecutor, labels: list[str],
                          ancestors: list[str], rng: random.Random) -> None:
    graph, config = executor.graph, executor.config
    for label in labels:
        got = list(executor.match_vertex_label(label))
        assert got == full_scan_scope_ids(graph, label, config), label
        for ancestor in kind_of_sample(label, ancestors, rng):
            assert executor._is_kind_of(label, ancestor) == \
                full_scan_is_kind_of(graph, label, ancestor), \
                (label, ancestor)


def run_scope_fuzz(base: Graph, labels: list[str], seed: int, runs: int,
                   ops: int) -> None:
    """Mutate a copy of ``base`` in ``runs`` seeded runs of ``ops``
    mutations, checking every label before the first and after each."""
    graph = clone(base)
    executor = QueryGraphExecutor(merged_of(graph), config=ExecutorConfig())
    ancestors = sorted(set(labels) | set(HYPERNYMS.values()))
    mutations = TaxonomyMutations(graph, seed)
    check_rng = random.Random(f"kind-of:{seed}")
    assert_matches_oracle(executor, labels, ancestors, check_rng)
    for _ in range(runs):
        mutations.run(ops)
        assert_matches_oracle(executor, labels, ancestors, check_rng)


@pytest.fixture(scope="module")
def mvqa_dataset():
    return build_mvqa(seed=5, pool_size=1_200, image_count=400)


@pytest.fixture(scope="module")
def mvqa_base(mvqa_dataset):
    dataset = mvqa_dataset
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


class TestSessionKindOfMemo:
    @pytest.mark.parametrize("capacity", [KIND_CAPACITY, 40])
    def test_answers_match_full_walks_across_epochs(self, mvqa_base,
                                                    capacity):
        graph, labels = mvqa_base
        session = SVQA(config=SVQAConfig(workers=1))
        mutated = clone(graph)
        session.adopt_merged(merged_of(mutated))
        kinds = session._cache.kind
        kinds.capacity = capacity
        executor = session_executor(session)
        assert executor.cache.kind is kinds
        ancestors = sorted(set(labels) | set(HYPERNYMS.values()))
        mutations = TaxonomyMutations(mutated, seed=3)
        rng = random.Random(f"session-memo:{capacity}")
        for burst in range(4):
            if burst:
                epoch = mutated.epoch
                mutations.run(25)
                assert mutated.epoch > epoch
            for label in labels:
                for ancestor in kind_of_sample(label, ancestors, rng):
                    want = full_scan_is_kind_of(mutated, label, ancestor)
                    # the first ask may walk, the second is a hit
                    assert executor._is_kind_of(label, ancestor) == want
                    assert executor._is_kind_of(label, ancestor) == want
                    assert session._cache._graph is mutated
                    assert 0 < len(kinds) <= capacity

    def test_more_answers_than_a_small_capacity(self, mvqa_base,
                                                monkeypatch):
        """More distinct ``kind of`` keys than a patched capacity keep
        the store within it, and every answer equals a full walk."""
        monkeypatch.setattr(cache_module, "KIND_CAPACITY", 8)
        graph, labels = mvqa_base
        session = SVQA(config=SVQAConfig(workers=1))
        session.adopt_merged(merged_of(clone(graph)))
        executor = session_executor(session)
        kinds = session._cache.kind
        for label in labels:
            for ancestor in ("animal", "pet", "vehicle"):
                assert executor._is_kind_of(label, ancestor) == \
                    full_scan_is_kind_of(executor.graph, label, ancestor), \
                    (label, ancestor)
                assert len(kinds) <= 8
        assert len(labels) * 3 > 8 and len(kinds) == 8

    def test_no_cache_ablation_keeps_no_answer(self, mvqa_base):
        """With both cache stores off the cache observes nothing, so
        the kind store holds nothing and a write that flips an answer
        is seen by the next ask."""
        graph, labels = mvqa_base
        question = "What kind of pets are watched by the people that " \
            "are feeding the horse?"
        session = SVQA(config=SVQAConfig(workers=1,
                                         enable_scope_cache=False,
                                         enable_path_cache=False))
        mutated = clone(graph)
        session.adopt_merged(merged_of(mutated))
        executor = session_executor(session)
        label = next(label for label in labels
                     if mutated.vertex_labels.ids(label)
                     and not full_scan_is_kind_of(mutated, label, "pet"))
        for flip in (False, True):
            if flip:
                mutated.add_edge(mutated.vertex_labels.ids(label)[0],
                                 mutated.vertex_labels.ids("pet")[0], IS_A)
            got = session.answer(question).to_dict()
            want = unplanned_answers(session, [question])[0].to_dict()
            assert got["answer"] == want["answer"]
            assert got["sources"] == want["sources"]
            assert executor._is_kind_of(label, "pet") is flip
            assert full_scan_is_kind_of(mutated, label, "pet") is flip
            assert len(session._cache.kind) == 0
        assert mutated._observers == []

    def test_a_new_graph_at_the_same_epoch_drops_the_answers(
            self, mvqa_base):
        graph, labels = mvqa_base
        session = SVQA(config=SVQAConfig(workers=1))
        session.adopt_merged(merged_of(clone(graph)))
        label, parent = next(
            (label, HYPERNYMS[label]) for label in labels
            if label in HYPERNYMS and full_scan_is_kind_of(
                graph, label, HYPERNYMS[label]))
        assert session_executor(session)._is_kind_of(label, parent)
        # same epoch, different graph: the remembered True must not
        # answer for a graph without the taxonomy
        bare = Graph(name=graph.name)
        for vertex in graph.vertices():
            bare.add_vertex(vertex.label, vertex.props, vertex_id=vertex.id)
        while bare.epoch < graph.epoch:
            bare.add_vertex("filler", {})
        assert bare.epoch == graph.epoch
        session.adopt_merged(merged_of(bare))
        executor = session_executor(session)
        assert executor._is_kind_of(label, parent) is False
        assert full_scan_is_kind_of(bare, label, parent) is False

    def test_threads_never_read_an_answer_of_another_epoch(self):
        """Eight threads over a 16-entry kind store while a ninth moves
        the epoch with writes every answer read: a call that saw no
        epoch move must return that epoch's answer, and the store never
        outgrows its bound."""

        class Moving:
            """A graph stand-in whose every write touches vertex 0."""

            epoch = 0
            observers = []

            def add_observer(self, observer):
                self.observers.append(observer)

            def write(self):
                self.epoch += 1
                for observer in self.observers:
                    observer.record({"op": "remove_vertex",
                                     "epoch": self.epoch, "id": 0})

        graph, cache = Moving(), KeyCentricCache.create()
        cache.kind.capacity = 16
        cache.bind(graph, ExecutorStats())
        stop = threading.Event()
        failures = []

        def answer(label, epoch):
            return (hash(label) + epoch) % 2 == 0

        def walk(label):
            return answer(label, graph.epoch), (Reads(held={0}),)

        def asker(seed):
            rng = random.Random(seed)
            for _ in range(3_000):
                label = f"label-{rng.randrange(40)}"
                before = graph.epoch
                got, _, _ = cache.kind_get_or_compute(
                    ("kind", label, "thing"),
                    lambda label=label: walk(label), cache.stamp())
                if graph.epoch == before and got != answer(label, before):
                    failures.append((label, before))
                if len(cache.kind) > cache.kind.capacity:
                    failures.append("over capacity")

        def mover():
            while not stop.is_set():
                graph.write()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            askers = [threading.Thread(target=asker, args=(i,))
                      for i in range(8)]
            moving = threading.Thread(target=mover)
            moving.start()
            for thread in askers:
                thread.start()
            for thread in askers:
                thread.join(timeout=60)
            stop.set()
            moving.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [*askers, moving])
        assert failures == []

    def test_workers_4_batch_under_sanitizer(self, mvqa_dataset,
                                             mvqa_base):
        graph, _ = mvqa_base
        questions = [q.text for q in mvqa_dataset.questions]
        previous = locks.current()
        if previous is not None:
            locks.uninstall(previous)
        system = SVQA(config=SVQAConfig(
            workers=4, sanitizer=SanitizerConfig(seed=11)))
        try:
            system.adopt_merged(merged_of(clone(graph)))
            first = system.answer_many(questions)
            second = system.answer_many(questions)
            assert system.sanitizer is not None
            report = system.sanitizer.report()
        finally:
            system.release_sanitizer()
            if previous is not None:
                locks.install(previous)
        assert report.clean, report.render()
        for role in ("cache.kind", "core.diagnostics"):
            assert role in report.lock_roles
            assert role in report.structures
        kinds = len(system._cache.kind)
        reports = len(executor_module._DIAGNOSTICS)
        assert kinds > 0 and reports > 0
        assert [a.value for a in second] == [a.value for a in first]
