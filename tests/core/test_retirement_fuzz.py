"""Differential fuzz of key-level retirement: a long-lived session
against an oracle that remembers nothing.

The session's key-centric cache, its ``kind of`` store included,
observes the merged graph's writes and retires only the entries a
write can change (:mod:`repro.graph.observe`).  The oracle is the same
executor with no cache, built afresh for every question, which is
what a write used to leave behind.  Both run on clones of the fast-MVQA
merged graph, and a seeded script applies the same writes to both: all
five mutators, taxonomy edges, relabels to existing and to brand-new
labels (near misses of the question vocabulary, so the candidate
predicate is exercised) and concept removals whose cascades drop many
``instance of`` edges.  Half the writes land on vertices the questions
resolve to.

After every burst the session and the oracle are compared on answer
values (workers 1 and 4), asked first one question per batch and then
as one batch, on scope id lists and ``kind of`` answers (against the
full-scan oracles), and on every relation-pair list the session's
executors serve (against :func:`full_scan_path_pairs`).  The
one-question batches run after every path entry was evicted, so their
path misses derive from the neighborhoods earlier asks left in the
cache, across the writes since: the fuzz counts those derivations and
requires some.
Every scope entry the session still holds must resolve to a fresh
recomputation (or ask for one), every neighborhood it holds must equal
a fresh scan of the vertices it was computed from, and every ``kind
of`` answer it holds must equal a fresh walk.  A writer thread racing
reader threads (``sys.setswitchinterval(1e-6)``) checks the store
guard: at quiescence every entry that is held still equals a fresh
recomputation, and every path entry served is right.

Only retention changed, and each entry is still computed by the
unchanged code, so a bug the session and the oracle share stays
invisible here (ROADMAP item 5's independent matcher covers those).
``make scope-fuzz`` runs the same checks over more seeds and bursts.
"""

import random
import sys
import threading

import pytest

from repro.core import SVQA, KeyCentricCache, QueryGraphExecutor, SVQAConfig
from repro.core import generate_query_graph
from repro.core.spoc import Term
from repro.errors import ReproError
from repro.graph import INSTANCE_OF, IS_A, TAXONOMY_LABELS, Graph
from repro.nlp.semlex import HYPERNYMS
from tests.core.oracles import (
    full_scan_is_kind_of,
    full_scan_path_pairs,
    full_scan_scope_ids,
)
from tests.core.test_scope_oracle import (  # noqa: F401 (fixtures)
    clone,
    kind_of_sample,
    merged_of,
    mvqa_base,
    mvqa_dataset,
    session_executor,
)

#: questions compared after every burst
QUESTIONS = 40
#: path misses a run must derive from a neighborhood held across a
#: write (the tier-1 runs derive ~50)
MIN_HELD_DERIVATIONS = 20


def fresh_labels(vocabulary: list[str]) -> list[str]:
    """Labels no vertex carries yet that the vocabulary's lookups may
    accept: plurals, case variants, one-letter misses, plus unrelated
    words."""
    labels = set()
    for word in vocabulary:
        labels.update({word + "s", word.upper(), word[:-1] + "x"})
    labels.update(f"zeppelin-{i}" for i in range(8))
    return sorted(labels)


class Writes:
    """The same seeded writes, applied to every graph in ``graphs``
    (clones, so ids stay aligned); drawn from the first graph's state."""

    def __init__(self, graphs: list[Graph], seed: int,
                 vocabulary: list[str]) -> None:
        self.graphs = graphs
        self.rng = random.Random(seed)
        base = graphs[0]
        self.vertex_labels = sorted({v.label for v in base.vertices()})
        self.edge_labels = sorted({e.label for e in base.edges()})
        self.fresh = fresh_labels(vocabulary)
        self.hot = [label for label in self.vertex_labels
                    if label.lower() in {w.lower() for w in vocabulary}]
        # vertices this script added (edge-less until it links them)
        self.added: list[int] = []

    def _apply(self, name: str, *args):
        """Apply one write to every graph; the first graph's result."""
        results = [getattr(graph, name)(*args) for graph in self.graphs]
        return results[0]

    def _label(self) -> str:
        if self.rng.random() < 0.3:
            return self.rng.choice(self.fresh)
        if self.rng.random() < 0.5:
            return self.rng.choice(self.hot)
        return self.rng.choice(self.vertex_labels)

    def _vertex(self, vertex_ids: list[int]) -> int:
        graph = self.graphs[0]
        added = [v for v in self.added[-8:] if graph.has_vertex(v)]
        if added and self.rng.random() < 0.25:
            # a vertex that joined a label (and maybe a cached entry's
            # endpoints) edge-less, now written to
            return self.rng.choice(added)
        if self.rng.random() < 0.5:
            hot = graph.vertex_labels.ids(self.rng.choice(self.hot))
            if hot:
                return self.rng.choice(hot)
        return self.rng.choice(vertex_ids)

    def _twin(self, vertex_id: int) -> tuple[int, int, str] | None:
        """A relation edge of another vertex with ``vertex_id``'s
        label, moved to ``vertex_id`` (as its source or its target):
        a pair a cached entry over that label's vertices would gain."""
        graph = self.graphs[0]
        label = graph.vertex(vertex_id).label
        edges = [
            (edge, edge.src == other)
            for other in graph.vertex_labels.ids(label) if other != vertex_id
            for edge in graph.out_edges(other) + graph.in_edges(other)
            if edge.label not in TAXONOMY_LABELS]
        if not edges:
            return None
        edge, outgoing = self.rng.choice(edges)
        if outgoing:
            return vertex_id, edge.dst, edge.label
        return edge.src, vertex_id, edge.label

    def run(self, ops: int) -> None:
        rng, graph = self.rng, self.graphs[0]
        for _ in range(ops):
            vertex_ids = sorted(graph.vertex_ids())
            kind = rng.choice(["add_vertex", "add_edge", "remove_edge",
                               "remove_vertex", "relabel_vertex"])
            if kind == "add_vertex" or len(vertex_ids) < 2:
                vertex = self._apply("add_vertex", self._label(),
                                     {"kind": "instance"})
                self.added.append(vertex.id)
            elif kind == "add_edge":
                label = rng.choice([IS_A, INSTANCE_OF]) \
                    if rng.random() < 0.4 else rng.choice(self.edge_labels)
                src, dst = self._vertex(vertex_ids), self._vertex(vertex_ids)
                related = graph.out_edges(src)
                twin = self._twin(src) if src in self.added else None
                if twin is not None and rng.random() < 0.5:
                    src, dst, label = twin
                elif related and rng.random() < 0.5:
                    # one more edge between already related vertices:
                    # it joins endpoint sets a cached entry pairs up
                    dst = rng.choice(related).dst
                elif rng.random() < 0.5:
                    src, dst = dst, src
                if src != dst:
                    self._apply("add_edge", src, dst, label)
            elif kind == "remove_edge":
                taxonomy = sorted(graph.edge_labels.ids(IS_A)
                                  + graph.edge_labels.ids(INSTANCE_OF))
                pool = taxonomy if taxonomy and rng.random() < 0.5 \
                    else sorted(e.id for e in graph.edges())
                if pool:
                    self._apply("remove_edge", rng.choice(pool))
            elif kind == "remove_vertex":
                concepts = sorted(graph.taxonomy_targets())
                added = [v for v in self.added if graph.has_vertex(v)]
                if concepts and rng.random() < 0.3:
                    self._apply("remove_vertex", rng.choice(concepts))
                elif added and rng.random() < 0.5:
                    self._apply("remove_vertex", rng.choice(added))
                else:
                    self._apply("remove_vertex", self._vertex(vertex_ids))
            else:
                self._apply("relabel_vertex", self._vertex(vertex_ids),
                            self._label())


def oracle_answers(graph: Graph, questions: list[str], config) -> list:
    """Each question on a fresh executor: no cache."""
    values = []
    for question in questions:
        try:
            query_graph = generate_query_graph(question)
        except ReproError:
            values.append("unknown")
            continue
        executor = QueryGraphExecutor(merged_of(graph), config=config)
        values.append(executor.execute(query_graph).value)
    return values


@pytest.fixture
def served_pairs(monkeypatch):
    """Check every relation-pair list a caching executor serves
    against the full scan; yields the list of mismatches."""
    mismatches = []
    original = QueryGraphExecutor._relation_pairs

    def checked(self, spoc, binding, subjects, objects, *args):
        entry = original(self, spoc, binding, subjects, objects, *args)
        if self.cache.enabled_path:
            got = [(p.subject.id, p.edge.id, p.object.id)
                   for p in entry.pairs]
            want = full_scan_path_pairs(self.graph, subjects, objects)
            if got != want:
                mismatches.append((spoc.predicate, got, want))
        return entry

    monkeypatch.setattr(QueryGraphExecutor, "_relation_pairs", checked)
    return mismatches


class Derivations:
    """Path misses derived from a held neighborhood: ``total``, and
    ``held`` -- those whose neighborhood was stored before a write
    that did not retire it."""

    def __init__(self) -> None:
        self.total = 0
        self.held = 0
        # neighborhood key -> the epoch it was last stored at
        self.stored: dict[tuple, int] = {}


@pytest.fixture
def derivations(monkeypatch):
    """Count every path result derived from a held neighborhood."""
    seen = Derivations()
    get_or_compute = KeyCentricCache.nbr_get_or_compute

    def counted(self, key, compute, stamp=None, accept=None):
        def fill():
            seen.stored[key] = stamp
            return compute()

        value, deps, hit = get_or_compute(self, key, fill, stamp, accept)
        if hit:
            seen.total += 1
            seen.held += stamp != seen.stored[key]
        return value, deps, hit

    monkeypatch.setattr(KeyCentricCache, "nbr_get_or_compute", counted)
    return seen


def assert_held_entries_are_current(session: SVQA, graph: Graph) -> None:
    """Every scope entry the session holds resolves, if it resolves at
    all, to a fresh recomputation on ``graph``, every neighborhood it
    holds equals a fresh scan of the vertices it was computed from,
    and every ``kind of`` answer it holds equals a fresh walk."""
    config = session.config.executor
    fresh = QueryGraphExecutor(merged_of(graph), config=config)
    stamp = session._cache.stamp()
    for key, (entry, _) in list(session._cache.scope._values.items()):
        if key[0] == "scope":
            want = full_scan_scope_ids(graph, key[1], config)
        else:
            term = Term(text=key[2], head=key[2], owner=key[1])
            want = list(fresh.match_vertex(term))
        assert entry.resolve(graph, stamp) in (None, want), key
    for key, ((source_ids, edges), _) in \
            list(session._cache.nbr._values.items()):
        # a source vertex that left took no edge of the entry with it
        sources = [i for i in source_ids if graph.has_vertex(i)]
        subjects, objects = (sources, []) if key[1] == "out" \
            else ([], sources)
        assert [(e.src, e.id, e.dst) for e in edges] \
            == full_scan_path_pairs(graph, subjects, objects), key
    for (_, label, ancestor), (known, _) in \
            list(session._cache.kind._values.items()):
        assert known == full_scan_is_kind_of(graph, label, ancestor), \
            (label, ancestor)


def evict_path_entries(cache: KeyCentricCache) -> None:
    """Evict every path entry, as a full bounded pool would."""
    with cache._lock:
        for key in list(cache.path._values):
            cache._index.discard(key)
        cache.path.clear()


def run_retirement_fuzz(dataset, base: Graph, labels: list[str],
                        seed: int, workers: int, bursts: int,
                        ops: int) -> None:
    questions = [q.text for q in dataset.questions][:QUESTIONS]
    session = SVQA(config=SVQAConfig(workers=workers))
    mutated, oracle = clone(base), clone(base)
    session.adopt_merged(merged_of(mutated))
    config = session.config.executor
    executor = session_executor(session)
    ancestors = sorted(set(labels) | set(HYPERNYMS.values()))
    writes = Writes([mutated, oracle], seed, labels)
    rng = random.Random(f"retire:{seed}")
    for burst in range(bursts + 1):
        if burst:
            # short bursts between long ones: an entry read after one
            # write is read again after the next
            writes.run(ops if burst % 2 else rng.randint(1, 3))
        want = oracle_answers(oracle, questions, config)
        if burst:
            # one question per batch after the bounded pool evicted
            # every path entry: each path miss on a static head
            # derives from the neighborhood earlier asks left
            evict_path_entries(session._cache)
            singles = [session.answer_many([q])[0].value for q in questions]
            assert singles == want, burst
        got = [a.value for a in session.answer_many(questions)]
        assert got == want, burst
        for label in labels:
            assert list(executor.match_vertex_label(label)) == \
                full_scan_scope_ids(oracle, label, config), (burst, label)
            for ancestor in kind_of_sample(label, ancestors, rng):
                assert executor._is_kind_of(label, ancestor) == \
                    full_scan_is_kind_of(oracle, label, ancestor)
        assert_held_entries_are_current(session, oracle)
    # the writes really were retired key by key, not all at once
    assert session.stats.snapshot().stale_scope_drops > 0
    assert session.cache_report().scope_hits > 0


@pytest.mark.parametrize("workers", [1, 4])
def test_session_matches_the_oracle_under_writes(mvqa_dataset, mvqa_base,
                                                 served_pairs, derivations,
                                                 workers):
    graph, labels = mvqa_base
    run_retirement_fuzz(mvqa_dataset, graph, labels, seed=workers,
                        workers=workers, bursts=3, ops=30)
    assert served_pairs == []
    assert derivations.held >= MIN_HELD_DERIVATIONS


def run_writer_race(dataset, base: Graph, labels: list[str], seed: int,
                    ops: int, served_pairs: list) -> None:
    session = SVQA(config=SVQAConfig(workers=1))
    graph = clone(base)
    session.adopt_merged(merged_of(graph))
    questions = [q.text for q in dataset.questions][:QUESTIONS]
    session.answer_many(questions)
    graphs = []
    for question in questions:
        try:
            graphs.append(generate_query_graph(question))
        except ReproError:
            pass
    stop = threading.Event()
    failures: list[BaseException] = []

    def reader(index: int) -> None:
        executor = QueryGraphExecutor(
            session.merged, cache=session._cache,
            config=session.config.executor, stats=session.stats)
        turn = index
        while not stop.is_set():
            try:
                executor.execute(graphs[turn % len(graphs)])
            except (ReproError, KeyError, RuntimeError, ValueError):
                pass  # the graph changed under the walk
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)
                return
            turn += 1

    def writer() -> None:
        try:
            Writes([graph], seed, labels).run(ops)
        except BaseException as exc:  # pragma: no cover
            failures.append(exc)
        finally:
            stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(3)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    # a pair list served while a write was landing may differ from a
    # scan made after it; only what is served at quiescence is checked
    served_pairs.clear()
    assert_held_entries_are_current(session, graph)
    got = [a.value for a in session.answer_many(questions)]
    assert got == oracle_answers(graph, questions, session.config.executor)


def test_a_racing_writer_leaves_no_stale_entry(mvqa_dataset, mvqa_base,
                                               served_pairs):
    graph, labels = mvqa_base
    run_writer_race(mvqa_dataset, graph, labels, seed=5, ops=300,
                    served_pairs=served_pairs)
    assert served_pairs == []


class TestRecheckOnRead:
    """Focused cases the seeded script rarely builds."""

    def session_over(self, graph: Graph) -> QueryGraphExecutor:
        session = SVQA(config=SVQAConfig(workers=1))
        session.adopt_merged(merged_of(graph))
        return session_executor(session)

    def assert_scope_is_fresh(self, executor, label):
        fresh = QueryGraphExecutor(merged_of(executor.graph))
        assert executor.match_vertex_label(label) == \
            fresh.match_vertex_label(label)

    def test_a_concept_moving_between_matched_labels_is_rescanned(self):
        # "dog" matches the labels "dog" and "dogs"; moving concept A
        # from one to the other reorders the walk's instance sweep
        graph = Graph(name="merged")
        concept_a = graph.add_vertex("dog")
        concept_b = graph.add_vertex("dog")
        graph.add_vertex("dogs")
        for concept, name in ((concept_a, "spot"), (concept_a, "rex"),
                              (concept_b, "fido")):
            instance = graph.add_vertex(name)
            graph.add_edge(instance.id, concept.id, INSTANCE_OF)
        executor = self.session_over(graph)
        self.assert_scope_is_fresh(executor, "dog")
        graph.relabel_vertex(concept_a.id, "dogs")
        self.assert_scope_is_fresh(executor, "dog")

    def test_isolated_vertices_joining_and_leaving_keep_the_entry(self):
        graph = Graph(name="merged")
        concept = graph.add_vertex("dog")
        instance = graph.add_vertex("dog")
        graph.add_edge(instance.id, concept.id, INSTANCE_OF)
        executor = self.session_over(graph)
        self.assert_scope_is_fresh(executor, "dog")
        misses = executor.stats.snapshot().scope_misses
        first, second = graph.add_vertex("dog"), graph.add_vertex("dog")
        self.assert_scope_is_fresh(executor, "dog")
        graph.relabel_vertex(first.id, "cat")
        self.assert_scope_is_fresh(executor, "dog")
        graph.remove_vertex(second.id)
        self.assert_scope_is_fresh(executor, "dog")
        assert executor.stats.snapshot().scope_misses == misses
        # the instance leaving with its taxonomy edge is rescanned
        graph.relabel_vertex(instance.id, "cat")
        self.assert_scope_is_fresh(executor, "dog")
        # a joined vertex with a taxonomy edge makes the walk differ
        other = graph.add_vertex("dog")
        graph.add_edge(graph.add_vertex("pup").id, other.id, INSTANCE_OF)
        self.assert_scope_is_fresh(executor, "dog")
        assert executor.stats.snapshot().scope_misses > misses


class TestPossessiveRetirement:
    """A possessive scope is not rechecked on read: the writes that
    change its owners or their out-edges retire it."""

    TERM = Term("Harry Potter's girlfriend", "girlfriend",
                owner="Harry Potter")

    def assert_fresh(self, executor):
        fresh = QueryGraphExecutor(merged_of(executor.graph))
        assert executor.match_vertex(self.TERM) == \
            fresh.match_vertex(self.TERM)

    def test_owner_and_out_edge_writes(self):
        from tests.core.test_executor import make_merged

        graph = make_merged().graph
        session = SVQA(config=SVQAConfig(workers=1))
        session.adopt_merged(merged_of(graph))
        executor = session_executor(session)
        self.assert_fresh(executor)
        owner = graph.find_vertices("Harry Potter")[0]
        target = graph.add_vertex("Cho Chang")
        graph.add_edge(owner.id, target.id, "girlfriend")
        self.assert_fresh(executor)
        second = graph.add_vertex("Harry Potter")
        graph.add_edge(second.id, graph.add_vertex("Luna").id,
                       "girlfriend")
        self.assert_fresh(executor)
        graph.relabel_vertex(owner.id, "Ron Weasley")
        self.assert_fresh(executor)
        graph.remove_vertex(second.id)
        self.assert_fresh(executor)

    def test_taxonomy_edge_into_an_owner_that_joined(self):
        """An owner vertex that joined its label with no edges is
        accepted by the owner lookup's recheck; a later ``instance
        of`` edge into it changes the owners, and so the targets."""
        from tests.core.test_executor import make_merged

        graph = make_merged().graph
        session = SVQA(config=SVQAConfig(workers=1))
        session.adopt_merged(merged_of(graph))
        executor = session_executor(session)
        self.assert_fresh(executor)
        joined = graph.add_vertex("Harry Potter")
        self.assert_fresh(executor)
        x = graph.add_vertex("wizard")
        graph.add_edge(x.id, graph.add_vertex("Ginny").id, "girlfriend")
        self.assert_fresh(executor)
        graph.add_edge(x.id, joined.id, INSTANCE_OF)
        self.assert_fresh(executor)
