"""Differential tests for the warm-ask rewrites of the executor and
the resilience guard.

* ``_be_pairs`` pairs copular clauses in one pass over each side; it
  must equal the nested loop it replaced
  (:func:`tests.core.oracles.nested_be_pairs`), pair order included,
  on every ``be`` clause of the fast MVQA 100 and on small random
  graphs with same-label, same-id and taxonomy-free subjects;
* ``_resolve_slot`` resolves a bound slot to an id tuple; it must equal
  the dict merge it replaced
  (:func:`tests.core.oracles.dict_merged_slot_ids`);
* ``ResilienceManager.call`` runs a site with no fault spec directly:
  with a spec on one site only, that site still retries and trips,
  and every answer, fault event, charge and metric equals a run whose
  other sites go through the whole guard (a zero-rate spec on each,
  which injects nothing, as every site did before the fast path).
"""

import random
from collections import Counter

import pytest

from repro.core import SVQA, SVQAConfig, QueryGraphExecutor
from repro.core.aggregator import MergedGraph, MergeStats
from repro.dataset.mvqa import build_mvqa
from repro.graph import INSTANCE_OF, IS_A, Graph
from repro.resilience import FaultSpec, ResilienceConfig
from repro.resilience.faults import FAULT_SITES
from tests.core.oracles import dict_merged_slot_ids, nested_be_pairs

#: labels of the random graphs: case variants share a lowercased label
LABELS = ("dog", "Dog", "cat", "pet", "animal", "sofa", "grass")
RELATIONS = ("near", "on", "next to")

#: the site the guard tests fault, and how
FAULTED_SITE = "cache.scope"
FAULT = FaultSpec(rate=0.5, persistent_fraction=0.5, latency=0.02)


@pytest.fixture(scope="module")
def mvqa():
    return build_mvqa(seed=5, pool_size=1_200, image_count=400)


@pytest.fixture(scope="module")
def questions(mvqa):
    return [q.text for q in mvqa.questions]


@pytest.fixture(scope="module")
def built(mvqa):
    system = SVQA(mvqa.scenes, mvqa.kg, SVQAConfig())
    system.build()
    return system


def triples(pairs):
    """A pair list as comparable tuples (virtual edges are rebuilt on
    every call, so edges compare by their fields)."""
    return [(p.subject.id, p.edge.id, p.edge.src, p.edge.dst,
             p.edge.label, p.object.id) for p in pairs]


def random_graph(rng):
    """A small graph over :data:`LABELS` with relation edges (parallel
    ones included) and ``is a`` / ``instance of`` edges."""
    graph = Graph()
    ids = [graph.add_vertex(rng.choice(LABELS)).id
           for _ in range(rng.randint(2, 14))]
    for _ in range(rng.randint(0, 30)):
        src, dst = rng.choice(ids), rng.choice(ids)
        label = rng.choice((*RELATIONS, IS_A, INSTANCE_OF))
        graph.add_edge(src, dst, label)
    return graph, ids


def executor_over(graph):
    stats = MergeStats({}, [], 0.0, 0.0, 0, 0, 0)
    return QueryGraphExecutor(MergedGraph(graph=graph, stats=stats,
                                          instance_ids=[]))


class TestBePairs:
    def test_every_be_clause_of_the_fast_100(self, built, questions,
                                             monkeypatch):
        seen = []
        original = QueryGraphExecutor._be_pairs

        def recorded(self, subjects, objects):
            pairs = original(self, subjects, objects)
            seen.append((self.graph, subjects, objects, pairs))
            return pairs

        monkeypatch.setattr(QueryGraphExecutor, "_be_pairs", recorded)
        built.answer_many(questions)
        assert len(seen) >= 10
        for graph, subjects, objects, pairs in seen:
            want = nested_be_pairs(graph, graph.vertices_by_id(subjects),
                                   graph.vertices_by_id(objects))
            assert triples(pairs) == triples(want)

    @pytest.mark.parametrize("seed", range(200))
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        graph, ids = random_graph(rng)
        executor = executor_over(graph)
        for _ in range(5):
            subjects = tuple(rng.sample(ids, rng.randint(0, len(ids))))
            # objects often share ids (and so labels) with subjects
            objects = tuple(rng.sample(ids, rng.randint(0, len(ids))))
            want = nested_be_pairs(graph, graph.vertices_by_id(subjects),
                                   graph.vertices_by_id(objects))
            assert triples(executor._be_pairs(subjects, objects)) == \
                triples(want)

    def test_same_id_same_label_and_taxonomy_free_subjects(self):
        graph = Graph()
        dog = graph.add_vertex("dog").id
        other_dog = graph.add_vertex("Dog").id
        lone_cat = graph.add_vertex("cat").id
        pet = graph.add_vertex("pet").id
        graph.add_edge(dog, pet, IS_A)
        executor = executor_over(graph)
        cases = [
            ((dog,), (dog,)),                  # only itself: no pair
            ((dog, other_dog), (dog, other_dog)),
            ((dog,), (pet,)),                  # through the taxonomy
            ((lone_cat,), (pet, dog)),         # no taxonomy, no label
            ((), (dog,)),
            ((dog,), ()),
        ]
        for subjects, objects in cases:
            want = nested_be_pairs(graph, graph.vertices_by_id(subjects),
                                   graph.vertices_by_id(objects))
            assert triples(executor._be_pairs(subjects, objects)) == \
                triples(want), (subjects, objects)


class TestBoundSlots:
    def test_every_bound_slot_of_the_fast_100(self, built, questions,
                                              monkeypatch):
        seen = []
        original = QueryGraphExecutor._resolve_slot

        def recorded(self, term, bound_labels):
            ids = original(self, term, bound_labels)
            if bound_labels is not None:
                seen.append((self, list(bound_labels), ids))
            return ids

        monkeypatch.setattr(QueryGraphExecutor, "_resolve_slot", recorded)
        built.answer_many(questions)
        assert len(seen) >= 10
        for executor, labels, ids in seen:
            assert list(ids) == dict_merged_slot_ids(executor, labels)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_label_lists(self, built, seed):
        rng = random.Random(seed)
        executor = QueryGraphExecutor(built.merged)
        vocabulary = sorted(built.merged.graph.vertex_labels.labels())
        # overlapping expansions ("animal" holds "dog") and repeats
        labels = rng.sample(vocabulary, rng.randint(1, 4)) + \
            rng.sample(["animal", "dog", "pet", "person", "dog"],
                       rng.randint(0, 3))
        rng.shuffle(labels)
        assert list(executor._resolve_slot(None, labels)) == \
            dict_merged_slot_ids(executor, labels)


def guarded_session(built, specs):
    system = SVQA(config=SVQAConfig(resilience=ResilienceConfig(
        seed=3, fault_specs=specs)))
    system.adopt_merged(built.merged)
    return system


class TestGuardFastPath:
    def test_faulted_site_alone_takes_the_guard(self, built, questions):
        fast = guarded_session(built, {FAULTED_SITE: FAULT})
        full = guarded_session(built, {
            site: FAULT if site == FAULTED_SITE else FaultSpec(rate=0.0)
            for site in FAULT_SITES})
        # the guard reads a site's breaker on every call; the fast
        # path only to publish its gauge on the first
        consulted = Counter()
        breaker = fast.resilience._breaker

        def counted(site):
            consulted[site] += 1
            return breaker(site)

        fast.resilience._breaker = counted
        runs = []
        for system in (fast, full):
            answers = [system.answer(q) for q in questions]
            answers += system.answer_many(questions)
            runs.append((
                [a.to_dict() for a in answers],
                system.clock.counts,
                system.metrics_exposition(),
            ))
        assert runs[0] == runs[1]

        report = fast.stats.snapshot()
        assert dict(report.fault_sites) == {
            FAULTED_SITE: report.faults_injected}
        assert report.retry_attempts > 0
        assert report.breaker_trips > 0
        # (a question the grammar rejects still reports its parse)
        guarded = {e["site"] for answer in runs[0][0]
                   for e in answer["meta"]["fault_events"]
                   if e["kind"] in ("fault", "retry", "exhausted",
                                    "short-circuit")}
        assert guarded == {FAULTED_SITE}
        assert consulted[FAULTED_SITE] > 2 * len(questions)
        assert {site: count for site, count in consulted.items()
                if site != FAULTED_SITE} == dict.fromkeys(
            ("parse.question", "executor.match", "cache.path"), 1)
