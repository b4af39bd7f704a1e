"""Differential tests of the batch path against the unplanned oracle.

There is no planning pass before a batch: ``answer_many`` orders the
parsed graphs (the §V-B scheduler, or the input order with it off) and
the executor reuses work through the key-centric cache alone.  A path
miss anchored on a static head fills that head's neighborhood in the
cache's ``nbr`` store, and later path misses under the head derive
their pairs from it (DESIGN.md §5j).  Answers must equal the
unplanned, uncached oracle of :mod:`tests.core.oracles`.
"""

import sys
import time

import pytest

from repro.analysis.concurrency.sanitizer import SanitizerConfig
from repro.core import (
    QueryGraphExecutor,
    SVQA,
    SVQAConfig,
    generate_query_graph,
)
from repro.core.cache import KeyCentricCache
from repro.core.stats import ExecutorStats
from repro.dataset.kg import build_commonsense_kg
from repro.graph.observe import Reads
from repro.synth import SceneGenerator
from tests.core.oracles import unplanned_answers
from tests.core.test_cache import held_items
from tests.core.test_executor import make_merged
from tests.core.test_scope_oracle import (  # noqa: F401 (fixtures)
    clone,
    merged_of,
    mvqa_base,
    mvqa_dataset,
)

QUESTIONS = [
    "How many dogs are standing on the grass?",
    "Is there a fence near the grass?",
    "What kind of animals is carried by the pets that are standing "
    "on the grass?",
    "Is there a cat near the grass?",
    "How many dogs are standing on the grass?",
    "Is there a dog near the fence?",
]

#: one-clause questions on the static head "dog", each with its own
#: path key
DOG_QUESTIONS = [
    "Is there a dog near the fence?",
    "How many dogs are standing on the grass?",
    "Is there a dog near the tree?",
    "Is there a dog near the car?",
    "Is there a dog near the bench?",
    "Is there a dog next to the person?",
    "Is there a dog near the cat?",
]


def build_system(**config):
    scenes = SceneGenerator(seed=31).generate_pool(40)
    system = SVQA(scenes, build_commonsense_kg(), SVQAConfig(**config))
    system.build()
    return system


@pytest.fixture(scope="module")
def svqa_on():
    return build_system(trace=True)


def answer_dicts(system, workers=1):
    return [a.to_dict() for a in system.answer_many(QUESTIONS,
                                                    workers=workers)]


def strip_latency(dicts):
    """Drop ``meta.latency``: cache reuse lowers per-query charges by
    design, while everything else must be byte-identical."""
    for payload in dicts:
        payload["meta"].pop("latency")
    return dicts


def held(cache, key):
    """The ``(source ids, edges)`` neighborhood the cache holds under
    ``key``, or ``None``."""
    found = cache.nbr._values.get(key)
    return None if found is None else found[0]


def fills(system):
    return system.stats.snapshot().plan_neighborhood_fills


def charges_of(system, ask):
    """The clock charges ``ask()`` adds, by operation."""
    before = dict(system.clock.counts)
    result = ask()
    delta = {name: count - before.get(name, 0)
             for name, count in system.clock.counts.items()
             if count != before.get(name, 0)}
    return result, delta


class TestPlannerEquivalence:
    def test_answers_equal_the_unplanned_oracle(self, svqa_on):
        """A batch answers exactly like the unplanned, uncached
        oracle, at any worker count."""
        oracle = strip_latency([a.to_dict() for a in
                                unplanned_answers(svqa_on, QUESTIONS)])
        for workers in (1, 4):
            assert strip_latency(answer_dicts(svqa_on, workers)) == \
                oracle, workers

    def test_worker_count_does_not_change_answers(self, svqa_on):
        assert answer_dicts(svqa_on, workers=1) == \
            answer_dicts(svqa_on, workers=4)


class TestSchedulerAblation:
    """``enable_scheduler=False`` keeps the input order, and the
    executor still shares neighborhoods across the batch."""

    def test_scheduler_off_keeps_input_order_and_shares(self, svqa_on):
        graphs = [generate_query_graph(q) for q in QUESTIONS]
        identity = list(range(len(QUESTIONS)))
        # precondition: the scheduler does reorder this batch
        assert svqa_on._batch_order(graphs) != identity
        answers_on = strip_latency(answer_dicts(svqa_on))
        off = build_system(enable_scheduler=False)
        assert off._batch_order(graphs) == identity
        assert strip_latency(answer_dicts(off)) == answers_on
        assert fills(off) > 0

    def test_unparseable_slots_run_last(self, svqa_on):
        graphs = [generate_query_graph(q) for q in QUESTIONS]
        graphs[1] = None
        order = svqa_on._batch_order(graphs)
        assert sorted(order) == list(range(len(QUESTIONS)))
        assert order[-1] == 1


class TestCacheOffAblation:
    """With a store off there is no reuse through it."""

    def test_cache_off_charges_equal_unplanned_oracle(self):
        config = dict(enable_scope_cache=False, enable_path_cache=False)
        system = build_system(**config)
        oracle = build_system(**config)
        answers = system.answer_many(QUESTIONS)
        expected = unplanned_answers(oracle, QUESTIONS)
        assert strip_latency([a.to_dict() for a in answers]) == \
            strip_latency([a.to_dict() for a in expected])
        # the score memo's fresh + probe counts do not depend on the
        # order the questions ran in, so every count must agree
        assert dict(system.clock.counts) == dict(oracle.clock.counts)
        assert fills(system) == 0
        assert held_items(system._cache) == 0

    def test_one_cache_off_shares_only_the_other_kind(self):
        scope_only = build_system(enable_path_cache=False)
        scope_only.answer_many(QUESTIONS)
        assert scope_only.cache_report().scope_hits > 0
        assert len(scope_only._cache.nbr) == 0
        assert fills(scope_only) == 0
        assert "pair_filter" not in scope_only.clock.counts
        path_only = build_system(enable_scope_cache=False)
        path_only.answer_many(QUESTIONS)
        assert len(path_only._cache.scope) == 0
        assert len(path_only._cache.nbr) > 0
        assert fills(path_only) > 0


class TestHeldNeighborhood:
    """A neighborhood is a cache entry: served while it holds, retired
    by the writes that touch what it read, never used for endpoints
    other than those it was computed from."""

    QUESTION = "Is there a fence near the grass?"
    KEY = ("nbr", "out", "fence")

    def baseline_value(self):
        executor = QueryGraphExecutor(make_merged())
        return executor.execute(generate_query_graph(self.QUESTION)).value

    def poisoned_executor(self, source_ids=None):
        # an empty neighborhood for the subject: if the executor serves
        # it no relation pair survives and the judgment flips to "no",
        # so a wrong use is a visibly wrong answer
        merged = make_merged()
        executor = QueryGraphExecutor(merged, cache=KeyCentricCache.create(),
                                      stats=ExecutorStats())
        ids = executor.match_vertex_label("fence")
        if source_ids is not None:
            ids = source_ids(ids)
        executor.cache.nbr_get_or_compute(
            self.KEY, lambda: ((ids, []), (Reads(out_of=ids),)),
            executor.cache.stamp())
        assert held(executor.cache, self.KEY) is not None
        return executor

    def test_poisoned_entry_is_served_when_source_ids_match(self):
        executor = self.poisoned_executor()
        answer = executor.execute(generate_query_graph(self.QUESTION))
        # positive control: the poison IS served, proving the guard
        # below is what protects
        assert answer.value != self.baseline_value()

    def test_entry_for_other_source_ids_is_never_used(self):
        for change in (lambda ids: ids[:-1], lambda ids: (*ids, 10**6),
                       lambda ids: ids[::-1]):
            executor = self.poisoned_executor(change)
            answer = executor.execute(generate_query_graph(self.QUESTION))
            assert answer.value == self.baseline_value()
            # the rescan replaced the entry, and counts as no stale
            # scope/path drop
            _, edges = held(executor.cache, self.KEY)
            assert edges
            assert executor.stats.snapshot().stale_scope_drops == 0

    def test_out_edge_write_retires_the_entry_and_is_rescanned(self):
        system = build_system()
        system.answer_many(QUESTIONS)
        cache = system._cache
        key = ("nbr", "out", "dog")
        source_ids, _ = held(cache, key)
        graph = system.merged.graph
        fence = graph.find_vertices("fence")[0]
        edge = graph.add_edge(source_ids[0], fence.id, "near")
        assert held(cache, key) is None
        question = "Is there a dog near the fence?"
        answers, delta = charges_of(
            system, lambda: system.answer_many([question]))
        assert delta.get("edge_scan", 0) > 0
        assert delta.get("pair_filter", 0) == 0
        pairs, _ = cache.path._values[
            ("path", ("dog", ""), ("fence", ""))]
        assert edge.id in [pair.edge.id for pair in pairs.pairs]
        # the rescan filled the neighborhood again, with the new edge
        _, edges = held(cache, key)
        assert edge.id in [e.id for e in edges]
        expected = unplanned_answers(system, [question])
        assert strip_latency([a.to_dict() for a in answers]) == \
            strip_latency([a.to_dict() for a in expected])

    def test_one_question_batch_derives_from_a_warm_batch(
            self, mvqa_dataset):
        system = SVQA(mvqa_dataset.scenes, mvqa_dataset.kg,
                      SVQAConfig(workers=1))
        system.build()
        system.answer_many([q.text for q in mvqa_dataset.questions])
        question = "Is there a dog near the grass?"
        assert held(system._cache, ("nbr", "out", "dog")) is not None
        before = fills(system)
        answers, delta = charges_of(
            system, lambda: system.answer_many([question]))
        assert delta.get("pair_filter", 0) > 0
        assert delta.get("edge_scan", 0) == 0
        assert fills(system) == before + 1
        expected = unplanned_answers(system, [question])
        assert strip_latency([a.to_dict() for a in answers]) == \
            strip_latency([a.to_dict() for a in expected])

    def test_one_question_ask_after_another_on_the_same_head_derives(self):
        system = build_system()
        first, second = DOG_QUESTIONS[:2]
        _, delta = charges_of(system, lambda: system.answer(first))
        assert delta.get("edge_scan", 0) > 0
        assert held(system._cache, ("nbr", "out", "dog")) is not None
        answer, delta = charges_of(system, lambda: system.answer(second))
        assert delta.get("edge_scan", 0) == 0
        assert delta.get("pair_filter", 0) > 0
        assert fills(system) == 1
        expected = unplanned_answers(system, [second])
        assert strip_latency([answer.to_dict()]) == \
            strip_latency([a.to_dict() for a in expected])


class TestWarmOneQuestionAsks:
    def test_re_ask_after_one_question_asks_scans_nothing(
            self, mvqa_dataset):
        """Asking the fast suite one question per ``answer()`` leaves
        what a re-ask needs in the stores: #53 (a scope another
        question shares) re-asked charges no scan or match."""
        system = SVQA(mvqa_dataset.scenes, mvqa_dataset.kg,
                      SVQAConfig(workers=1))
        system.build()
        questions = [q.text for q in mvqa_dataset.questions]
        for question in questions:
            system.answer(question)
        _, delta = charges_of(system, lambda: system.answer(questions[53]))
        for operation in ("scope_scan", "vertex_match", "edge_scan"):
            assert delta.get(operation, 0) == 0, (operation, delta)


class TestConcurrentFill:
    def test_racing_lanes_scan_a_shared_head_once(self, monkeypatch):
        """Lanes that miss the same static head wait for one fill."""
        system = build_system(workers=4,
                              sanitizer=SanitizerConfig(seed=31))
        side_edges = QueryGraphExecutor._side_edges

        def slow_scan(self, subjects, objects):
            # hold the scan open so the other lanes reach the head
            # while it runs
            time.sleep(0.05)
            return side_edges(self, subjects, objects)

        monkeypatch.setattr(QueryGraphExecutor, "_side_edges", slow_scan)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, delta = charges_of(
                system, lambda: system.answer_many(DOG_QUESTIONS))
            report = system.sanitizer.report()
        finally:
            sys.setswitchinterval(interval)
            system.release_sanitizer()
        assert report.clean, report.render()
        graph = system.merged.graph
        dogs = QueryGraphExecutor(system.merged).match_vertex_label("dog")
        assert delta["edge_scan"] == graph.out_degree_sum(dogs)
        assert [key for key in system._cache.nbr._values
                if key[2] == "dog"] == [("nbr", "out", "dog")]
        assert fills(system) == len(DOG_QUESTIONS) - 1

    def test_charges_are_worker_count_invariant_without_eviction(
            self, mvqa_dataset, mvqa_base):
        """With a pool that holds every key, nothing evicts, so the
        order lanes reach the stores cannot change what is charged."""
        graph, _ = mvqa_base
        questions = [q.text for q in mvqa_dataset.questions]
        counts = []
        for workers in (1, 4):
            for _ in range(5):
                system = SVQA(config=SVQAConfig(workers=workers,
                                                cache_pool_size=1000))
                system.adopt_merged(merged_of(clone(graph)))
                system.answer_many(questions)
                counts.append(dict(system.clock.counts))
        assert all(count == counts[0] for count in counts[1:])
