"""Unit and property tests for LFU/LRU and the key-centric cache."""

import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cache import (
    CacheReport,
    KeyCentricCache,
    LFUCache,
    LRUCache,
    make_cache,
)
from repro.core.stats import ExecutorStats
from repro.graph import INSTANCE_OF, Graph
from repro.graph.observe import Reads


class TestLFU:
    def test_get_miss_returns_none(self):
        cache = LFUCache(2)
        assert cache.get("a") is None
        assert cache.misses == 1

    def test_put_get(self):
        cache = LFUCache(2)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1

    def test_evicts_least_frequent(self):
        cache = LFUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.get("a")
        cache.put("c", 3)  # b is least frequently used
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_frequency_ties_broken_by_recency(self):
        cache = LFUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # a and b tie on frequency; a is older
        assert cache.get("a") is None
        assert cache.get("b") == 2

    def test_capacity_never_exceeded(self):
        cache = LFUCache(3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) <= 3

    def test_zero_capacity_stores_nothing(self):
        cache = LFUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None

    def test_negative_capacity_raises(self):
        with pytest.raises(ValueError):
            LFUCache(-1)

    def test_update_existing_key(self):
        cache = LFUCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1

    def test_put_existing_key_at_capacity_does_not_evict(self):
        cache = LFUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # full, but "a" is already resident
        assert len(cache) == 2
        assert cache.get("a") == 10
        assert cache.get("b") == 2

    def test_tie_recency_refreshed_by_put(self):
        cache = LFUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 1)   # a: freq 2; b: freq 1 -> b is the victim
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_hit_rate_untouched_cache(self):
        assert LFUCache(2).counters() == (0, 0)


class TestLRU:
    def test_evicts_least_recent(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")      # refresh a
        cache.put("c", 3)   # b is least recent
        assert cache.get("b") is None
        assert cache.get("a") == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 10

    def test_capacity_never_exceeded(self):
        cache = LRUCache(3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) <= 3

    def test_hit_rate(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("z")
        assert cache.counters() == (1, 1)

    def test_put_existing_key_at_capacity_does_not_evict(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # full, but "a" is already resident
        assert len(cache) == 2
        assert cache.get("a") == 10
        assert cache.get("b") == 2

    def test_hit_rate_untouched_cache(self):
        assert LRUCache(2).counters() == (0, 0)


class TestFactoryAndProperties:
    def test_make_cache(self):
        assert isinstance(make_cache("lfu", 2), LFUCache)
        assert isinstance(make_cache("lru", 2), LRUCache)

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            make_cache("fifo", 2)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers()),
                    max_size=60),
           st.integers(1, 8),
           st.sampled_from(["lfu", "lru"]))
    def test_capacity_invariant(self, operations, capacity, policy):
        cache = make_cache(policy, capacity)
        for key, value in operations:
            cache.put(key, value)
            assert len(cache) <= capacity

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40),
           st.sampled_from(["lfu", "lru"]))
    def test_last_put_always_retrievable(self, keys, policy):
        cache = make_cache(policy, 3)
        for key in keys:
            cache.put(key, key * 10)
            assert cache.get(key) == key * 10


# Store and look up entries directly: keys are tagged with their
# store's name, as the executor's are (retirement finds the store of a
# key by its tag).

def put_scope(cache, key, value, deps=(), stamp=None):
    """Store a scope entry computed under ``stamp`` (no-op when the
    scope store is off)."""
    if cache.enabled_scope:
        cache._store(cache.scope, ("scope", key), value, deps, stamp)


def put_path(cache, key, value, deps=(), stamp=None):
    """Store a path entry computed under ``stamp``."""
    if cache.enabled_path:
        cache._store(cache.path, ("path", key), value, deps, stamp)


def put_nbr(cache, key, value, deps=(), stamp=None):
    """Fill a neighborhood through the store's get-or-compute."""
    cache.nbr_get_or_compute(("nbr", key), lambda: (value, deps), stamp)


def held(store, enabled, key):
    found = store.get((store.name, key)) if enabled else None
    return None if found is None else found[0]


def get_scope(cache, key):
    """The held scope entry under ``key`` (``None`` when missing)."""
    return held(cache.scope, cache.enabled_scope, key)


def get_path(cache, key):
    """The held path entry under ``key``."""
    return held(cache.path, cache.enabled_path, key)


def get_nbr(cache, key):
    """The held neighborhood under ``key``."""
    return held(cache.nbr, True, key)


def held_items(cache):
    """Entries held across every store."""
    return sum(len(store) for store in
               (cache.scope, cache.path, cache.nbr, cache.kind))


class TestKeyCentric:
    def test_scope_and_path_independent(self):
        cache = KeyCentricCache.create(pool_size=4)
        put_scope(cache, "k", [1])
        put_path(cache, "k", [2])
        put_nbr(cache, "k", [3])
        assert get_scope(cache, "k") == [1]
        assert get_path(cache, "k") == [2]
        assert get_nbr(cache, "k") == [3]

    def test_disabled_cache_stores_nothing(self):
        cache = KeyCentricCache.disabled()
        put_scope(cache, "k", [1])
        put_path(cache, "k", [2])
        put_nbr(cache, "k", [3])
        assert get_scope(cache, "k") is None
        assert get_path(cache, "k") is None
        assert get_nbr(cache, "k") is None

    def test_granularity_flags(self):
        cache = KeyCentricCache.create(pool_size=4, enabled_scope=True,
                                       enabled_path=False)
        put_scope(cache, "k", [1])
        put_path(cache, "k", [2])
        put_nbr(cache, "k", [3])
        assert get_scope(cache, "k") == [1]
        assert get_path(cache, "k") is None
        # the neighborhood store follows the path store
        assert get_nbr(cache, "k") is None

    def test_item_count(self):
        cache = KeyCentricCache.create(pool_size=4)
        put_scope(cache, "a", 1)
        put_path(cache, "b", 2)
        put_nbr(cache, "c", 3)
        assert held_items(cache) == 3

    def test_report(self):
        cache = KeyCentricCache.create(pool_size=4)
        put_scope(cache, "a", 1)
        get_scope(cache, "a")
        get_scope(cache, "z")
        report = CacheReport.from_cache(cache)
        assert report.scope_hits == 1
        assert report.scope_misses == 1


class TestGetOrCompute:
    """A computation returns ``(value, deps)``; a lookup returns
    ``(value, deps, hit)``."""

    def test_miss_computes_and_fills(self):
        cache = KeyCentricCache.create(pool_size=4)
        deps = (Reads(labels=("dog",)),)
        value, got, hit = cache.scope_get_or_compute(
            "k", lambda: ([1, 2], deps))
        assert (value, got, hit) == ([1, 2], deps, False)
        value, got, hit = cache.scope_get_or_compute(
            "k", lambda: pytest.fail("must not recompute")
        )
        assert (value, got, hit) == ([1, 2], deps, True)

    def test_disabled_always_computes(self):
        cache = KeyCentricCache.disabled()
        calls = []
        for _ in range(3):
            value, _, hit = cache.path_get_or_compute(
                "k", lambda: (calls.append(1) or [9], ())
            )
            assert (value, hit) == ([9], False)
        assert len(calls) == 3

    def test_leader_error_falls_back_to_follower_compute(self):
        cache = KeyCentricCache.create(pool_size=4)
        with pytest.raises(RuntimeError):
            cache.scope_get_or_compute(
                "k", lambda: (_ for _ in ()).throw(RuntimeError("boom"))
            )
        # the failed computation left nothing behind
        value, _, hit = cache.scope_get_or_compute("k", lambda: ([7], ()))
        assert (value, hit) == ([7], False)


class TestThreadSafety:
    """Stress the shared cache with >= 4 threads (the acceptance
    criterion): no exceptions, no lost updates, no duplicated work for
    concurrent misses on the same key."""

    THREADS = 8

    def _hammer(self, worker, threads=THREADS):
        errors = []

        def wrapped(thread_index):
            try:
                worker(thread_index)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        pool = [threading.Thread(target=wrapped, args=(i,))
                for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert errors == []

    @pytest.mark.parametrize("policy", ["lfu", "lru"])
    def test_store_invariants_under_contention(self, policy):
        cache = make_cache(policy, capacity=16)

        def worker(thread_index):
            for i in range(300):
                key = (thread_index + i) % 40
                cache.put(key, key * 10)
                value = cache.get(key)
                # evictions may drop the key, but a present value is
                # never a torn/foreign write
                assert value is None or value == key * 10
                assert len(cache) <= 16

        self._hammer(worker)
        assert cache.hits + cache.misses == self.THREADS * 300

    def test_key_centric_values_always_consistent(self):
        cache = KeyCentricCache.create(pool_size=32)

        def worker(thread_index):
            for i in range(200):
                key = ("scope", i % 50)
                value, _, _ = cache.scope_get_or_compute(
                    key, lambda k=key: ([k[1], k[1] + 1], ())
                )
                assert value == [key[1], key[1] + 1]
                pkey = ("path", i % 30)
                value, _, _ = cache.path_get_or_compute(
                    pkey, lambda k=pkey: ([k[1] * 2], ())
                )
                assert value == [pkey[1] * 2]

        self._hammer(worker)

    def test_concurrent_misses_compute_once(self):
        cache = KeyCentricCache.create(pool_size=4)
        release = threading.Event()
        entered = threading.Semaphore(0)
        computes = []

        def compute():
            computes.append(1)
            release.wait(timeout=5)
            return [42], ()

        results = []

        def worker(_):
            entered.release()
            value, _, hit = cache.scope_get_or_compute("k", compute)
            results.append((value, hit))

        pool = [threading.Thread(target=worker, args=(i,))
                for i in range(6)]
        for thread in pool:
            thread.start()
        for _ in pool:  # every thread reached the cache
            entered.acquire()
        release.set()   # let the single leader finish computing
        for thread in pool:
            thread.join()

        assert len(computes) == 1
        assert all(value == [42] for value, _ in results)
        # exactly one miss (the leader); everyone else observed a hit
        assert sum(1 for _, hit in results if not hit) == 1


    def test_a_lane_that_stored_after_the_miss_is_not_recomputed(self):
        """A leader that stores and leaves between another lane's
        store miss and its in-flight check: that lane takes the stored
        value instead of computing it a second time."""
        cache = KeyCentricCache.create(pool_size=4)
        computes = []

        def compute():
            computes.append(1)
            return [42], ()

        real_get = cache.scope.get
        raced = []

        def get(key, accept=None):
            found = real_get(key, accept)
            if found is None and not raced:
                raced.append(key)
                # the other lane runs to completion right here
                cache.scope_get_or_compute(key, compute)
            return found

        cache.scope.get = get
        value, _, hit = cache.scope_get_or_compute("k", compute)
        assert (value, hit) == ([42], True)
        assert raced == ["k"] and len(computes) == 1
        assert cache._inflight == {}


class TestDropWhere:
    """Dropping entries: ``pop`` one key (retirement), ``clear`` all
    (a rebind)."""

    @pytest.mark.parametrize("factory", [LFUCache, LRUCache])
    def test_drops_matching_keys_only(self, factory):
        cache = factory(8)
        for key in ("a", "b", "stale-1", "stale-2"):
            cache.put(key, key.upper())
        dropped = [cache.pop(k) for k in ("stale-1", "stale-2", "gone")]
        assert dropped == [True, True, False]
        assert len(cache) == 2
        assert cache.get("a") == "A"
        assert cache.get("stale-1") is None

    @pytest.mark.parametrize("factory", [LFUCache, LRUCache])
    def test_counters_untouched(self, factory):
        cache = factory(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("z")
        hits, misses = cache.hits, cache.misses
        cache.pop("a")
        cache.put("b", 2)
        cache.clear()
        assert (cache.hits, cache.misses) == (hits, misses)
        assert len(cache) == 0

    def test_surviving_entries_still_evict_correctly(self):
        cache = LFUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.pop("a")
        cache.put("c", 3)
        cache.put("d", 4)  # b is now least frequent
        assert len(cache) == 2


def bound_cache(pool_size=16, **flags):
    """A cache bound to a small graph: ``dog`` instances of a ``dog``
    concept, a ``fence`` and a ``grass``."""
    graph = Graph(name="merged")
    concept = graph.add_vertex("dog", {"kind": "concept"})
    dog = graph.add_vertex("dog", {"kind": "instance"})
    graph.add_edge(dog.id, concept.id, INSTANCE_OF)
    graph.add_vertex("fence")
    graph.add_vertex("grass")
    cache = KeyCentricCache.create(pool_size=pool_size, **flags)
    cache.bind(graph, ExecutorStats())
    return cache, graph


def scope_keys(cache):
    return sorted(key[1] for key in cache.scope._values)


class TestRetireStale:
    """A write retires exactly the entries whose reads it touches."""

    def test_retires_only_touched_entries(self):
        cache, graph = bound_cache()
        put_scope(cache, "dog", [0, 1], (Reads(labels=("dog",)),),
                        cache.stamp())
        put_scope(cache, "cat", [], (Reads(labels=("cat",)),),
                        cache.stamp())
        put_path(cache, "near", [], (Reads(out_of={2}),), cache.stamp())
        put_nbr(cache, "out", [], (Reads(out_of={2}),), cache.stamp())
        put_nbr(cache, "in", [], (Reads(into={2}),), cache.stamp())
        graph.add_vertex("dog")
        assert scope_keys(cache) == ["cat"]
        assert get_path(cache, "near") == []
        graph.add_edge(2, 3, "near")
        assert get_path(cache, "near") is None
        assert get_nbr(cache, "out") is None
        assert get_nbr(cache, "in") == []
        # a taxonomy edge at 2 is not an "other" out-edge of 2
        put_path(cache, "near", [], (Reads(out_of={2}),), cache.stamp())
        graph.add_edge(2, 3, "is a")
        assert get_path(cache, "near") == []

    def test_entries_that_read_nothing_touched_survive(self):
        cache, graph = bound_cache()
        put_scope(cache, "dog", [0, 1], (Reads(),), cache.stamp())
        graph.add_vertex("dog")
        graph.relabel_vertex(3, "zeppelin")
        graph.add_edge(2, 3, "near")
        graph.remove_vertex(2)
        assert get_scope(cache, "dog") == [0, 1]

    def test_disabled_cache_is_a_noop(self):
        cache = KeyCentricCache.disabled()
        graph = Graph()
        cache.bind(graph, ExecutorStats())
        assert graph._observers == []
        graph.add_vertex("dog")
        assert held_items(cache) == 0

    def test_each_write_retires_once(self):
        stats = ExecutorStats()
        cache, graph = bound_cache()
        cache.bind(graph, stats)
        held = frozenset({1})
        put_scope(cache, "dog", [1], (Reads(held=held, tax_in=held),),
                        cache.stamp())
        put_path(cache, "p", [], (Reads(held=held),), cache.stamp())
        put_nbr(cache, "n", [], (Reads(held=held),), cache.stamp())
        graph.relabel_vertex(1, "cat")
        assert held_items(cache) == 0
        # stale drops count scope and path entries only
        assert stats.snapshot().stale_scope_drops == 2
        graph.relabel_vertex(1, "dog")
        assert stats.snapshot().stale_scope_drops == 2

    def test_new_label_is_tested_with_the_candidate_predicate(self):
        cache, graph = bound_cache()
        for query in ("puppies", "horse"):
            put_scope(cache, query, [], (Reads(probes=((query, 0.34,
                                                       True),)),),
                            cache.stamp())
        # "puppy" is new to the graph and number-normalizes to
        # "puppies"; "zeppelin" matches neither lookup
        graph.add_vertex("zeppelin")
        assert scope_keys(cache) == ["horse", "puppies"]
        graph.add_vertex("puppy")
        assert scope_keys(cache) == ["horse"]

    def test_edge_removal_retires_by_edge_id(self):
        cache, graph = bound_cache()
        edge = graph.add_edge(2, 3, "near")
        put_path(cache, "p", [edge.id], (Reads(edges={edge.id}),),
                       cache.stamp())
        put_path(cache, "q", [], (Reads(edges={0}),), cache.stamp())
        graph.remove_edge(edge.id)
        assert get_path(cache, "p") is None
        assert get_path(cache, "q") == []

    def test_dependent_entries_outlive_an_evicted_entry(self):
        # an entry may depend on the reads of another (a possessive
        # scope on its owner's lookup); evicting the other must not
        # detach the dependent entry from them
        cache, graph = bound_cache(pool_size=1)
        owner_reads = Reads(labels=("dog",))
        put_scope(cache, "dog", [0, 1], (owner_reads,), cache.stamp())
        put_path(cache, "p", [], (Reads(), owner_reads), cache.stamp())
        cat_reads = Reads(labels=("cat",))
        put_scope(cache, "cat", [], (cat_reads,), cache.stamp())
        assert scope_keys(cache) == ["cat"]
        graph.add_vertex("dog")
        assert get_path(cache, "p") is None
        assert list(cache._index._reads["labels"]) == [cat_reads]

    def test_value_computed_across_a_write_is_not_kept(self):
        cache, graph = bound_cache()
        stamp = cache.stamp()
        graph.add_vertex("fence")
        put_scope(cache, "fence", [3], (Reads(labels=("fence",)),), stamp)
        value, _, hit = cache.scope_get_or_compute(
            "grass", lambda: (graph.add_vertex("hay") and [4], ()),
            cache.stamp())
        assert (value, hit) == ([4], False)
        assert held_items(cache) == 0

    def test_rebinding_empties_the_stores(self):
        cache, graph = bound_cache()
        put_scope(cache, "dog", [0, 1], (), cache.stamp())
        put_nbr(cache, "out", [], (), cache.stamp())
        other = Graph()
        cache.bind(other, ExecutorStats())
        assert held_items(cache) == 0
        assert all(o is not cache for o in graph._observers)
        assert any(o is cache for o in other._observers)


class TestRetireStaleUnderContention:
    """Retirement racing concurrent lookups and stores."""

    THREADS = 8

    def test_interleaved_lookups_and_retirements(self):
        cache, graph = bound_cache(pool_size=64)
        errors = []

        def reader(thread_index):
            try:
                for i in range(200):
                    key = ("scope", f"w{thread_index}-{i % 4}")
                    value, _, _ = cache.scope_get_or_compute(
                        key, lambda k=key: ([k],
                                            (Reads(labels=("dog",)),)),
                        cache.stamp())
                    # a hit must return the value computed for
                    # exactly this key, never a retired ghost
                    assert value == [key]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def writer():
            try:
                for _ in range(100):
                    graph.relabel_vertex(1, "dog")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(self.THREADS - 1)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(cache._index) == len(cache.scope)

    def test_retire_concurrent_with_writes_drops_only_stale(self):
        cache, graph = bound_cache(pool_size=400)
        barrier = threading.Barrier(2)

        def write_fresh():
            barrier.wait()
            for i in range(200):
                put_scope(cache, ("scope", f"fresh-{i}"), [i],
                                (Reads(labels=("cat",)),), cache.stamp())

        def retire_old():
            barrier.wait()
            for _ in range(50):
                graph.add_vertex("dog")

        for key in range(30):
            put_scope(cache, ("scope", f"old-{key}"), [key],
                            (Reads(labels=("dog",)),), cache.stamp())
        writers = threading.Thread(target=write_fresh)
        retirers = threading.Thread(target=retire_old)
        writers.start()
        retirers.start()
        writers.join()
        retirers.join()
        for key in range(30):
            assert get_scope(cache, ("scope", f"old-{key}")) is None
        survivors = sum(
            1 for i in range(200)
            if get_scope(cache, ("scope", f"fresh-{i}")) is not None
        )
        # entries that read "cat" are never collateral damage of
        # writes of "dog" (a store racing a write may be refused, but
        # retirement must not drop it)
        assert survivors > 0
        graph.add_vertex("cat")
        assert held_items(cache) == 0

    def test_racing_writer_leaves_no_stale_value(self):
        """Eight threads fill entries derived from a vertex's label
        while a ninth relabels it: at quiescence every kept entry holds
        the current label."""
        cache, graph = bound_cache(pool_size=64)
        vertex = graph.vertex(1)
        stop = threading.Event()

        def reader(seed):
            for i in range(2_000):
                key = ("scope", f"{seed}-{i % 8}")
                cache.scope_get_or_compute(
                    key, lambda: ([vertex.label],
                                  (Reads(held=frozenset({1})),)),
                    cache.stamp())

        def writer():
            labels = ["dog", "cat", "puppy"]
            i = 0
            while not stop.is_set():
                graph.relabel_vertex(1, labels[i % 3])
                i += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=reader, args=(i,))
                       for i in range(8)]
            moving = threading.Thread(target=writer)
            moving.start()
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=60)
            stop.set()
            moving.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [*readers, moving])
        for key, (value, _) in list(cache.scope._values.items()):
            assert value == [vertex.label], key
