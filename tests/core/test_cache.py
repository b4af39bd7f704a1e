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
        assert LFUCache(2).hit_rate == 0.0


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
        assert cache.hit_rate == pytest.approx(0.5)

    def test_put_existing_key_at_capacity_does_not_evict(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # full, but "a" is already resident
        assert len(cache) == 2
        assert cache.get("a") == 10
        assert cache.get("b") == 2

    def test_hit_rate_untouched_cache(self):
        assert LRUCache(2).hit_rate == 0.0


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


class TestKeyCentric:
    def test_scope_and_path_independent(self):
        cache = KeyCentricCache.create(pool_size=4)
        cache.put_scope("k", [1])
        cache.put_path("k", [2])
        assert cache.get_scope("k") == [1]
        assert cache.get_path("k") == [2]

    def test_disabled_cache_stores_nothing(self):
        cache = KeyCentricCache.disabled()
        cache.put_scope("k", [1])
        cache.put_path("k", [2])
        assert cache.get_scope("k") is None
        assert cache.get_path("k") is None

    def test_granularity_flags(self):
        cache = KeyCentricCache.create(pool_size=4, enabled_scope=True,
                                       enabled_path=False)
        cache.put_scope("k", [1])
        cache.put_path("k", [2])
        assert cache.get_scope("k") == [1]
        assert cache.get_path("k") is None

    def test_item_count(self):
        cache = KeyCentricCache.create(pool_size=4)
        cache.put_scope("a", 1)
        cache.put_path("b", 2)
        assert cache.item_count == 2

    def test_report(self):
        cache = KeyCentricCache.create(pool_size=4)
        cache.put_scope("a", 1)
        cache.get_scope("a")
        cache.get_scope("z")
        report = CacheReport.from_cache(cache)
        assert report.scope_hits == 1
        assert report.scope_misses == 1


class TestGetOrCompute:
    def test_miss_computes_and_fills(self):
        cache = KeyCentricCache.create(pool_size=4)
        value, hit = cache.scope_get_or_compute("k", lambda: [1, 2])
        assert (value, hit) == ([1, 2], False)
        value, hit = cache.scope_get_or_compute(
            "k", lambda: pytest.fail("must not recompute")
        )
        assert (value, hit) == ([1, 2], True)

    def test_disabled_always_computes(self):
        cache = KeyCentricCache.disabled()
        calls = []
        for _ in range(3):
            value, hit = cache.path_get_or_compute(
                "k", lambda: calls.append(1) or [9]
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
        value, hit = cache.scope_get_or_compute("k", lambda: [7])
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
                value, _ = cache.scope_get_or_compute(
                    key, lambda k=key: [k[1], k[1] + 1]
                )
                assert value == [key[1], key[1] + 1]
                pkey = ("path", i % 30)
                value, _ = cache.path_get_or_compute(
                    pkey, lambda k=pkey: [k[1] * 2]
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
            return [42]

        results = []

        def worker(_):
            entered.release()
            results.append(cache.scope_get_or_compute("k", compute))

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


class TestDropWhere:
    @pytest.mark.parametrize("factory", [LFUCache, LRUCache])
    def test_drops_matching_keys_only(self, factory):
        cache = factory(8)
        for key in ("a", "b", "stale-1", "stale-2"):
            cache.put(key, key.upper())
        dropped = cache.drop_where(lambda k: k.startswith("stale"))
        assert dropped == 2
        assert cache.get("a") == "A"
        assert cache.get("stale-1") is None

    @pytest.mark.parametrize("factory", [LFUCache, LRUCache])
    def test_counters_untouched(self, factory):
        cache = factory(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("z")
        hits, misses = cache.hits, cache.misses
        cache.drop_where(lambda k: True)
        assert (cache.hits, cache.misses) == (hits, misses)
        assert len(cache) == 0

    def test_surviving_entries_still_evict_correctly(self):
        cache = LFUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.drop_where(lambda k: k == "a")
        cache.put("c", 3)
        cache.put("d", 4)  # b is now least frequent
        assert len(cache) == 2


class TestRetireStale:
    def test_retires_only_older_epochs(self):
        cache = KeyCentricCache.create(pool_size=16)
        cache.put_scope(("scope", 1, "dog"), [1])
        cache.put_scope(("scope", 2, "dog"), [2])
        cache.put_path(("path", 1, "a", "b"), [(1, 2)])
        dropped = cache.retire_stale(2)
        assert dropped == 2
        assert cache.get_scope(("scope", 2, "dog")) == [2]
        assert cache.get_scope(("scope", 1, "dog")) is None
        assert cache.get_path(("path", 1, "a", "b")) is None

    def test_ignores_keys_without_epoch_shape(self):
        cache = KeyCentricCache.create(pool_size=8)
        cache.put_scope("plain", [1])
        cache.put_scope(("scope", "no-epoch"), [2])
        assert cache.retire_stale(5) == 0
        assert cache.get_scope("plain") == [1]

    def test_disabled_cache_is_a_noop(self):
        cache = KeyCentricCache.disabled()
        assert cache.retire_stale(3) == 0


class TestObserveEpoch:
    """The last-retired epoch lives on the shared cache, so executors
    built after a mutation (one per ``answer_many`` batch) still
    retire what the previous ones cached."""

    def test_first_observation_of_an_epoch_retires_once(self):
        cache = KeyCentricCache.create(pool_size=16)
        assert cache.observe_epoch(1) == 0
        cache.put_scope(("scope", 1, "dog"), [1])
        cache.put_path(("path", 1, "a", "b"), [(1, 2)])
        assert cache.observe_epoch(1) == 0
        assert cache.get_scope(("scope", 1, "dog")) == [1]
        assert cache.observe_epoch(2) == 2
        assert cache.observe_epoch(2) == 0
        assert cache.item_count == 0

    def test_concurrent_observers_retire_each_epoch_once(self):
        # every worker executor of a batch observes the same new epoch
        # at once; the check-then-retire must let exactly one through
        threads, epochs = 8, 60
        cache = KeyCentricCache.create(pool_size=64)
        retirements: list[int] = []
        retire = cache.retire_stale

        def counting_retire(epoch):
            retirements.append(epoch)
            return retire(epoch)

        cache.retire_stale = counting_retire
        barrier = threading.Barrier(threads, timeout=30)
        dropped = [0] * threads

        def observer(index):
            for epoch in range(1, epochs + 1):
                barrier.wait()
                if index == 0:
                    cache.put_scope(("scope", epoch - 1, "dog"), [epoch])
                barrier.wait()
                dropped[index] += cache.observe_epoch(epoch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=observer, args=(i,))
                       for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert sorted(retirements) == list(range(1, epochs + 1))
        assert sum(dropped) == epochs


class TestRetireStaleUnderContention:
    """Satellite: retire_stale racing mixed-epoch concurrent writers."""

    THREADS = 8

    def test_interleaved_mixed_epoch_writes(self):
        cache = KeyCentricCache.create(pool_size=64)
        stop = threading.Event()
        errors = []

        def writer(thread_index):
            try:
                for epoch in range(1, 200):
                    for slot in range(4):
                        key = ("scope", epoch % 3,
                               f"w{thread_index}-{slot}")
                        value, _ = cache.scope_get_or_compute(
                            key, lambda k=key: [k])
                        # a hit must return the value computed for
                        # exactly this key, never a retired ghost
                        assert value == [key]
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def retirer():
            try:
                while not stop.is_set():
                    for epoch in (1, 2, 3):
                        cache.retire_stale(epoch)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        writers = [threading.Thread(target=writer, args=(i,))
                   for i in range(self.THREADS - 2)]
        retirers = [threading.Thread(target=retirer) for _ in range(2)]
        for thread in writers + retirers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in retirers:
            thread.join()
        assert not errors

    def test_retire_concurrent_with_writes_drops_only_stale(self):
        cache = KeyCentricCache.create(pool_size=64)
        barrier = threading.Barrier(2)

        def write_fresh():
            barrier.wait()
            for i in range(200):
                cache.put_scope(("scope", 5, f"fresh-{i}"), [i])

        def retire_old():
            barrier.wait()
            for _ in range(50):
                cache.retire_stale(5)

        writers = threading.Thread(target=write_fresh)
        retirers = threading.Thread(target=retire_old)
        for key in range(30):
            cache.put_scope(("scope", 4, f"old-{key}"), [key])
        writers.start()
        retirers.start()
        writers.join()
        retirers.join()
        cache.retire_stale(5)  # settle: everything stale must be gone
        for key in range(30):
            assert cache.get_scope(("scope", 4, f"old-{key}")) is None
        survivors = sum(
            1 for i in range(200)
            if cache.get_scope(("scope", 5, f"fresh-{i}")) is not None
        )
        # epoch-5 writes are never collateral damage of retiring < 5
        # (pool eviction may drop some, but retire_stale must not)
        assert survivors > 0
