"""Caching: LFU / LRU stores and the key-centric scope/path cache (§V-B).

The executor's two expensive operations are cached:

* **scope** — ``matchVertex`` results: a term key -> the matched
  merged-graph vertex ids (the full label scan this avoids is the
  "scope" of the paper);
* **path** — ``getRelationpairs`` results: a (subject-key, object-key)
  pair -> the relation pairs (the neighborhood traversal this avoids
  is the "path").  The predicate is deliberately *not* part of the
  key: retrieval collects every relation between the two endpoint
  sets, and predicate filtering (``maxScore``) happens afterwards, so
  one cached neighborhood serves every predicate over the same
  endpoints.

Both sit on an evicting store; the paper uses LFU [39] and compares it
against LRU [47] in Figure 11, so both policies are implemented behind
one interface.

All stores are thread-safe: every ``get``/``put`` (and the hit/miss
counters) runs under a per-store lock, and ``KeyCentricCache`` offers
an atomic get-or-compute so concurrent misses on the same key perform
the expensive computation exactly once (the other threads wait for the
leader and receive its value, as a hit).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from collections.abc import Callable, Hashable
from typing import Any

from repro.locks import note_read, note_write, wrap_lock


class EvictingCache:
    """Interface: a bounded key-value store with an eviction policy.

    Subclasses must guard every operation with ``self._lock`` so one
    store can be shared by a pool of worker threads.  ``name`` is the
    store's sanitizer role (``cache.scope`` / ``cache.path``); locks
    are created through :func:`repro.locks.wrap_lock`, so with no
    sanitizer installed this is the raw ``RLock``.
    """

    def __init__(self, capacity: int, *, name: str = "store") -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.hits = 0
        self.misses = 0
        self._lock = wrap_lock(threading.RLock(), f"cache.{name}")

    def get(self, key: Hashable) -> Any | None:
        """Return the cached value, or ``None`` on a miss."""
        raise NotImplementedError

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value``, evicting per the policy when full."""
        raise NotImplementedError

    def drop_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Remove every entry whose key satisfies ``predicate``;
        returns how many were dropped.  Hit/miss counters are
        untouched — retirement is not a lookup."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Number of entries currently stored."""
        raise NotImplementedError

    def counters(self) -> tuple[int, int]:
        """``(hits, misses)`` read atomically under the store lock."""
        with self._lock:
            return self.hits, self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 before any lookup)."""
        hits, misses = self.counters()
        total = hits + misses
        return hits / total if total else 0.0


class LFUCache(EvictingCache):
    """Least-Frequently-Used eviction; ties broken by recency (older
    first), which is the classic LFU-with-aging behaviour."""

    def __init__(self, capacity: int, *, name: str = "store") -> None:
        super().__init__(capacity, name=name)
        self._values: dict[Hashable, Any] = {}
        self._frequency: dict[Hashable, int] = {}
        self._clock = 0
        self._last_used: dict[Hashable, int] = {}

    def get(self, key: Hashable) -> Any | None:
        """Look up ``key``, bumping its frequency on a hit."""
        with self._lock:
            note_read(f"cache.{self.name}", key)
            if key not in self._values:
                self.misses += 1
                return None
            self.hits += 1
            self._touch(key)
            return self._values[key]

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value``, evicting the least-frequent entry."""
        if self.capacity == 0:
            return
        with self._lock:
            note_write(f"cache.{self.name}", key)
            if key not in self._values and \
                    len(self._values) >= self.capacity:
                self._evict()
            self._values[key] = value
            self._touch(key)

    def _touch(self, key: Hashable) -> None:
        self._clock += 1
        self._frequency[key] = self._frequency.get(key, 0) + 1
        self._last_used[key] = self._clock

    def _evict(self) -> None:
        victim = min(
            self._values,
            key=lambda k: (self._frequency[k], self._last_used[k]),
        )
        del self._values[victim]
        del self._frequency[victim]
        del self._last_used[victim]

    def drop_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Remove every entry whose key satisfies ``predicate``."""
        with self._lock:
            note_write(f"cache.{self.name}")
            victims = [k for k in self._values if predicate(k)]
            for key in victims:
                del self._values[key]
                del self._frequency[key]
                del self._last_used[key]
            return len(victims)

    def __len__(self) -> int:
        """Number of entries currently stored."""
        with self._lock:
            return len(self._values)


class LRUCache(EvictingCache):
    """Least-Recently-Used eviction."""

    def __init__(self, capacity: int, *, name: str = "store") -> None:
        super().__init__(capacity, name=name)
        self._values: OrderedDict[Hashable, Any] = OrderedDict()

    def get(self, key: Hashable) -> Any | None:
        """Look up ``key``, marking it most recently used on a hit."""
        with self._lock:
            note_read(f"cache.{self.name}", key)
            if key not in self._values:
                self.misses += 1
                return None
            self.hits += 1
            self._values.move_to_end(key)
            return self._values[key]

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value``, evicting the least-recent entry."""
        if self.capacity == 0:
            return
        with self._lock:
            note_write(f"cache.{self.name}", key)
            if key in self._values:
                self._values.move_to_end(key)
            elif len(self._values) >= self.capacity:
                self._values.popitem(last=False)
            self._values[key] = value

    def drop_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Remove every entry whose key satisfies ``predicate``."""
        with self._lock:
            note_write(f"cache.{self.name}")
            victims = [k for k in self._values if predicate(k)]
            for key in victims:
                del self._values[key]
            return len(victims)

    def __len__(self) -> int:
        """Number of entries currently stored."""
        with self._lock:
            return len(self._values)


def make_cache(policy: str, capacity: int, *,
               name: str = "store") -> EvictingCache:
    """Factory: ``"lfu"`` or ``"lru"``."""
    if policy == "lfu":
        return LFUCache(capacity, name=name)
    if policy == "lru":
        return LRUCache(capacity, name=name)
    raise ValueError(f"unknown cache policy: {policy!r}")


class _InFlight:
    """A computation currently running for a cache key (single-flight)."""

    __slots__ = ("done", "value", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None


@dataclass
class KeyCentricCache:
    """The §V-B two-level cache over matchVertex and getRelationpairs.

    ``enabled_scope`` / ``enabled_path`` allow the Figure-10(b)
    granularity ablation (No / Scope / Path / Both).

    The ``*_get_or_compute`` methods make miss-then-fill atomic under
    concurrency: the first thread to miss a key becomes the *leader*
    and runs the computation; threads that miss the same key while the
    leader is working wait for its result instead of recomputing, and
    observe it as a hit (the expensive work happened exactly once).
    """

    scope: EvictingCache
    path: EvictingCache
    enabled_scope: bool = True
    enabled_path: bool = True
    _inflight: dict[Hashable, _InFlight] = field(
        default_factory=dict, init=False, repr=False
    )
    _inflight_lock: Any = field(
        default_factory=lambda: wrap_lock(threading.Lock(),
                                          "cache.inflight"),
        init=False, repr=False,
    )
    # the graph epoch the stores were last retired to; shared by every
    # executor over this cache (the serving path builds one per batch)
    _retired_epoch: int | None = field(default=None, init=False,
                                       repr=False)
    _epoch_lock: Any = field(
        default_factory=lambda: wrap_lock(threading.Lock(),
                                          "cache.epoch"),
        init=False, repr=False,
    )

    @classmethod
    def create(
        cls,
        pool_size: int = 100,
        policy: str = "lfu",
        enabled_scope: bool = True,
        enabled_path: bool = True,
    ) -> KeyCentricCache:
        """Build scope and path stores of ``pool_size`` entries each."""
        return cls(
            scope=make_cache(policy, pool_size, name="scope"),
            path=make_cache(policy, pool_size, name="path"),
            enabled_scope=enabled_scope,
            enabled_path=enabled_path,
        )

    @classmethod
    def disabled(cls) -> KeyCentricCache:
        """A no-op cache: every lookup misses, nothing is stored."""
        return cls.create(pool_size=0, enabled_scope=False,
                          enabled_path=False)

    # scope ---------------------------------------------------------------
    def get_scope(self, key: Hashable) -> Any | None:
        """Scope-store lookup (``None`` when disabled or missing)."""
        if not self.enabled_scope:
            return None
        return self.scope.get(key)

    def put_scope(self, key: Hashable, value: Any) -> None:
        """Store a matchVertex scope result (no-op when disabled)."""
        if self.enabled_scope:
            self.scope.put(key, value)

    # path ----------------------------------------------------------------
    def get_path(self, key: Hashable) -> Any | None:
        """Path-store lookup (``None`` when disabled or missing)."""
        if not self.enabled_path:
            return None
        return self.path.get(key)

    def put_path(self, key: Hashable, value: Any) -> None:
        """Store a getRelationpairs result (no-op when disabled)."""
        if self.enabled_path:
            self.path.put(key, value)

    # atomic get-or-compute ------------------------------------------------
    def scope_get_or_compute(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> tuple[Any, bool]:
        """``(value, hit)`` for a scope key; computes at most once."""
        return self._get_or_compute(self.scope, self.enabled_scope,
                                    key, compute)

    def path_get_or_compute(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> tuple[Any, bool]:
        """``(value, hit)`` for a path key; computes at most once."""
        return self._get_or_compute(self.path, self.enabled_path,
                                    key, compute)

    def _get_or_compute(
        self,
        store: EvictingCache,
        enabled: bool,
        key: Hashable,
        compute: Callable[[], Any],
    ) -> tuple[Any, bool]:
        if not enabled:
            return compute(), False
        value = store.get(key)
        if value is not None:
            return value, True
        # single-flight: scope and path keys share the in-flight table
        # without colliding because every key is prefix-tagged
        with self._inflight_lock:
            note_write("cache.inflight", key)
            entry = self._inflight.get(key)
            leader = entry is None
            if leader:
                entry = _InFlight()
                self._inflight[key] = entry
        if leader:
            try:
                value = compute()
                entry.value = value
                store.put(key, value)
            except BaseException as exc:
                entry.error = exc
                raise
            finally:
                entry.done.set()
                with self._inflight_lock:
                    note_write("cache.inflight", key)
                    self._inflight.pop(key, None)
            return value, False
        entry.done.wait()
        if entry.error is not None:
            # the leader failed; fall back to computing independently
            return compute(), False
        return entry.value, True

    def retire_stale(self, epoch: int) -> int:
        """Drop every scope/path entry tagged with a graph epoch other
        than ``epoch``; returns how many entries were retired.

        Executor cache keys follow the ``(kind, epoch, ...)``
        convention (lint rule RP007), so staleness is decidable from
        the key alone — entries written under an older epoch describe a
        merged graph that no longer exists and must never be served.
        """
        def stale(key: Hashable) -> bool:
            return (
                isinstance(key, tuple)
                and len(key) >= 2
                and isinstance(key[1], int)
                and key[1] != epoch
            )

        dropped = 0
        if self.enabled_scope:
            dropped += self.scope.drop_where(stale)
        if self.enabled_path:
            dropped += self.path.drop_where(stale)
        return dropped

    def observe_epoch(self, epoch: int) -> int:
        """Retire stale entries on the first observation of ``epoch``.

        Returns how many entries were retired; 0 when the stores are
        already current.  The last-retired epoch lives on the cache,
        not on an executor, so retirement happens once per graph
        mutation however many executors share the cache.
        """
        with self._epoch_lock:
            note_write("cache.epoch")
            if epoch == self._retired_epoch:
                return 0
            self._retired_epoch = epoch
            return self.retire_stale(epoch)

    @property
    def item_count(self) -> int:
        """Entries held across both stores."""
        return len(self.scope) + len(self.path)


@dataclass
class CacheReport:
    """Hit/miss statistics after a batch run."""

    scope_hits: int
    scope_misses: int
    path_hits: int
    path_misses: int

    @classmethod
    def from_cache(cls, cache: KeyCentricCache) -> CacheReport:
        """Snapshot the hit/miss counters of both stores."""
        scope_hits, scope_misses = cache.scope.counters()
        path_hits, path_misses = cache.path.counters()
        return cls(scope_hits, scope_misses, path_hits, path_misses)
