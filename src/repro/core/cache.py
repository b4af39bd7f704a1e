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

A third store holds neighborhoods (``nbr``): the full non-taxonomy
edge set on one side of a label's vertices, keyed by that one endpoint
(``("nbr", direction, label)``).  The executor fills one on a path
miss anchored on a static label, and a later path miss under the same
label derives its pairs from it by membership filtering instead of
rescanning.  It is on exactly when the path store is.

A fourth store (``kind``) holds the answer side's ``kind of`` answers
(is label L under ancestor A in the ``is a`` hierarchy), keyed
``("kind", label, ancestor)`` and retired like the others; they charge
nothing, so it holds a constant :data:`KIND_CAPACITY` entries whatever
the pool size.

All four sit on an evicting store; the paper uses LFU [39] and
compares it against LRU [47] in Figure 11, so both policies are
implemented behind one interface.

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
from typing import TYPE_CHECKING, Any

from repro.core.stats import ExecutorStats
from repro.graph.observe import ReadIndex, Reads
from repro.locks import note_read, note_write, wrap_lock

if TYPE_CHECKING:
    from repro.graph.model import Graph

#: a cache-miss computation: the value and the reads it depends on
Computation = Callable[[], tuple[Any, tuple[Reads, ...]]]

#: ``kind of`` answers the kind store keeps, whatever the pool size:
#: each holds its walk's reads (~5.3 kB), so a full store is ~5.4 MB;
#: the fast and paper MVQA runs hold 18 and 15
KIND_CAPACITY = 1024

#: the store each key tag names (a possessive's scope is a scope entry)
_STORE_OF_TAG = {"scope": "scope", "scope-poss": "scope", "path": "path",
                 "nbr": "nbr", "kind": "kind"}

_GONE = object()


class EvictingCache:
    """Interface: a bounded key-value store with an eviction policy.

    Subclasses must guard every operation with ``self._lock`` so one
    store can be shared by a pool of worker threads.  ``name`` is the
    store's sanitizer role (``cache.scope`` / ``cache.path`` /
    ``cache.nbr`` / ``cache.kind``); locks are created through
    :func:`repro.locks.wrap_lock`, so with no sanitizer installed this
    is the raw ``RLock``.
    """

    #: every stored key and its value (each policy keeps its own order)
    _values: dict[Hashable, Any]

    def __init__(self, capacity: int, *, name: str = "store") -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.hits = 0
        self.misses = 0
        self._role = f"cache.{name}"
        self._lock = wrap_lock(threading.RLock(), self._role)

    def get(self, key: Hashable,
            accept: Callable[[Any], bool] | None = None) -> Any | None:
        """Return the cached value, or ``None`` on a miss; a value
        ``accept`` rejects counts as a miss (and stays stored)."""
        raise NotImplementedError

    def put(self, key: Hashable, value: Any) -> Hashable | None:
        """Insert ``value``, evicting per the policy when full; returns
        the evicted key (``None`` when nothing was evicted)."""
        raise NotImplementedError

    def peek(self, key: Hashable,
             accept: Callable[[Any], bool] | None = None) -> Any | None:
        """The stored value ``accept`` takes, or ``None``, counting
        nothing and refreshing nothing (a second look that is not a
        lookup of its own)."""
        with self._lock:
            note_read(self._role, key)
            value = self._values.get(key, _GONE)
            if value is _GONE or (accept is not None and not accept(value)):
                return None
            return value

    def pop(self, key: Hashable) -> bool:
        """Remove ``key``; whether it was stored.  Hit/miss counters
        are untouched — retirement is not a lookup."""
        raise NotImplementedError

    def clear(self) -> None:
        """Remove every entry (counters untouched)."""
        raise NotImplementedError

    def __len__(self) -> int:
        """Number of entries currently stored."""
        raise NotImplementedError

    def counters(self) -> tuple[int, int]:
        """``(hits, misses)`` read atomically under the store lock."""
        with self._lock:
            return self.hits, self.misses


class LFUCache(EvictingCache):
    """Least-Frequently-Used eviction; ties broken by recency (older
    first), which is the classic LFU-with-aging behaviour."""

    def __init__(self, capacity: int, *, name: str = "store") -> None:
        super().__init__(capacity, name=name)
        self._values: dict[Hashable, Any] = {}
        self._frequency: dict[Hashable, int] = {}
        self._clock = 0
        self._last_used: dict[Hashable, int] = {}

    def get(self, key: Hashable,
            accept: Callable[[Any], bool] | None = None) -> Any | None:
        """Look up ``key``, bumping its frequency on a hit."""
        with self._lock:
            note_read(self._role, key)
            if key not in self._values or \
                    (accept is not None and not accept(self._values[key])):
                self.misses += 1
                return None
            self.hits += 1
            self._touch(key)
            return self._values[key]

    def put(self, key: Hashable, value: Any) -> Hashable | None:
        """Insert ``value``, evicting the least-frequent entry."""
        if self.capacity == 0:
            return None
        with self._lock:
            note_write(self._role, key)
            victim = None
            if key not in self._values and \
                    len(self._values) >= self.capacity:
                victim = self._evict()
            self._values[key] = value
            self._touch(key)
            return victim

    def _touch(self, key: Hashable) -> None:
        self._clock += 1
        self._frequency[key] = self._frequency.get(key, 0) + 1
        self._last_used[key] = self._clock

    def _evict(self) -> Hashable:
        victim = min(
            self._values,
            key=lambda k: (self._frequency[k], self._last_used[k]),
        )
        del self._values[victim]
        del self._frequency[victim]
        del self._last_used[victim]
        return victim

    def pop(self, key: Hashable) -> bool:
        """Remove ``key``; whether it was stored."""
        with self._lock:
            note_write(self._role, key)
            if self._values.pop(key, _GONE) is _GONE:
                return False
            del self._frequency[key]
            del self._last_used[key]
            return True

    def clear(self) -> None:
        """Remove every entry."""
        with self._lock:
            note_write(self._role)
            self._values.clear()
            self._frequency.clear()
            self._last_used.clear()

    def __len__(self) -> int:
        """Number of entries currently stored."""
        with self._lock:
            return len(self._values)


class LRUCache(EvictingCache):
    """Least-Recently-Used eviction."""

    def __init__(self, capacity: int, *, name: str = "store") -> None:
        super().__init__(capacity, name=name)
        self._values: OrderedDict[Hashable, Any] = OrderedDict()

    def get(self, key: Hashable,
            accept: Callable[[Any], bool] | None = None) -> Any | None:
        """Look up ``key``, marking it most recently used on a hit."""
        with self._lock:
            note_read(self._role, key)
            if key not in self._values or \
                    (accept is not None and not accept(self._values[key])):
                self.misses += 1
                return None
            self.hits += 1
            self._values.move_to_end(key)
            return self._values[key]

    def put(self, key: Hashable, value: Any) -> Hashable | None:
        """Insert ``value``, evicting the least-recent entry."""
        if self.capacity == 0:
            return None
        with self._lock:
            note_write(self._role, key)
            victim = None
            if key in self._values:
                self._values.move_to_end(key)
            elif len(self._values) >= self.capacity:
                victim = self._values.popitem(last=False)[0]
            self._values[key] = value
            return victim

    def pop(self, key: Hashable) -> bool:
        """Remove ``key``; whether it was stored."""
        with self._lock:
            note_write(self._role, key)
            return self._values.pop(key, _GONE) is not _GONE

    def clear(self) -> None:
        """Remove every entry."""
        with self._lock:
            note_write(self._role)
            self._values.clear()

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
    granularity ablation (No / Scope / Path / Both); the neighborhood
    store follows ``enabled_path``.  A fourth store keeps the
    executor's ``kind of`` answers (``("kind", label, ancestor)``
    keys, :data:`KIND_CAPACITY` entries); it is on whenever the cache
    observes its graph, that is unless both ablation flags are off.

    The ``*_get_or_compute`` methods make miss-then-fill atomic under
    concurrency: the first thread to miss a key becomes the *leader*
    and runs the computation; threads that miss the same key under
    the same stamp while the leader is working wait for its result
    instead of recomputing, and observe it as a hit (the expensive
    work happened exactly once).

    Keys name what was asked (a label, a pair of slot keys), never an
    epoch, and start with the tag of their store.  Each entry is
    stored with the :class:`~repro.graph.observe.Reads` its
    computation made, and the cache, bound to one graph
    (:meth:`bind`), observes that graph's writes: an op retires exactly
    the entries whose reads it touches (:mod:`repro.graph.observe`).
    A value is stored only under a :meth:`stamp` taken before it was
    computed and still current afterwards, so a value a write raced
    with is handed out but never kept.
    """

    scope: EvictingCache
    path: EvictingCache
    nbr: EvictingCache
    kind: EvictingCache
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
    # the observed graph, the epoch of its last op retired here, and
    # every stored entry by what it read; all under _lock
    _graph: Graph | None = field(default=None, init=False, repr=False)
    _observed: int = field(default=0, init=False, repr=False)
    #: counts retired and stale scope and path entries; the owner's
    #: collector from :meth:`bind` on, a private one until then
    stats: ExecutorStats = field(default_factory=ExecutorStats,
                                 init=False, repr=False)
    _index: ReadIndex = field(default_factory=ReadIndex, init=False,
                              repr=False)
    _lock: Any = field(
        default_factory=lambda: wrap_lock(threading.Lock(),
                                          "cache.retire"),
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
        """Build scope, path and neighborhood stores of ``pool_size``
        entries each, and the kind store."""
        return cls(
            scope=make_cache(policy, pool_size, name="scope"),
            path=make_cache(policy, pool_size, name="path"),
            nbr=make_cache(policy, pool_size, name="nbr"),
            kind=make_cache(policy, KIND_CAPACITY, name="kind"),
            enabled_scope=enabled_scope,
            enabled_path=enabled_path,
        )

    @classmethod
    def disabled(cls) -> KeyCentricCache:
        """A no-op cache: every lookup misses, nothing is stored."""
        return cls.create(pool_size=0, enabled_scope=False,
                          enabled_path=False)

    # the write stream ------------------------------------------------------
    def bind(self, graph: Graph, stats: ExecutorStats) -> None:
        """Hold entries for ``graph`` and observe its writes.

        Rebinding to another graph empties every store.  ``stats``
        counts retired scope and path entries from here on.  A cache
        with the scope and path stores disabled holds nothing and
        observes nothing.
        """
        if not self._observing:
            return
        with self._lock:
            note_write("cache.retire")
            self.stats = stats
            previous = self._graph
            if previous is graph:
                return
            self._graph = graph
            self._observed = graph.epoch
            self._index = ReadIndex()
            for store in self._stores():
                store.clear()
        if previous is not None:
            previous.remove_observer(self)
        graph.add_observer(self)

    def stamp(self) -> int | None:
        """The bound graph's epoch when every write up to it has been
        retired here, else ``None`` (a retirement is in flight, or the
        cache is unbound): pass it to a lookup made before computing
        the value it may store."""
        graph = self._graph
        if graph is None:
            return None
        epoch = graph.epoch
        return epoch if self._observed == epoch else None

    def record(self, op: dict[str, Any]) -> None:
        """Observer hook: retire the entries ``op`` can change."""
        with self._lock:
            note_write("cache.retire")
            keys = self._index.affected(op, self._label_is_new)
            dropped = 0
            if keys:
                stores = {store.name: store for store in self._stores()}
                for key in keys:
                    self._index.discard(key)
                    name = _STORE_OF_TAG[key[0]]
                    # counted: the scope and path entries (the
                    # stale-drop family's meaning)
                    if stores[name].pop(key) and name in ("scope", "path"):
                        dropped += 1
            self._observed = op["epoch"]
            stats = self.stats
        if dropped:
            stats.record_stale_scope_drops(dropped)

    @property
    def _observing(self) -> bool:
        return self.enabled_scope or self.enabled_path

    def _stores(self) -> tuple[EvictingCache, ...]:
        return self.scope, self.path, self.nbr, self.kind

    def _label_is_new(self, label: str) -> bool:
        graph = self._graph
        return graph is not None and graph.vertex_labels.count(label) <= 1

    def _store(self, store: EvictingCache, key: Hashable, value: Any,
               deps: tuple[Reads, ...], stamp: int | None) -> None:
        if store.capacity == 0:
            return
        with self._lock:
            note_write("cache.retire", key)
            graph = self._graph
            if graph is not None and \
                    (stamp is None or graph.epoch != stamp):
                return
            evicted = store.put(key, (value, deps))
            self._index.add(key, deps)
            if evicted is not None:
                self._index.discard(evicted)

    # atomic get-or-compute ------------------------------------------------
    def scope_get_or_compute(
        self, key: Hashable, compute: Computation,
        stamp: int | None = None,
        accept: Callable[[Any], bool] | None = None,
    ) -> tuple[Any, tuple[Reads, ...], bool]:
        """``(value, deps, hit)`` for a scope key; computes at most
        once.  ``compute()`` returns ``(value, deps)``; a stored value
        ``accept`` rejects is recomputed."""
        return self._get_or_compute(self.scope, self.enabled_scope,
                                    key, compute, stamp, accept)

    def path_get_or_compute(
        self, key: Hashable, compute: Computation,
        stamp: int | None = None,
        accept: Callable[[Any], bool] | None = None,
    ) -> tuple[Any, tuple[Reads, ...], bool]:
        """``(value, deps, hit)`` for a path key, as
        :meth:`scope_get_or_compute`."""
        return self._get_or_compute(self.path, self.enabled_path,
                                    key, compute, stamp, accept)

    def nbr_get_or_compute(
        self, key: Hashable, compute: Computation,
        stamp: int | None = None,
        accept: Callable[[Any], bool] | None = None,
    ) -> tuple[Any, tuple[Reads, ...], bool]:
        """``(value, deps, hit)`` for a neighborhood key, as
        :meth:`scope_get_or_compute`; on exactly when the path store
        is."""
        return self._get_or_compute(self.nbr, self.enabled_path,
                                    key, compute, stamp, accept)

    def kind_get_or_compute(
        self, key: Hashable, compute: Computation,
        stamp: int | None = None,
    ) -> tuple[Any, tuple[Reads, ...], bool]:
        """``(value, deps, hit)`` for a ``kind of`` key, as
        :meth:`scope_get_or_compute`; on whenever the cache observes
        its graph."""
        return self._get_or_compute(self.kind, self._observing,
                                    key, compute, stamp)

    def _get_or_compute(
        self,
        store: EvictingCache,
        enabled: bool,
        key: Hashable,
        compute: Computation,
        stamp: int | None,
        accept: Callable[[Any], bool] | None = None,
    ) -> tuple[Any, tuple[Reads, ...], bool]:
        if not enabled or (stamp is None and self._graph is not None):
            # disabled, or a write is being retired: serve nothing
            # that write may have changed, and keep nothing
            value, deps = compute()
            return value, deps, False
        rejected: list[Hashable] = []

        def check(kept: tuple[Any, tuple[Reads, ...]]) -> bool:
            if accept is None or accept(kept[0]):
                return True
            rejected.append(key)
            return False

        found = store.get(key, check)
        if found is not None:
            return found[0], found[1], True
        if rejected and store in (self.scope, self.path):
            # a write made it stale; it is found out on this read (a
            # neighborhood rejected for other endpoint ids is not a
            # scope/path entry, so it is not counted)
            self.stats.record_stale_scope_drops(1)
        # single-flight: the stores share the in-flight table without
        # colliding because every key is prefix-tagged; a lookup
        # under another stamp computes for itself, so nobody is handed
        # a value of an epoch it did not ask at
        flight = (key, stamp)
        with self._inflight_lock:
            note_write("cache.inflight", key)
            entry = self._inflight.get(flight)
            leader = entry is None
            if leader:
                entry = _InFlight()
                self._inflight[flight] = entry
        if leader:
            try:
                # a leader that finished between the lookup above and
                # the in-flight check has stored its value and left
                found = store.peek(key, check)
                if found is None:
                    value, deps = compute()
                    self._store(store, key, value, deps, stamp)
                else:
                    value, deps = found
                entry.value = (value, deps)
            except BaseException as exc:
                entry.error = exc
                raise
            finally:
                entry.done.set()
                with self._inflight_lock:
                    note_write("cache.inflight", key)
                    self._inflight.pop(flight, None)
            return value, deps, found is not None
        entry.done.wait()
        if entry.error is not None:
            # the leader failed; fall back to computing independently
            value, deps = compute()
            return value, deps, False
        value, deps = entry.value
        return value, deps, True


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
