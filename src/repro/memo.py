"""Bounded memos of pure computations, and the lock they share.

A :class:`Memo` remembers the result of a pure computation per key:
the session's parsed questions, word and phrase vectors, validator
diagnostics.  It keeps at most ``capacity`` entries and drops the
least recently used first, so a stream of never-repeated keys cannot
grow it; because the computation is pure, a dropped entry is only
recomputed, never wrong.

:meth:`Memo.get_or_compute` runs the computation outside the memo's
lock (it may take other locks, e.g. a phrase vector computes its word
vectors), then stores under the lock keeping whichever value landed
first, so concurrent misses on one key converge on one shared object.
A hit takes the lock once.

Memos are often built before a sanitizer is installed (a module-level
memo exists from import time on), so their lock is a
:class:`SharedLock`: a raw lock re-wrapped under the active sanitizer
(:mod:`repro.locks`) whenever that changes, which keeps a sanitizer
installed at run time seeing every acquire.  Stdlib-only, like the
lock seam.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Hashable
from typing import Any

from repro import locks

_MISSING = object()


class SharedLock:
    """A non-reentrant lock taken under the sanitizer active at each
    acquire, reported under ``role``.

    Wrapping lazily (instead of calling :func:`~repro.locks.wrap_lock`
    once at construction) also keeps a module-level lock from
    activating ``SVQA_SANITIZE`` at import time.  Re-wrapping races
    benignly: every wrapper delegates to the one raw lock, and the
    sanitizer keys critical sections by role.
    """

    __slots__ = ("role", "_raw", "_observer", "_wrapped", "_held")

    def __init__(self, role: str) -> None:
        self.role = role
        self._raw = threading.Lock()
        self._observer: object | None = None
        self._wrapped: Any = self._raw
        # the wrapper the current holder acquired (released on exit)
        self._held: Any = self._raw

    def __enter__(self) -> SharedLock:
        observer = locks.current()
        if observer is not self._observer:
            self._observer = observer
            self._wrapped = self._raw if observer is None else \
                locks.wrap_lock(self._raw, self.role)
        wrapped = self._wrapped
        wrapped.acquire()
        self._held = wrapped
        return self

    def __exit__(self, *exc: object) -> bool:
        self._held.release()
        return False


class Memo:
    """A bounded, thread-safe, least-recently-used memo.

    ``role`` names the memo to the sanitizer (its lock role and the
    structure its accesses are noted under).  A computation that
    raises stores nothing, so its error is raised again on the next
    lookup.  ``capacity`` 0 remembers nothing.
    """

    def __init__(self, capacity: int, role: str) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.role = role
        # insertion order is recency order: a hit moves its key last
        self._values: dict[Hashable, Any] = {}
        self._lock = SharedLock(role)

    def __len__(self) -> int:
        """Number of remembered keys."""
        with self._lock:
            return len(self._values)

    def get_or_compute(self, key: Hashable,
                       compute: Callable[[], Any]) -> Any:
        """The remembered value of ``key``, else ``compute()``'s,
        remembered (the first value stored for a key wins)."""
        with self._lock:
            locks.note_write(self.role, key)
            value = self._values.pop(key, _MISSING)
            if value is not _MISSING:
                self._values[key] = value
                return value
        value = compute()
        with self._lock:
            locks.note_write(self.role, key)
            value = self._values.pop(key, value)
            self._values[key] = value
            if len(self._values) > self.capacity:
                del self._values[next(iter(self._values))]
        return value


__all__ = ["Memo", "SharedLock"]
