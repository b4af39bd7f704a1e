"""The deterministic runtime lock/race sanitizer ("tsan-lite").

The runtime counterpart of the static RP008–RP011 rules: where the
static pass proves properties of the *code*, the sanitizer observes
one *execution* — through the :mod:`repro.locks` hook seam — and
flags what actually happened:

* **lock-order inversions** — every thread's lock-nesting sequence
  feeds a global set of observed order edges (``A`` held while ``B``
  acquired); the first time both ``A -> B`` and ``B -> A`` are seen,
  the pair is reported, whether or not the interleaving deadlocked
  this time;
* **unsynchronized access pairs** — annotated shared structures
  (:func:`repro.locks.note_read` / :func:`~repro.locks.note_write`)
  are checked with a vector-clock happens-before relation: locks
  carry release frontiers (acquire joins them), fork/join points
  (:func:`~repro.locks.note_fork` / :func:`~repro.locks.note_join`)
  order pool workers against their parent, and two accesses to one
  location are racy when neither happens-before the other *and* their
  held-lock sets are disjoint.

Determinism rules (DESIGN.md §5h): lock identity is the *role name*
given to :func:`repro.locks.wrap_lock` — never a thread id or object
address — findings are deduplicated by ``(kind, subject)`` and the
report renders every section sorted, so two same-seed runs produce
byte-identical reports even under real thread interleavings (role
sets and nesting edges are properties of the code paths executed, not
of the schedule).  With no sanitizer installed the hook seam returns
raw locks and the whole module never loads: answers are bit-identical
with the sanitizer off.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any

_VectorClock = dict[int, int]


def _join(into: _VectorClock, other: _VectorClock) -> None:
    """Pointwise maximum, in place."""
    for index, tick in other.items():
        if into.get(index, 0) < tick:
            into[index] = tick


def _ordered_before(vector: _VectorClock, index: int,
                    now: _VectorClock) -> bool:
    """Whether the access stamped ``vector`` (by thread ``index``)
    happens-before the current frontier ``now``."""
    return vector.get(index, 0) <= now.get(index, 0) \
        and vector.get(index, 0) > 0


@dataclass(frozen=True)
class SanitizerConfig:
    """Configuration of the runtime sanitizer (deterministic).

    ``seed`` only labels the report (the workload's own seed); the
    sanitizer adds no randomness of its own.
    """

    seed: int = 0

    @classmethod
    def from_env(cls) -> SanitizerConfig:
        """Configuration for ``SVQA_SANITIZE=1`` activation."""
        try:
            seed = int(os.environ.get("SVQA_SANITIZE_SEED", "0"))
        except ValueError:
            seed = 0
        return cls(seed=seed)


@dataclass(frozen=True)
class SanitizerFinding:
    """One deduplicated runtime finding."""

    kind: str      # "lock-order-inversion" | "unsynchronized-*"
    subject: str   # lock pair or structure name (stable sort key)
    detail: str

    def render(self) -> str:
        return f"- [{self.kind}] {self.subject}: {self.detail}"


@dataclass(frozen=True)
class SanitizerReport:
    """A deterministic summary of one sanitized execution."""

    seed: int
    lock_roles: tuple[str, ...]
    structures: tuple[str, ...]
    order_edges: tuple[str, ...]
    findings: tuple[SanitizerFinding, ...]

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [
            f"== concurrency sanitizer report (seed={self.seed}) ==",
            "lock roles: " + (", ".join(self.lock_roles) or "(none)"),
            "shared structures: "
            + (", ".join(self.structures) or "(none)"),
            "order edges: "
            + ("; ".join(self.order_edges) or "(none)"),
        ]
        if self.findings:
            lines.append(f"findings ({len(self.findings)}):")
            lines.extend(f.render() for f in self.findings)
        else:
            lines.append("findings: none")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict with a stable key set."""
        return {
            "seed": self.seed,
            "lock_roles": list(self.lock_roles),
            "structures": list(self.structures),
            "order_edges": list(self.order_edges),
            "findings": [
                {"kind": f.kind, "subject": f.subject,
                 "detail": f.detail}
                for f in self.findings
            ],
        }


class SanitizedLock:
    """A lock wrapper reporting acquire/release to the sanitizer.

    Duck-types the ``threading.Lock`` surface (``acquire`` /
    ``release`` / context manager), so it composes with
    ``threading.Condition`` — whose release-and-reacquire inside
    ``wait()`` then feeds the sanitizer exactly the happens-before
    edges a condition handoff creates.
    """

    __slots__ = ("_inner", "name", "_sanitizer")

    def __init__(self, inner: Any, name: str,
                 sanitizer: Sanitizer) -> None:
        self._inner = inner
        self.name = name
        self._sanitizer = sanitizer

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        acquired = bool(self._inner.acquire(blocking, timeout))
        if acquired:
            self._sanitizer.on_acquire(self)
        return acquired

    def release(self) -> None:
        self._sanitizer.on_release(self)
        self._inner.release()

    def __enter__(self) -> SanitizedLock:
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> bool:
        self.release()
        return False


class _ThreadState:
    """One thread's vector clock and held-lock stack."""

    __slots__ = ("index", "vector", "held")

    def __init__(self, index: int) -> None:
        self.index = index
        self.vector: _VectorClock = {index: 1}
        #: (role name, reentrancy count), innermost last
        self.held: list[list[Any]] = []


class _AccessRecord:
    """Last write and last-read-per-thread of one shared location."""

    __slots__ = ("write", "reads")

    def __init__(self) -> None:
        #: (thread index, vector copy, lockset) of the last write
        self.write: tuple[int, _VectorClock, frozenset[str]] | None = None
        #: thread index -> (vector copy, lockset) of its last read
        self.reads: dict[int, tuple[_VectorClock, frozenset[str]]] = {}


class Sanitizer:
    """The installable lock observer (see :mod:`repro.locks`).

    All state is guarded by one private leaf lock; sanitizer entry
    points never acquire an instrumented lock, so instrumenting
    cannot introduce the inversions it exists to detect.
    """

    def __init__(self, config: SanitizerConfig | None = None) -> None:
        self.config = config if config is not None else SanitizerConfig()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock_roles: set[str] = set()
        self._acquire_edges: set[tuple[str, str]] = set()
        self._lock_vectors: dict[str, _VectorClock] = {}
        self._accesses: dict[tuple[str, object], _AccessRecord] = {}
        self._structures: set[str] = set()
        self._findings: dict[tuple[str, str], str] = {}
        self._fork_vector: _VectorClock | None = None

    # -- observer protocol (repro.locks) -------------------------------
    def wrap(self, lock: Any, name: str) -> SanitizedLock:
        """Instrument one lock under the given role name."""
        with self._lock:
            self._lock_roles.add(name)
        return SanitizedLock(lock, name, self)

    def on_acquire(self, lock: SanitizedLock) -> None:
        """Called by :class:`SanitizedLock` after the inner acquire."""
        with self._lock:
            state = self._state()
            for entry in reversed(state.held):
                if entry[0] == lock.name:
                    entry[1] += 1  # reentrant reacquisition
                    return
            for held_name, _count in state.held:
                self._observe_edge(held_name, lock.name)
            frontier = self._lock_vectors.get(lock.name)
            if frontier is not None:
                _join(state.vector, frontier)
            state.held.append([lock.name, 1])

    def on_release(self, lock: SanitizedLock) -> None:
        """Called by :class:`SanitizedLock` before the inner release."""
        with self._lock:
            state = self._state()
            for position in range(len(state.held) - 1, -1, -1):
                if state.held[position][0] == lock.name:
                    state.held[position][1] -= 1
                    if state.held[position][1] == 0:
                        del state.held[position]
                        self._tick(state)
                        frontier = self._lock_vectors.setdefault(
                            lock.name, {})
                        _join(frontier, state.vector)
                    return

    def note_access(self, structure: str, key: object,
                    write: bool) -> None:
        """One annotated read/write of a shared location."""
        with self._lock:
            state = self._state()
            self._structures.add(structure)
            self._tick(state)
            lockset = frozenset(name for name, _ in state.held)
            record = self._accesses.setdefault(
                (structure, key), _AccessRecord())
            self._check_conflicts(structure, state, lockset, record,
                                  write)
            stamp = dict(state.vector)
            if write:
                record.write = (state.index, stamp, lockset)
                record.reads.pop(state.index, None)
            else:
                record.reads[state.index] = (stamp, lockset)

    def note_fork(self) -> None:
        """New worker threads will inherit the caller's frontier."""
        with self._lock:
            state = self._state()
            self._tick(state)
            if self._fork_vector is None:
                self._fork_vector = {}
            _join(self._fork_vector, state.vector)

    def note_join(self) -> None:
        """The caller synchronized with every thread seen so far."""
        with self._lock:
            state = self._state()
            for other in self._states:
                _join(state.vector, other.vector)
            self._tick(state)

    # -- internals ------------------------------------------------------
    def _state(self) -> _ThreadState:
        """The calling thread's state (``self._lock`` must be held)."""
        state: _ThreadState | None = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(len(self._states))
            if self._fork_vector is not None:
                _join(state.vector, self._fork_vector)
            self._states.append(state)
            self._local.state = state
        return state

    @staticmethod
    def _tick(state: _ThreadState) -> None:
        state.vector[state.index] = state.vector.get(state.index, 0) + 1

    def _observe_edge(self, src: str, dst: str) -> None:
        if src == dst:
            return
        self._acquire_edges.add((src, dst))
        if (dst, src) in self._acquire_edges:
            first, second = sorted((src, dst))
            self._record_finding(
                "lock-order-inversion",
                f"{first} <-> {second}",
                f"both acquisition orders observed: {first} -> "
                f"{second} and {second} -> {first} — two threads "
                "taking them concurrently can deadlock",
            )

    def _check_conflicts(
        self,
        structure: str,
        state: _ThreadState,
        lockset: frozenset[str],
        record: _AccessRecord,
        write: bool,
    ) -> None:
        conflicts: list[tuple[int, _VectorClock, frozenset[str],
                              str]] = []
        if record.write is not None:
            w_index, w_vector, w_lockset = record.write
            kind = "unsynchronized-write-write" if write \
                else "unsynchronized-read-write"
            conflicts.append((w_index, w_vector, w_lockset, kind))
        if write:
            for r_index in sorted(record.reads):
                r_vector, r_lockset = record.reads[r_index]
                conflicts.append((r_index, r_vector, r_lockset,
                                  "unsynchronized-read-write"))
        for other_index, other_vector, other_lockset, kind in conflicts:
            if other_index == state.index:
                continue  # program order within one thread
            if _ordered_before(other_vector, other_index, state.vector):
                continue  # happens-before established
            if lockset & other_lockset:
                continue  # a common lock serializes the pair
            self._record_finding(
                kind, structure,
                "two threads touch this structure with no common "
                "lock and no happens-before edge between them",
            )

    def _record_finding(self, kind: str, subject: str,
                        detail: str) -> None:
        self._findings.setdefault((kind, subject), detail)

    # -- reporting ------------------------------------------------------
    def report(self) -> SanitizerReport:
        """Freeze observations into a deterministic report."""
        with self._lock:
            findings = tuple(
                SanitizerFinding(kind, subject, detail)
                for (kind, subject), detail in sorted(
                    self._findings.items())
            )
            return SanitizerReport(
                seed=self.config.seed,
                lock_roles=tuple(sorted(self._lock_roles)),
                structures=tuple(sorted(self._structures)),
                order_edges=tuple(
                    f"{src} -> {dst}"
                    for src, dst in sorted(self._acquire_edges)
                ),
                findings=findings,
            )


__all__ = [
    "SanitizedLock",
    "Sanitizer",
    "SanitizerConfig",
    "SanitizerFinding",
    "SanitizerReport",
]
