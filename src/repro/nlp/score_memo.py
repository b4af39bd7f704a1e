"""Refcounted, exact score memo over the embedding space.

PR 5 made vertex label matching sublinear; this module does the same
for the *embedding* lookups left on the hot path
(``_filter_by_predicate``, ``_apply_constraint``,
``_match_possessive``), each of which charged ``embed_score`` once
per candidate label per clause per query.  The index is a **score
memo** keyed ``(query, candidate)`` (both lowercased): cosine scores
are pure functions of the two spellings, so a pair scored once is
scored forever.  The first computation of a pair charges
``embed_score`` exactly like the linear scan did; every repeat charges
the much cheaper ``ann_probe``.  Across a workload the same
(predicate, edge-label) pairs recur constantly, which is where the
aggregate ``embed_score`` drop comes from.

:meth:`~ScoreMemo.rank` and :meth:`~ScoreMemo.best`
are **extensionally equal** to the linear scans — a stable sort of
every candidate's score, and
:func:`repro.nlp.embeddings.max_score`: scores are produced by the
byte-identical float expression, assembled in caller candidate order,
and tie-broken by the same stable sort / first-strict-greater scan.
The fuzz suite compares both against those scans outright.

Membership is maintained incrementally by
:class:`~repro.graph.model.Graph` on ``add_edge`` / ``remove_edge``
behind the graph's monotone epoch counter, with refcounts so a label
retires exactly when its last edge does; retiring a label also purges
its memo rows (sound: scores are pure, so a re-added label recomputes
identical floats).  The index itself never touches the
:class:`~repro.simtime.SimClock` — call sites charge the returned
``(fresh, probes)`` counts.

The score memo is read and written from BatchExecutor worker threads,
so it lives behind a :func:`repro.locks.wrap_lock` lock (role
``nlp.score_memo``).  Scoring calls :func:`phrase_vector`, which takes
the embed-cache lock — those computations happen strictly *outside*
this index's critical sections (two-phase: snapshot misses under the
lock, compute unlocked, store under the lock), so no foreign lock is
ever acquired under ours.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from repro import locks
from repro.nlp.embeddings import phrase_vector


class ScoreMemo:
    """Refcounted edge-label set + exact score memo over embeddings.

    Mutate membership only through the
    :class:`~repro.graph.model.Graph` mutation API (``add_edge`` /
    ``remove_edge``), which refcounts labels so a label leaves the
    index exactly when its last edge does — the
    :class:`~repro.graph.candidates.VertexCandidateIndex` invariant.
    """

    def __init__(self) -> None:
        #: live edge-label refcounts, in graph insertion order
        self._refs: dict[str, int] = {}
        #: the memo, lowercased candidate -> lowercased query -> score
        #: (keyed by candidate first, so retiring a label drops its rows
        #: in one step)
        self._scores: dict[str, dict[str, float]] = {}
        # lazy wrap: calling wrap_lock with no observer installed
        # would trigger SVQA_SANITIZE env activation at construction
        # time (e.g. during test collection); _refresh_lock wraps the
        # raw lock as soon as an observer actually exists
        self._raw = threading.Lock()
        self._observer: object | None = None
        self._lock: Any = self._raw
        self._refresh_lock()

    def _refresh_lock(self) -> None:
        """Re-wrap the raw lock when the lock observer has changed.

        The index is often built before ``repro sanitize`` installs
        its observer; re-wrapping keeps a runtime-installed sanitizer
        seeing every acquire (wrappers share one raw lock, and the
        sanitizer keys critical sections by role name).
        """
        observer = locks.current()
        if observer is not self._observer:
            self._observer = observer
            self._lock = self._raw if observer is None else \
                locks.wrap_lock(self._raw, "nlp.score_memo")

    # ------------------------------------------------------------------
    # maintenance (Graph mutation API only)
    # ------------------------------------------------------------------
    def add_label(self, label: str) -> None:
        """Register one more edge carrying ``label``."""
        self._refresh_lock()
        with self._lock:
            locks.note_write("nlp.score_memo", label)
            self._refs[label] = self._refs.get(label, 0) + 1

    def remove_label(self, label: str) -> None:
        """Unregister one edge carrying ``label``; the label retires
        from the index and the score memo when its last edge goes."""
        self._refresh_lock()
        with self._lock:
            locks.note_write("nlp.score_memo", label)
            count = self._refs.get(label)
            if count is None:
                raise KeyError(f"label {label!r} is not indexed")
            if count > 1:
                self._refs[label] = count - 1
                return
            del self._refs[label]
            self._scores.pop(label.lower(), None)

    # ------------------------------------------------------------------
    # exact scoring (extensionally equal to the linear scan)
    # ------------------------------------------------------------------
    def rank(self, query: str,
             candidates: list[str]) -> tuple[list[tuple[str, float]],
                                             int, int]:
        """All candidates with similarities, best first — the exact
        output of a stable sort over the linear scan — plus
        ``(fresh, probes)``: how many scores were computed this call
        (charge ``embed_score``) vs. served from the memo (charge
        ``ann_probe``)."""
        query_vec = phrase_vector(query)
        scores, fresh, probes = self._score_all(query, query_vec,
                                                candidates)
        scored = list(zip(candidates, scores))
        return sorted(scored, key=lambda cs: -cs[1]), fresh, probes

    def best(self, query: str,
             candidates: list[str]) -> tuple[str | None, float,
                                             int, int]:
        """The candidate most similar to ``query`` — the exact output
        of :func:`~repro.nlp.embeddings.max_score` (``(None, -inf)``
        on an empty candidate list) — plus ``(fresh, probes)``."""
        if not candidates:
            return None, float("-inf"), 0, 0
        query_vec = phrase_vector(query)
        scores, fresh, probes = self._score_all(query, query_vec,
                                                candidates)
        best, best_score = None, float("-inf")
        for candidate, score in zip(candidates, scores):
            if score > best_score:
                best, best_score = candidate, score
        return best, best_score, fresh, probes

    def _score_all(self, query: str, query_vec: np.ndarray,
                   candidates: list[str]) -> tuple[list[float],
                                                   int, int]:
        """Scores aligned with ``candidates``, via the memo.

        Two-phase with respect to the index lock: snapshot hits and
        misses under the lock, compute the misses *unlocked* (scoring
        acquires the embed-cache lock), then store under the lock,
        keeping whichever float landed first (they are identical:
        scores are pure functions of the spellings).  A miss counts as
        fresh only when this call's store inserted it: a key another
        lane stored in between is a probe, so the counts do not depend
        on how worker threads interleave.
        """
        lowered_query = query.lower()
        keys = [(lowered_query, c.lower()) for c in candidates]
        self._refresh_lock()
        fresh = 0
        probes = 0
        known: dict[tuple[str, str], float] = {}
        # missed key -> how many candidate occurrences it stands for
        missed: dict[tuple[str, str], int] = {}
        with self._lock:
            for key in keys:
                locks.note_read("nlp.score_memo", key)
                cached = self._scores.get(key[1], {}).get(key[0])
                if cached is None:
                    missed[key] = missed.get(key, 0) + 1
                else:
                    probes += 1
                    known[key] = cached
        computed: dict[tuple[str, str], float] = {}
        for key, candidate in zip(keys, candidates):
            if key in known or key in computed:
                continue
            computed[key] = float(
                np.dot(query_vec, phrase_vector(candidate))
            )
        if computed:
            with self._lock:
                for key in computed:
                    locks.note_write("nlp.score_memo", key)
                    row = self._scores.setdefault(key[1], {})
                    if key[0] in row:
                        probes += missed[key]
                    else:
                        row[key[0]] = computed[key]
                        fresh += missed[key]
                    known[key] = row[key[0]]
        return [known[key] for key in keys], fresh, probes

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Distinct labels currently indexed."""
        return len(self._refs)

    def __contains__(self, label: str) -> bool:
        """Whether ``label`` is currently indexed."""
        return label in self._refs

    def count(self, label: str) -> int:
        """Number of edges currently carrying ``label``."""
        return self._refs.get(label, 0)

    def labels(self) -> list[str]:
        """Every indexed label, in graph insertion order."""
        self._refresh_lock()
        with self._lock:
            locks.note_read("nlp.score_memo")
            return list(self._refs)


__all__ = [
    "ScoreMemo",
]
