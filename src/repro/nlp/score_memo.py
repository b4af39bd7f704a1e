"""Exact score memo over the embedding space.

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

The memo holds scores only, not the edge-label set: the graph's
``edge_labels`` :class:`~repro.graph.index.LabelIndex` counts the
edges.  When :class:`~repro.graph.model.Graph` removes a label's last
edge it calls :meth:`~ScoreMemo.forget`, which purges the label's memo
rows (sound: scores are pure, so a re-added label recomputes identical
floats); adding an edge calls nothing.  The memo itself never touches the
:class:`~repro.simtime.SimClock` — call sites charge the returned
``(fresh, probes)`` counts.

The memo holds at most ``SCORE_CAPACITY`` scores: past that, the
oldest candidate rows are dropped (a dropped score is recomputed and
charged as fresh again).

The score memo is read and written from BatchExecutor worker threads,
so it lives behind a :class:`~repro.memo.SharedLock` (role
``nlp.score_memo``).  Scoring calls :func:`phrase_vector`, which takes
the embed-cache lock — those computations happen strictly *outside*
this index's critical sections (two-phase: snapshot misses under the
lock, compute unlocked, store under the lock), so no foreign lock is
ever acquired under ours.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from repro import locks
from repro.memo import SharedLock
from repro.nlp.embeddings import phrase_vector

#: scores one memo holds at most (oldest candidate rows dropped
#: first); the fast MVQA run stores 201
SCORE_CAPACITY = 16_384


class ScoreMemo:
    """Exact score memo over embeddings.

    Only :class:`~repro.graph.model.Graph` forgets labels
    (``remove_edge``, when a label's last edge goes).
    """

    def __init__(self) -> None:
        #: the memo, lowercased candidate -> lowercased query -> score
        #: (keyed by candidate first, so retiring a label drops its rows
        #: in one step; row insertion order is the eviction order)
        self._scores: dict[str, dict[str, float]] = {}
        #: scores held across every row
        self._held = 0
        self._lock = SharedLock("nlp.score_memo")

    # ------------------------------------------------------------------
    # maintenance (Graph mutation API only)
    # ------------------------------------------------------------------
    def forget(self, label: str) -> None:
        """Drop every memo row of ``label``, whose last edge is gone."""
        with self._lock:
            locks.note_write("nlp.score_memo", label)
            self._held -= len(self._scores.pop(label.lower(), ()))

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
        scores, fresh, probes = self._score_all(query, candidates)
        scored = list(zip(candidates, scores))
        # (a stable sort keeps ties in candidate order either way)
        return sorted(scored, key=itemgetter(1), reverse=True), \
            fresh, probes

    def best(self, query: str,
             candidates: list[str]) -> tuple[str | None, float,
                                             int, int]:
        """The candidate most similar to ``query`` — the exact output
        of :func:`~repro.nlp.embeddings.max_score` (``(None, -inf)``
        on an empty candidate list) — plus ``(fresh, probes)``."""
        if not candidates:
            return None, float("-inf"), 0, 0
        scores, fresh, probes = self._score_all(query, candidates)
        best, best_score = None, float("-inf")
        for candidate, score in zip(candidates, scores):
            if score > best_score:
                best, best_score = candidate, score
        return best, best_score, fresh, probes

    def _score_all(self, query: str,
                   candidates: list[str]) -> tuple[list[float],
                                                   int, int]:
        """Scores aligned with ``candidates``, via the memo (the query
        is embedded only when a score is missing).

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
        if missed:
            query_vec = phrase_vector(query)
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
                        self._held += 1
                        fresh += missed[key]
                    known[key] = row[key[0]]
                while self._held > SCORE_CAPACITY:
                    # the oldest candidate's row goes (scores are pure:
                    # a dropped one is recomputed, never wrong)
                    oldest = next(iter(self._scores))
                    self._held -= len(self._scores.pop(oldest))
        return [known[key] for key in keys], fresh, probes


__all__ = [
    "ScoreMemo",
]
