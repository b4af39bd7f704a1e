"""Incremental candidate-label index for ``matchVertex`` (Algorithm 3).

The executor's innermost loop matches a query term against every
distinct merged-graph vertex label, so matching cost grows linearly
with the image pool.  This module provides the standard
subgraph-matching acceleration — indexed candidate pruning before
per-candidate verification (gStore-style label filtering, the
candidate-selection stage of TurboISO-family matchers) — specialised
to ``matchVertex``'s exact label test (exact, number-normalized, and
non-category synonym matches; normalized Levenshtein for words of five
or more characters — the linear reference predicate lives in
``tests/graph/test_candidates.py`` as this index's oracle):

* an **exact** bucket (lowercased label -> labels),
* a **number-normalized** bucket (``noun_singular`` form -> labels),
* a **synonym-cluster** bucket (cluster -> labels), consulted only for
  non-category query words (the executor decides, via
  ``include_synonyms``),
* a **length-bucketed bigram index** that shrinks the
  normalized-Levenshtein fallback to a small candidate set: the
  ``min-len >= 5`` rule plus the length-compatibility bound mean only
  buckets within edit-band length of the query need scanning, and
  inside a bucket the q-gram lemma (strings within edit distance ``d``
  share at least ``max_len - 1 - 2d`` bigrams) selects candidates via
  bigram postings whenever that bound guarantees at least one shared
  bigram.

Every lookup path *verifies* fuzzy candidates with the same
:func:`~repro.nlp.dword.within_distance` call the linear scan used, so
the index-backed matcher returns exactly the label set of the linear
scan — in the same order (labels carry their graph
insertion position, mirroring :class:`~repro.graph.index.LabelIndex`
iteration order).

The index holds each distinct vertex label once; the graph's
``vertex_labels`` :class:`~repro.graph.index.LabelIndex` counts the
vertices.  :class:`~repro.graph.model.Graph` maintains it
incrementally on ``add_vertex`` / ``remove_vertex`` /
``relabel_vertex``, adding a label when ``vertex_labels`` gains it and
removing it when ``vertex_labels`` loses it; nothing else may mutate
it (lint rule RP007).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.locks import note_read, note_write
from repro.nlp.dword import within_distance
from repro.nlp.morphology import noun_singular
from repro.nlp.semlex import cluster_of

#: the normalized-Levenshtein fallback of ``matchVertex`` only applies
#: when both words have at least this many characters (short labels —
#: "cat"/"car" — must not collide on one edit)
MIN_LD_LENGTH = 5


def label_bigrams(word: str) -> set[str]:
    """The distinct character bigrams of ``word`` (empty for len < 2)."""
    return {word[i:i + 2] for i in range(len(word) - 1)}


def length_compatible(query_len: int, bucket_len: int,
                      threshold: float) -> bool:
    """Whether any string of ``bucket_len`` can fall within the
    normalized-Levenshtein ``threshold`` of a ``query_len`` string.

    The minimal edit distance between strings of those lengths is the
    length difference, so the minimal Yujian-Bo normalized distance is
    ``|a-b| / max(a, b)``; buckets where even that floor reaches the
    threshold can be skipped wholesale.
    """
    gap = abs(query_len - bucket_len)
    if gap == 0:
        return True
    return gap / max(query_len, bucket_len) < threshold


def max_edit_distance(query_len: int, bucket_len: int,
                      threshold: float) -> int:
    """The largest raw edit distance an in-threshold match between
    strings of the two lengths can have.

    ``2d / (a + b + d) < t`` rearranges to ``d < t(a + b) / (2 - t)``;
    starting one above that bound and walking down with the *same*
    float expression :func:`~repro.nlp.dword.within_distance` evaluates
    keeps the result exact under rounding (it can only over-estimate
    transiently, never under-estimate).
    """
    total = query_len + bucket_len
    d = int(threshold * total / (2.0 - threshold)) + 1
    while d > 0 and (2.0 * d) / (total + d) >= threshold:
        d -= 1
    return d


def occurrence_keys(word: str) -> list[tuple[str, int]]:
    """Each character of ``word`` keyed by its occurrence index —
    ``"moo"`` yields ``[("m", 0), ("o", 0), ("o", 1)]``.

    Two words share a key ``(c, k)`` exactly when both contain at
    least ``k + 1`` copies of ``c``, so the number of shared keys *is*
    the character-multiset intersection size.
    """
    seen: dict[str, int] = {}
    keys: list[tuple[str, int]] = []
    for char in word:
        k = seen.get(char, 0)
        seen[char] = k + 1
        keys.append((char, k))
    return keys


def label_accepts(query: str, label: str, ld_threshold: float,
                  include_synonyms: bool = True) -> bool:
    """Whether :meth:`VertexCandidateIndex.match` of ``query`` returns
    ``label`` once ``label`` is indexed: the predicate the buckets
    select for, tested on one label."""
    q = query.lower()
    c = label.lower()
    if q == c or noun_singular(q) == noun_singular(c):
        return True
    if include_synonyms:
        cluster, other = cluster_of(q), cluster_of(c)
        if cluster is not None and other is not None \
                and cluster[0] == other[0]:
            return True
    return min(len(q), len(c)) >= MIN_LD_LENGTH \
        and within_distance(q, c, ld_threshold)


class _LengthBucket:
    """All indexed labels of one (lowercased) length, with bigram and
    character-occurrence postings for candidate selection inside the
    bucket."""

    __slots__ = ("labels", "postings", "chars")

    def __init__(self) -> None:
        self.labels: dict[str, None] = {}
        self.postings: dict[str, dict[str, None]] = {}
        self.chars: dict[tuple[str, int], dict[str, None]] = {}

    def add(self, label: str, lowered: str) -> None:
        """Register ``label`` under its bigram and occurrence keys."""
        self.labels[label] = None
        for bigram in sorted(label_bigrams(lowered)):
            self.postings.setdefault(bigram, {})[label] = None
        for key in occurrence_keys(lowered):
            self.chars.setdefault(key, {})[label] = None

    def remove(self, label: str, lowered: str) -> None:
        """Drop ``label`` from every posting list that holds it."""
        del self.labels[label]
        for bigram in sorted(label_bigrams(lowered)):
            bucket = self.postings.get(bigram)
            if bucket is not None and label in bucket:
                del bucket[label]
                if not bucket:
                    del self.postings[bigram]
        for key in occurrence_keys(lowered):
            chars = self.chars[key]
            del chars[label]
            if not chars:
                del self.chars[key]


@dataclass(frozen=True)
class CandidateMatch:
    """The result of one index-backed ``matchVertex`` label lookup."""

    #: matched labels, in graph insertion order (the order the old
    #: linear scan produced)
    labels: tuple[str, ...]
    #: candidate labels the lookup examined (bucket entries fetched
    #: plus Levenshtein verifications) — what ``vertex_match`` charges
    examined: int
    #: distinct labels currently indexed
    total: int

    @property
    def pruned(self) -> int:
        """Labels the index skipped that the linear scan would have
        compared (floored at zero: buckets may overlap)."""
        return max(0, self.total - self.examined)


class VertexCandidateIndex:
    """Label buckets that make ``matchVertex`` sublinear in the number
    of distinct merged-graph labels.

    Mutate only through the :class:`~repro.graph.model.Graph` mutation
    API (``add_vertex`` / ``remove_vertex`` / ``relabel_vertex``),
    which adds a label with its first vertex and removes it with its
    last — the invariant lint rule RP007 enforces.
    """

    def __init__(self) -> None:
        #: every indexed label -> its insertion position
        self._order: dict[str, int] = {}
        self._next_position = 0
        self._exact: dict[str, dict[str, None]] = {}
        self._singular: dict[str, dict[str, None]] = {}
        self._cluster: dict[str, dict[str, None]] = {}
        self._by_length: dict[int, _LengthBucket] = {}

    # ------------------------------------------------------------------
    # maintenance (Graph mutation API only — RP007)
    # ------------------------------------------------------------------
    def add_label(self, label: str) -> None:
        """Register ``label``, which its first vertex now carries."""
        note_write("graph.candidate_index")
        self._order[label] = self._next_position
        self._next_position += 1
        lowered = label.lower()
        self._exact.setdefault(lowered, {})[label] = None
        singular = noun_singular(lowered)
        self._singular.setdefault(singular, {})[label] = None
        cluster = cluster_of(lowered)
        if cluster is not None:
            self._cluster.setdefault(cluster[0], {})[label] = None
        bucket = self._by_length.setdefault(len(lowered), _LengthBucket())
        bucket.add(label, lowered)

    def remove_label(self, label: str) -> None:
        """Unregister ``label``, whose last vertex is gone: the label
        leaves every bucket."""
        note_write("graph.candidate_index")
        del self._order[label]  # KeyError: the label is not indexed
        lowered = label.lower()
        self._drop(self._exact, lowered, label)
        self._drop(self._singular, noun_singular(lowered), label)
        cluster = cluster_of(lowered)
        if cluster is not None:
            self._drop(self._cluster, cluster[0], label)
        length = len(lowered)
        bucket = self._by_length[length]
        bucket.remove(label, lowered)
        if not bucket.labels:
            del self._by_length[length]

    @staticmethod
    def _drop(buckets: dict[str, dict[str, None]], key: str,
              label: str) -> None:
        bucket = buckets[key]
        del bucket[label]
        if not bucket:
            del buckets[key]

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def match(self, query: str, ld_threshold: float,
              include_synonyms: bool = True) -> CandidateMatch:
        """All indexed labels the executor's label test accepts for
        ``query``, plus how many candidates were examined to find them.

        ``include_synonyms`` mirrors the executor's category guard: a
        category query word ("girl") matches exactly and must not
        reach its synonym cluster.
        """
        note_read("graph.candidate_index")
        lowered = query.lower()
        matched: dict[str, None] = {}
        examined = 0
        for label in self._exact.get(lowered, ()):
            examined += 1
            matched[label] = None
        for label in self._singular.get(noun_singular(lowered), ()):
            examined += 1
            matched.setdefault(label, None)
        if include_synonyms:
            cluster = cluster_of(lowered)
            if cluster is not None:
                for label in self._cluster.get(cluster[0], ()):
                    examined += 1
                    matched.setdefault(label, None)
        examined += self._match_levenshtein(lowered, ld_threshold, matched)
        ordered = sorted(matched, key=self._order.__getitem__)
        return CandidateMatch(labels=tuple(ordered), examined=examined,
                              total=len(self._order))

    def _match_levenshtein(self, lowered: str, threshold: float,
                           matched: dict[str, None]) -> int:
        """The pruned normalized-Levenshtein fallback; returns the
        number of candidates examined."""
        query_len = len(lowered)
        if query_len < MIN_LD_LENGTH:
            return 0
        query_grams = sorted(label_bigrams(lowered))
        query_chars = occurrence_keys(lowered)
        examined = 0
        for length in sorted(self._by_length):
            if length < MIN_LD_LENGTH:
                continue
            if not length_compatible(query_len, length, threshold):
                continue
            bucket = self._by_length[length]
            candidates = self._bucket_candidates(
                bucket, query_len, length, threshold,
                query_grams, query_chars,
            )
            for label in candidates:
                examined += 1
                if label in matched:
                    continue
                if within_distance(lowered, label.lower(), threshold):
                    matched[label] = None
        return examined

    @staticmethod
    def _bucket_candidates(
        bucket: _LengthBucket,
        query_len: int,
        length: int,
        threshold: float,
        query_grams: list[str],
        query_chars: list[tuple[str, int]],
    ) -> dict[str, None]:
        """Candidates from one length bucket, via two sound count
        filters on the maximal in-threshold edit distance ``d``:

        * **character occurrences** (the first-character idea taken to
          every position): each edit changes at most one character
          occurrence, so a true match shares at least
          ``max_len - d`` occurrence keys with the query;
        * **bigrams** (the q-gram lemma): each edit destroys at most
          two bigram occurrences, so when ``max_len - 1 - 2d >= 1`` a
          true match must share at least one bigram.

        Labels surviving both applicable filters are returned; when
        neither filter applies, the whole (single-length) bucket is
        scanned exhaustively.
        """
        d_max = max_edit_distance(query_len, length, threshold)
        needed = max(query_len, length) - d_max
        if needed >= 1:
            shared: dict[str, int] = {}
            for key in query_chars:
                for label in bucket.chars.get(key, ()):
                    shared[label] = shared.get(label, 0) + 1
            base: dict[str, None] = {
                label: None for label, count in shared.items()
                if count >= needed
            }
        else:
            base = bucket.labels
        if max(query_len, length) - 1 - 2 * d_max < 1:
            return base
        candidates: dict[str, None] = {}
        for bigram in query_grams:
            for label in bucket.postings.get(bigram, ()):
                if label in base:
                    candidates.setdefault(label, None)
        return candidates
