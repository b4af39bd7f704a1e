"""Deterministic word embeddings with injected synonym structure.

The paper's ``maxScore`` converts labels to word2vec embeddings [36]
and ranks by cosine similarity.  Offline, we build embeddings that are

* **deterministic** — a word's base vector is seeded from a stable hash
  of its spelling, so runs are reproducible across processes;
* **semantically structured** — words sharing a synonym cluster
  (:mod:`repro.nlp.semlex`) are pulled toward a common centroid, so
  cosine(dog, puppy) is high while cosine(dog, fence) stays near zero.

Phrases embed as the normalized mean of their word vectors, which is
exactly how the paper's maxScore treats multi-word edge labels.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any

import numpy as np

from repro import locks
from repro.nlp.semlex import SYNONYM_CLUSTERS, cluster_of

DIM = 64

#: How strongly cluster members are pulled to their centroid.  At 0 the
#: space is pure hash noise; at 1 all synonyms coincide.  0.75 gives
#: within-cluster cosines around 0.8-0.95 and cross-cluster near 0.
CLUSTER_PULL = 0.75


def _hash_vector(word: str) -> np.ndarray:
    """Unit vector seeded from a stable digest of ``word``."""
    digest = hashlib.sha256(word.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(DIM)
    return vec / np.linalg.norm(vec)


def _build_centroids() -> dict[tuple[str, ...], np.ndarray]:
    centroids = {}
    for cluster in SYNONYM_CLUSTERS:
        total = np.sum([_hash_vector(w) for w in cluster], axis=0)
        centroids[cluster] = total / np.linalg.norm(total)
    return centroids


_CENTROIDS = _build_centroids()


class VectorCache:
    """Thread-safe word/phrase vector memo shared by every scorer.

    The old module-level dict was read-then-written from
    BatchExecutor worker threads with no lock; this class is the
    lock-disciplined replacement (RP003 applies).  Vectors are pure
    functions of their (lowercased) spelling, so the cache never goes
    stale — the lock only protects the dict itself, and duplicate
    computes race benignly: ``store`` keeps the first-stored array so
    every caller shares one canonical object per key.

    The lock is wrapped through :func:`repro.locks.wrap_lock` under
    the role ``nlp.embed_cache``; because this cache is built at
    import time (usually before ``repro sanitize`` installs its
    observer), every public entry point re-wraps the underlying raw
    lock when the active observer changes, so a runtime-installed
    sanitizer still sees every acquire.
    """

    def __init__(self) -> None:
        # lazy wrap: calling wrap_lock with no observer installed
        # would trigger SVQA_SANITIZE env activation at import time
        # (this cache is a module global); _refresh_lock wraps the
        # raw lock as soon as an observer actually exists
        self._raw = threading.Lock()
        self._observer: object | None = None
        self._lock: Any = self._raw
        self._refresh_lock()
        self._vectors: dict[tuple[str, str], np.ndarray] = {}

    def _refresh_lock(self) -> None:
        """Re-wrap the raw lock when the lock observer has changed.

        Benign under races: every wrapper delegates to the same raw
        lock, and the sanitizer keys critical sections by role name.
        """
        observer = locks.current()
        if observer is not self._observer:
            self._observer = observer
            self._lock = self._raw if observer is None else \
                locks.wrap_lock(self._raw, "nlp.embed_cache")

    def lookup(self, kind: str, key: str) -> np.ndarray | None:
        """The cached vector for ``(kind, key)``, or ``None``."""
        self._refresh_lock()
        with self._lock:
            locks.note_read("nlp.embed_cache", (kind, key))
            return self._vectors.get((kind, key))

    def store(self, kind: str, key: str, vector: np.ndarray) -> np.ndarray:
        """Memoize ``vector`` and return the canonical stored array
        (the first writer wins, so concurrent misses converge on one
        shared object)."""
        self._refresh_lock()
        with self._lock:
            locks.note_write("nlp.embed_cache", (kind, key))
            return self._vectors.setdefault((kind, key), vector)


_VECTORS = VectorCache()


def _compute_word_vector(lowered: str) -> np.ndarray:
    """The uncached word embedding (pure function of the spelling)."""
    base = _hash_vector(lowered)
    cluster = cluster_of(lowered)
    if cluster is None:
        from repro.nlp.morphology import noun_singular, verb_lemma

        cluster = cluster_of(verb_lemma(lowered)) or \
            cluster_of(noun_singular(lowered))
    if cluster is not None:
        centroid = _CENTROIDS[cluster]
        blended = (1.0 - CLUSTER_PULL) * base + CLUSTER_PULL * centroid
        return blended / np.linalg.norm(blended)
    return base


def word_vector(word: str) -> np.ndarray:
    """Embedding for a single (lowercased) word.

    Cluster membership is resolved through the surface form first and
    its lemmas second, so inflections ("hanging", "worn", "dogs") share
    their lemma's semantic neighborhood — without this, morphological
    variants of a predicate would be mutually dissimilar.
    """
    lowered = word.lower()
    cached = _VECTORS.lookup("word", lowered)
    if cached is not None:
        return cached
    return _VECTORS.store("word", lowered, _compute_word_vector(lowered))


def _compute_phrase_vector(lowered: str) -> np.ndarray:
    """The uncached multi-word phrase embedding."""
    vectors = [word_vector(w) for w in lowered.split()]
    mean = np.mean(vectors, axis=0)
    norm = np.linalg.norm(mean)
    if norm == 0:
        return vectors[0]
    return mean / norm


def phrase_vector(phrase: str) -> np.ndarray:
    """Embedding for a phrase: normalized mean of word vectors.

    Averaging word-by-word (with lemma-aware word vectors) makes
    morphological variants of a phrase nearly identical:
    cosine("hang out with", "hanging out with") ~ 1.  Memoized in the
    shared :class:`VectorCache`, so the executor's score memo and the
    linear reference scan read the exact same array per phrase.
    """
    lowered = phrase.lower().strip()
    if not lowered:
        raise ValueError("cannot embed an empty phrase")
    if " " not in lowered:
        return word_vector(lowered)
    cached = _VECTORS.lookup("phrase", lowered)
    if cached is not None:
        return cached
    return _VECTORS.store("phrase", lowered,
                          _compute_phrase_vector(lowered))


def cosine(a: str, b: str) -> float:
    """Cosine similarity of two words/phrases in [-1, 1]."""
    return float(np.dot(phrase_vector(a), phrase_vector(b)))


def max_score(query: str, candidates: list[str]) -> tuple[str | None, float]:
    """The paper's ``maxScore``: the candidate most similar to ``query``.

    Returns ``(best_candidate, similarity)``; ``(None, -inf)`` when the
    candidate list is empty.
    """
    if not candidates:
        return None, float("-inf")
    query_vec = phrase_vector(query)
    best, best_score = None, float("-inf")
    for candidate in candidates:
        score = float(np.dot(query_vec, phrase_vector(candidate)))
        if score > best_score:
            best, best_score = candidate, score
    return best, best_score
