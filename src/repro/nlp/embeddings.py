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

import numpy as np

from repro.memo import Memo
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


#: word and phrase vectors remembered (least recently used dropped
#: first); the fast and paper MVQA runs use 75
VECTOR_CAPACITY = 4096

#: every scorer's vectors, keyed ``("word" | "phrase", spelling)``:
#: pure functions of the spelling, so they never go stale, and
#: concurrent misses converge on one shared array per key
_VECTORS = Memo(VECTOR_CAPACITY, "nlp.embed_cache")


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
    return _VECTORS.get_or_compute(
        ("word", lowered), lambda: _compute_word_vector(lowered))


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
    cosine("hang out with", "hanging out with") ~ 1.  Memoised in the
    shared vector memo, so the executor's score memo and the linear
    reference scan read the exact same array per phrase.
    """
    lowered = phrase.lower().strip()
    if not lowered:
        raise ValueError("cannot embed an empty phrase")
    if " " not in lowered:
        return word_vector(lowered)
    return _VECTORS.get_or_compute(
        ("phrase", lowered), lambda: _compute_phrase_vector(lowered))


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
