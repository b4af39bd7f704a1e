"""Thread-safety, identity and bound tests for the shared vector memo.

The old module-level ``_CACHE`` dict was read-then-written from
BatchExecutor worker threads with no lock and grew with every new
phrase; word and phrase vectors now live in one bounded
:class:`~repro.memo.Memo` (role ``nlp.embed_cache``).  These tests pin
the contracts that matter: memoised vectors are byte-identical to
fresh computes, concurrent misses on the same keys are clean under the
runtime sanitizer (the ``repro sanitize`` / ``SVQA_SANITIZE=1``
observer), and more distinct phrases than the capacity keep the memo
within it.
"""

import threading

import numpy as np
import pytest

from repro import locks
from repro.analysis.concurrency.sanitizer import Sanitizer, SanitizerConfig
from repro.memo import Memo
from repro.nlp import embeddings
from repro.nlp.embeddings import (
    VECTOR_CAPACITY,
    _compute_phrase_vector,
    _compute_word_vector,
    phrase_vector,
    word_vector,
)


def vector_memo(capacity=VECTOR_CAPACITY):
    """A memo like the shared one."""
    return Memo(capacity, "nlp.embed_cache")


@pytest.fixture(autouse=True)
def _pristine_observer():
    """Detach any process-global observer; restore it afterwards."""
    previous = locks.current()
    if previous is not None:
        locks.uninstall(previous)
    yield
    leftover = locks.current()
    if leftover is not None:
        locks.uninstall(leftover)
    if previous is not None:
        locks.install(previous)


class TestCachedVsFresh:
    def test_word_vector_matches_uncached_compute(self):
        for word in ("dog", "wearing", "fence", "Neville"):
            np.testing.assert_array_equal(
                word_vector(word), _compute_word_vector(word.lower())
            )

    def test_phrase_vector_matches_uncached_compute(self):
        for phrase in ("standing on", "hanging out with"):
            np.testing.assert_array_equal(
                phrase_vector(phrase), _compute_phrase_vector(phrase)
            )

    def test_repeat_lookups_share_one_canonical_array(self):
        assert word_vector("dog") is word_vector("dog")
        assert phrase_vector("standing on") is \
            phrase_vector("standing on")

    def test_store_keeps_first_writer(self):
        memo = vector_memo()
        first = np.zeros(3)
        second = np.ones(3)

        def racing():
            # another lane stores the key while this one computes
            assert memo.get_or_compute(("word", "x"), lambda: first) \
                is first
            return second

        assert memo.get_or_compute(("word", "x"), racing) is first
        assert memo.get_or_compute(("word", "x"), lambda: second) is first

    def test_a_miss_computes_once(self):
        memo = vector_memo()
        calls = []

        def compute():
            calls.append(1)
            return np.zeros(3)

        first = memo.get_or_compute(("word", "nothing"), compute)
        assert memo.get_or_compute(("word", "nothing"), compute) is first
        assert calls == [1]


class TestBoundedGrowth:
    def test_more_phrases_than_its_capacity(self, monkeypatch):
        """Phrases never seen before keep a small memo within its
        capacity, and every vector still equals a fresh compute."""
        monkeypatch.setattr(embeddings, "_VECTORS", vector_memo(8))
        for i in range(40):
            phrase = f"unseen phrase {i}"
            np.testing.assert_array_equal(
                phrase_vector(phrase), _compute_phrase_vector(phrase))
            np.testing.assert_array_equal(
                word_vector(f"unseen{i}"), _compute_word_vector(f"unseen{i}"))
            assert len(embeddings._VECTORS) <= 8
        assert len(embeddings._VECTORS) == 8


class TestUnderSanitizer:
    def test_concurrent_misses_are_clean_and_identical(self):
        """Worker threads racing on the same cache keys must produce
        no sanitizer findings and converge on the fresh-compute values
        — the regression test for the unlocked module dict."""
        san = Sanitizer(SanitizerConfig(seed=3))
        locks.install(san)
        try:
            memo = vector_memo()

            def compute(kind, key):
                if kind == "word":
                    return _compute_word_vector(key)
                return _compute_phrase_vector(key)

            keys = [("word", f"racer{i}") for i in range(8)] + \
                [("phrase", f"race phrase {i}") for i in range(8)]
            results = [[] for _ in range(4)]

            def worker(slot):
                for kind, key in keys:
                    results[slot].append(memo.get_or_compute(
                        (kind, key),
                        lambda kind=kind, key=key: compute(kind, key)))

            locks.note_fork()
            threads = [threading.Thread(target=worker, args=(slot,))
                       for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            locks.note_join()

            report = san.report()
            assert report.clean, report.render()
            for slot in range(4):
                for (kind, key), got in zip(keys, results[slot]):
                    np.testing.assert_array_equal(got,
                                                  compute(kind, key))
            # all threads converged on one canonical array per key
            for row in zip(*results):
                assert all(arr is row[0] for arr in row)
        finally:
            locks.uninstall(san)

    def test_runtime_installed_observer_sees_the_cache_lock(self):
        """The memo is built at import time; a sanitizer installed
        later must still observe its critical sections (the
        :class:`~repro.memo.SharedLock` re-wrap seam)."""
        san = Sanitizer(SanitizerConfig(seed=4))
        locks.install(san)
        try:
            word_vector("observed-after-install")
            events = [e for e in san.report().order_edges]
            # the lock participated in at least the access log: the
            # race tracker saw the guarded read/write without findings
            assert san.report().clean
            assert events is not None
        finally:
            locks.uninstall(san)
