"""The bounded memo primitive, and the working set of every memo.

:class:`~repro.memo.Memo` is checked on its own: least-recently-used
order, first writer wins, failures not kept, and its lock seen by a
sanitizer installed after the memo was built.  ``TestServedTrafficFits``
asks the fast MVQA 100 at workers 1 and 4, as one batch and one
question per ``answer()``, and requires every memo to hold what an
unbounded memo would hold after the same asks: the shipped capacities
evict nothing on served traffic.
"""

import pytest

from repro import locks
from repro.analysis.concurrency.sanitizer import Sanitizer, SanitizerConfig
from repro.core import SVQA, SVQAConfig, pipeline
from repro.core import cache as cache_module
from repro.core import executor as executor_module
from repro.dataset.mvqa import build_mvqa
from repro.memo import Memo
from repro.nlp import embeddings
from repro.nlp import score_memo as score_memo_module
from repro.nlp.score_memo import ScoreMemo

UNBOUNDED = 10**9


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


class TestMemo:
    def test_least_recently_used_goes_first(self):
        memo = Memo(2, "test.memo")
        memo.get_or_compute("a", lambda: 1)
        memo.get_or_compute("b", lambda: 2)
        memo.get_or_compute("a", lambda: pytest.fail("a is held"))
        memo.get_or_compute("c", lambda: 3)  # b is least recent
        assert len(memo) == 2
        assert memo.get_or_compute("a", lambda: 10) == 1
        assert memo.get_or_compute("b", lambda: 20) == 20

    def test_zero_capacity_remembers_nothing(self):
        memo = Memo(0, "test.memo")
        assert memo.get_or_compute("a", lambda: 1) == 1
        assert memo.get_or_compute("a", lambda: 2) == 2
        assert len(memo) == 0

    def test_a_failed_computation_is_not_kept(self):
        memo = Memo(4, "test.memo")
        for _ in range(2):
            with pytest.raises(KeyError):
                memo.get_or_compute("a", lambda: {}["missing"])
        assert len(memo) == 0

    def test_negative_capacity_raises(self):
        with pytest.raises(ValueError):
            Memo(-1, "test.memo")

    def test_a_sanitizer_installed_later_sees_the_lock(self):
        memo = Memo(4, "test.memo")
        memo.get_or_compute("a", lambda: 1)
        san = Sanitizer(SanitizerConfig(seed=2))
        locks.install(san)
        try:
            memo.get_or_compute("a", lambda: 2)
            report = san.report()
        finally:
            locks.uninstall(san)
        assert report.clean, report.render()
        assert "test.memo" in report.lock_roles
        assert "test.memo" in report.structures


@pytest.fixture(scope="module")
def fast_mvqa():
    dataset = build_mvqa(seed=5, pool_size=1_200, image_count=400)
    system = SVQA(dataset.scenes, dataset.kg, SVQAConfig(workers=1))
    system.build()
    return system.merged, [q.text for q in dataset.questions]


def working_set(monkeypatch, merged, questions, workers, batched,
                capacity=None):
    """What every memo holds after the asks: with fresh memos at the
    shipped capacities, or all at ``capacity``."""
    def cap(shipped):
        return shipped if capacity is None else capacity

    vectors = Memo(cap(embeddings.VECTOR_CAPACITY), "nlp.embed_cache")
    reports = Memo(cap(executor_module.DIAGNOSTICS_CAPACITY),
                   "core.diagnostics")
    monkeypatch.setattr(embeddings, "_VECTORS", vectors)
    monkeypatch.setattr(executor_module, "_DIAGNOSTICS", reports)
    if capacity is not None:
        monkeypatch.setattr(pipeline, "QUERY_MEMO_CAPACITY", capacity)
        monkeypatch.setattr(cache_module, "KIND_CAPACITY", capacity)
        monkeypatch.setattr(score_memo_module, "SCORE_CAPACITY", capacity)
    monkeypatch.setattr(merged.graph, "score_memo", ScoreMemo())
    system = SVQA(config=SVQAConfig(workers=workers))
    system.adopt_merged(merged)
    if batched:
        system.answer_many(questions)
    else:
        for question in questions:
            system.answer(question)
    scores = merged.graph.score_memo
    sizes = {
        "vectors": len(vectors),
        "score rows": len(scores._scores),
        "scores": scores._held,
        "questions": len(system._query_graphs),
        "kinds": len(system._cache.kind),
        "reports": len(reports),
    }
    monkeypatch.undo()
    return sizes


class TestServedTrafficFits:
    @pytest.mark.parametrize("batched", [True, False],
                             ids=["batched", "one-per-answer"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_the_fast_100_evict_nothing(self, monkeypatch, fast_mvqa,
                                        workers, batched):
        merged, questions = fast_mvqa
        unbounded = working_set(monkeypatch, merged, questions, 1, True,
                                capacity=UNBOUNDED)
        # the working set measured when the capacities were chosen
        assert unbounded == {"vectors": 75, "score rows": 30,
                             "scores": 201, "questions": 97,
                             "kinds": 18, "reports": 100}
        assert working_set(monkeypatch, merged, questions, workers,
                           batched) == unbounded
