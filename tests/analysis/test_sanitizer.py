"""Runtime lock/race sanitizer ("tsan-lite") unit and pipeline tests."""

import threading

import pytest

from repro import locks
from repro.analysis.concurrency.sanitizer import (
    SanitizedLock,
    Sanitizer,
    SanitizerConfig,
)
from repro.core import SVQA, SVQAConfig
from repro.dataset.kg import build_commonsense_kg
from repro.synth import SceneGenerator


@pytest.fixture(autouse=True)
def _pristine_observer():
    """Detach any process-global observer (e.g. SVQA_SANITIZE=1 runs).

    These tests manage observer installation themselves; restore
    whatever was active afterwards so the rest of the suite keeps its
    environment-selected sanitizer.
    """
    previous = locks.current()
    if previous is not None:
        locks.uninstall(previous)
    yield
    leftover = locks.current()
    if leftover is not None:
        locks.uninstall(leftover)
    if previous is not None:
        locks.install(previous)


def finding_kinds(sanitizer):
    return [f.kind for f in sanitizer.report().findings]


class TestLockOrderTracking:
    def test_consistent_nesting_is_clean(self):
        san = Sanitizer(SanitizerConfig(seed=1))
        a = san.wrap(threading.Lock(), "a")
        b = san.wrap(threading.Lock(), "b")
        for _ in range(3):
            with a, b:
                pass
        report = san.report()
        assert report.clean
        assert "a -> b" in report.order_edges

    def test_opposite_orders_report_inversion(self):
        san = Sanitizer(SanitizerConfig(seed=1))
        a = san.wrap(threading.Lock(), "a")
        b = san.wrap(threading.Lock(), "b")
        with a, b:
            pass
        with b, a:
            pass
        report = san.report()
        assert [f.kind for f in report.findings] == [
            "lock-order-inversion"]
        assert report.findings[0].subject == "a <-> b"

    def test_inversion_across_threads(self):
        san = Sanitizer(SanitizerConfig(seed=1))
        a = san.wrap(threading.Lock(), "a")
        b = san.wrap(threading.Lock(), "b")

        def forward():
            with a, b:
                pass

        def backward():
            with b, a:
                pass

        for target in (forward, backward):
            worker = threading.Thread(target=target)
            worker.start()
            worker.join()
        assert finding_kinds(san) == ["lock-order-inversion"]

    def test_reentrant_reacquisition_is_not_an_edge(self):
        san = Sanitizer(SanitizerConfig(seed=1))
        lock = san.wrap(threading.RLock(), "r")
        with lock, lock:
            pass
        report = san.report()
        assert report.clean
        assert report.order_edges == ()


class TestRaceTracking:
    def test_unsynchronized_writes_are_reported(self):
        san = Sanitizer(SanitizerConfig(seed=1))
        san.note_access("shared", None, write=True)
        worker = threading.Thread(
            target=lambda: san.note_access("shared", None, write=True))
        worker.start()
        worker.join()
        findings = san.report().findings
        assert [f.kind for f in findings] == ["unsynchronized-write-write"]
        assert findings[0].subject == "shared"

    def test_common_lock_serializes_access(self):
        san = Sanitizer(SanitizerConfig(seed=1))
        guard = san.wrap(threading.Lock(), "guard")

        def touch():
            with guard:
                san.note_access("shared", None, write=True)

        touch()
        worker = threading.Thread(target=touch)
        worker.start()
        worker.join()
        assert san.report().clean

    def test_fork_join_establishes_happens_before(self):
        san = Sanitizer(SanitizerConfig(seed=1))
        san.note_access("shared", None, write=True)
        san.note_fork()
        worker = threading.Thread(
            target=lambda: san.note_access("shared", None, write=True))
        worker.start()
        worker.join()
        san.note_join()
        san.note_access("shared", None, write=True)
        assert san.report().clean

    def test_distinct_keys_do_not_conflict(self):
        san = Sanitizer(SanitizerConfig(seed=1))
        san.note_access("shards", 0, write=True)
        worker = threading.Thread(
            target=lambda: san.note_access("shards", 1, write=True))
        worker.start()
        worker.join()
        assert san.report().clean


class TestSanitizedLock:
    def test_wraps_as_context_manager_and_condition_base(self):
        san = Sanitizer(SanitizerConfig(seed=1))
        lock = san.wrap(threading.Lock(), "cond.base")
        assert isinstance(lock, SanitizedLock)
        cond = threading.Condition(lock)
        with cond:
            cond.notify_all()
        # released again: a non-blocking acquire succeeds
        assert lock.acquire(blocking=False)
        lock.release()

    def test_nonblocking_acquire_failure_emits_no_event(self):
        san = Sanitizer(SanitizerConfig(seed=1))
        lock = san.wrap(threading.Lock(), "probe")
        lock._inner.acquire()
        try:
            assert lock.acquire(False) is False
        finally:
            lock._inner.release()
        with lock:
            pass
        assert san.report().clean


class TestObserverSeam:
    def test_wrap_lock_is_identity_when_inactive(self):
        raw = threading.Lock()
        assert locks.wrap_lock(raw, "x") is raw

    def test_install_conflict_raises_and_uninstall_is_idempotent(self):
        first = Sanitizer(SanitizerConfig(seed=1))
        second = Sanitizer(SanitizerConfig(seed=2))
        locks.install(first)
        try:
            with pytest.raises(RuntimeError):
                locks.install(second)
            locks.install(first)  # re-install of the same observer: ok
        finally:
            locks.uninstall(first)
        locks.uninstall(first)  # second uninstall is a no-op
        assert locks.current() is None


def run_sanitized_battery(workers):
    scenes = SceneGenerator(seed=11).generate_pool(4)
    config = SVQAConfig(workers=workers,
                        sanitizer=SanitizerConfig(seed=11))
    system = SVQA(scenes, build_commonsense_kg(), config)
    try:
        system.build()
        questions = [
            "Is there a dog near the fence?",
            "How many dogs are standing on the grass?",
            "What color is the car near the tree?",
        ] * 2
        answers = system.answer_many(questions)
        report = system.sanitizer.report()
    finally:
        system.release_sanitizer()
    return [a.value for a in answers], report


class TestPipelineUnderSanitizer:
    def test_full_pipeline_is_clean_and_deterministic(self):
        values_one, report_one = run_sanitized_battery(workers=2)
        values_two, report_two = run_sanitized_battery(workers=2)
        assert report_one.clean, report_one.render()
        assert report_one.render() == report_two.render()
        assert values_one == values_two

    def test_report_is_stable_across_worker_counts(self):
        _, serial = run_sanitized_battery(workers=1)
        _, threaded = run_sanitized_battery(workers=2)
        assert serial.render() == threaded.render()

    def test_answers_bit_identical_with_sanitizer_off(self):
        sanitized, _ = run_sanitized_battery(workers=2)
        scenes = SceneGenerator(seed=11).generate_pool(4)
        system = SVQA(scenes, build_commonsense_kg(),
                      SVQAConfig(workers=2))
        system.build()
        questions = [
            "Is there a dog near the fence?",
            "How many dogs are standing on the grass?",
            "What color is the car near the tree?",
        ] * 2
        plain = [a.value for a in system.answer_many(questions)]
        assert plain == sanitized

    def test_sanitizer_off_installs_nothing(self):
        scenes = SceneGenerator(seed=11).generate_pool(2)
        system = SVQA(scenes, build_commonsense_kg(), SVQAConfig())
        system.build()
        assert system.sanitizer is None
        assert locks.current() is None
