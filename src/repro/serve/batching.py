"""Micro-batching bridge from request threads to the BatchExecutor.

With a coalescing window, the HTTP front end runs each request on one
of a fixed pool of app threads (``max_batch`` of them);
the SVQA pipeline is at its best answering *batches* (shared worker
pool, per-worker clock shards, slot-aligned results).  The bridge sits
between the two: request threads :meth:`BatchingBridge.submit` their
question and block; a single collector thread coalesces everything
that arrived within a short window (bounded by ``max_batch``) into one
:meth:`repro.core.pipeline.SVQA.answer_many` call and hands each
thread back exactly the answer in its slot.

Slot alignment is inherited from the BatchExecutor contract (PR 3):
a request that is deadline-killed or crashes mid-batch still yields a
fallback answer *in its own slot*, so neighbours in the same batch can
never receive each other's answers.

With ``max_wait == 0`` the bridge runs **inline**: submit executes a
one-question batch synchronously under a serialization lock.  That
mode is fully deterministic (no coalescing races) and is the default
for tests and for replay-style serving.
"""

from __future__ import annotations

import threading
from collections.abc import Callable

from repro.core.answer import Answer
from repro.core.pipeline import SVQA
from repro.locks import note_read, note_write, wrap_lock


class _PendingRequest:
    """One blocked submitter: its question, deadline, and result slot."""

    __slots__ = ("question", "deadline", "done", "answer", "error")

    def __init__(self, question: str, deadline: float | None) -> None:
        self.question = question
        self.deadline = deadline
        self.done = threading.Event()
        self.answer: Answer | None = None
        self.error: Exception | None = None


class BatchingBridge:
    """Coalesce concurrent requests into ``answer_many`` batches.

    ``on_batch`` (optional) is called with each executed batch size —
    the serving layer points it at a histogram metric.
    """

    def __init__(
        self,
        svqa: SVQA,
        max_batch: int = 8,
        max_wait: float = 0.0,
        workers: int | None = None,
        on_batch: Callable[[int], None] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self.svqa = svqa
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.workers = workers
        self.on_batch = on_batch
        self._lock = wrap_lock(threading.Lock(), "serve.bridge")
        self._cond = threading.Condition(self._lock)
        self._pending: list[_PendingRequest] = []
        self._closed = False
        self._collector: threading.Thread | None = None
        if max_wait > 0:
            self._collector = threading.Thread(
                target=self._collect_loop,
                name="repro-serve-batcher",
                daemon=True,
            )
            self._collector.start()

    @property
    def inline(self) -> bool:
        """True when submit executes synchronously (``max_wait == 0``)."""
        return self._collector is None

    def pending_count(self) -> int:
        """Requests queued for the collector, not yet executing."""
        with self._lock:
            note_read("bridge.pending")
            return len(self._pending)

    def submit(self, question: str,
               deadline: float | None = None) -> Answer:
        """Answer one question, riding whatever batch forms around it.

        Blocks the calling thread until its slot's answer is ready;
        re-raises in the caller if the whole batch failed.
        """
        if self.inline:
            # Serialize under the bridge lock: answer_many merges
            # shard clocks back into the shared SimClock and is not
            # reentrant across threads.
            with self._lock:
                if self._closed:
                    raise RuntimeError("bridge is closed")
                answers = self.svqa.answer_many(
                    [question],
                    workers=self.workers,
                    deadlines=[deadline],
                )
            self._record_batch(1)
            return answers[0]
        request = _PendingRequest(question, deadline)
        with self._cond:
            if self._closed:
                raise RuntimeError("bridge is closed")
            note_write("bridge.pending")
            self._pending.append(request)
            self._cond.notify()
        request.done.wait()
        if request.error is not None:
            raise request.error  # the whole batch failed; rethrow here
        assert request.answer is not None
        return request.answer

    def _record_batch(self, size: int) -> None:
        if self.on_batch is not None:
            self.on_batch(size)

    def _collect_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if self._closed and not self._pending:
                    return
                if len(self._pending) < self.max_batch \
                        and not self._closed:
                    # one coalescing window: let stragglers join the
                    # batch that the first arrival opened
                    self._cond.wait(timeout=self.max_wait)
                note_write("bridge.pending")
                batch = self._pending[: self.max_batch]
                del self._pending[: self.max_batch]
            if batch:
                self._run_batch(batch)

    def _run_batch(self, batch: list[_PendingRequest]) -> None:
        try:
            answers = self.svqa.answer_many(
                [request.question for request in batch],
                workers=self.workers,
                deadlines=[request.deadline for request in batch],
            )
        except Exception as exc:  # noqa: BLE001 - handed to callers
            for request in batch:
                request.error = exc
                request.done.set()
            return
        self._record_batch(len(batch))
        for request, answer in zip(batch, answers, strict=True):
            request.answer = answer
            request.done.set()

    def close(self) -> None:
        """Stop accepting work; the collector drains what's queued."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._collector is not None:
            self._collector.join(timeout=5.0)


__all__ = ["BatchingBridge"]
