"""Concurrent batch execution over a shared merged graph (§V).

The paper notes the multi-query path "features high parallelization":
once ``G_mg`` is built, queries are independent, so a batch should run
on real worker threads rather than the analytical bin-packing model
(:func:`repro.core.pipeline.estimate_parallel_latency`, now a fallback
for the single-worker path).

:class:`BatchExecutor` runs scheduled query graphs on a
``ThreadPoolExecutor``.  Each worker thread owns a private
:class:`~repro.simtime.SimClock` *shard* (so simulated charging is
race-free) and a private :class:`QueryGraphExecutor`, while all
workers share one thread-safe :class:`KeyCentricCache` and one
:class:`ExecutorStats` collector.  After the batch, the shards yield
two simulated figures — the **aggregate** (total simulated work, the
sum over shards) and the **makespan** (the busiest lane, what a
parallel deployment would actually wait for) — reported alongside the
measured wall-clock seconds of the run itself.

Answers are returned in input order regardless of submission order or
thread interleaving, and per-query latencies stay in simulated
seconds, so the Figure 10/11 benchmarks keep their meaning under
concurrency.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.aggregator import MergedGraph
from repro.core.answer import Answer, fallback_answer
from repro.core.cache import KeyCentricCache
from repro.core.executor import ExecutorConfig, QueryGraphExecutor
from repro.core.spoc import QueryGraph, QuestionType
from repro.core.stats import ExecutorStats
from repro.errors import ReproError
from repro.locks import note_fork, note_join, note_write, wrap_lock
from repro.observability.spans import Tracer, maybe_trace
from repro.resilience.events import FaultEvent
from repro.resilience.manager import ResilienceManager
from repro.simtime import SimClock


@dataclass
class BatchResult:
    """What one concurrent batch run produced and cost."""

    answers: list[Answer]          # input order
    latencies: list[float]         # simulated seconds per query
    simulated_total: float         # sum over clock shards
    simulated_makespan: float      # busiest lane (what a user waits for)
    wall_clock: float              # measured seconds for the whole run
    workers: int
    shards: list[SimClock]         # one per worker lane actually used

    @property
    def shard_elapsed(self) -> list[float]:
        """Per-lane simulated seconds."""
        return [clock.elapsed for clock in self.shards]

    @property
    def speedup(self) -> float:
        """Simulated speedup: total work over the busiest lane."""
        if self.simulated_makespan <= 0:
            return 1.0
        return self.simulated_total / self.simulated_makespan

    def merge_into(self, clock: SimClock) -> None:
        """Fold every shard's charges (time *and* operation counts)
        into an aggregate clock."""
        for shard in self.shards:
            clock.merge(shard)


class BatchExecutor:
    """Runs batches of query graphs on a configurable worker pool.

    With ``workers=1`` the batch runs serially in the calling thread
    (fully deterministic — the fallback path).  With ``workers>1``
    every pool thread lazily creates its own executor + clock shard on
    first use; query graphs are submitted in the given order, so a
    frequency-ratio schedule still primes the shared cache early.
    """

    def __init__(
        self,
        merged: MergedGraph,
        cache: KeyCentricCache | None = None,
        config: ExecutorConfig | None = None,
        workers: int = 1,
        costs: dict[str, float] | None = None,
        stats: ExecutorStats | None = None,
        resilience: ResilienceManager | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.merged = merged
        self.cache = cache if cache is not None \
            else KeyCentricCache.disabled()
        self.config = config
        self.workers = workers
        self.costs = costs
        self.stats = stats if stats is not None else ExecutorStats()
        # every lane guards through one manager, so breakers are
        # per-site across the whole batch
        self.resilience = resilience or ResilienceManager()
        self.tracer = tracer

    def _new_shard(self) -> SimClock:
        if self.costs is not None:
            return SimClock(costs=dict(self.costs))
        return SimClock()

    def run(
        self,
        graphs: list[QueryGraph | None],
        order: list[int] | None = None,
        trace_ids: list[str] | None = None,
        deadlines: list[float | None] | None = None,
    ) -> BatchResult:
        """Execute the graphs; ``None`` entries answer ``"unknown"``.

        ``order`` is the submission order (e.g. a
        :func:`~repro.core.scheduler.schedule_queries` plan); results
        always come back in input order.  With a tracer attached,
        ``trace_ids`` names each slot's trace (defaults to
        ``q0000``-style input indices); each query records into its
        worker's private segment buffer, merged at segment close.
        ``deadlines`` gives each slot its own simulated-seconds budget
        (``None`` entries are unbounded): a deadline-killed slot stays
        filled — and aligned — with the best partial (degraded) answer
        instead of dropping out of the batch.
        """
        indices = list(order) if order is not None \
            else list(range(len(graphs)))
        if deadlines is not None and len(deadlines) != len(graphs):
            raise ValueError(
                f"deadlines must align with graphs: "
                f"{len(deadlines)} != {len(graphs)}"
            )
        answers: list[Answer | None] = [None] * len(graphs)
        latencies = [0.0] * len(graphs)
        shards: list[SimClock] = []
        shard_lock = wrap_lock(threading.Lock(), "batch.shards")
        local = threading.local()

        def run_one(index: int) -> None:
            graph = graphs[index]
            if graph is None:
                answers[index] = Answer(QuestionType.REASONING,
                                        "unknown")
                return
            executor = getattr(local, "executor", None)
            if executor is None:
                clock = self._new_shard()
                with shard_lock:
                    note_write("batch.shards")
                    shards.append(clock)
                executor = QueryGraphExecutor(
                    self.merged, cache=self.cache, clock=clock,
                    config=self.config, stats=self.stats,
                    resilience=self.resilience,
                    tracer=self.tracer,
                )
                local.executor = executor
            trace_id = trace_ids[index] if trace_ids is not None \
                else f"q{index:04d}"
            deadline_limit = deadlines[index] \
                if deadlines is not None else None
            start = executor.clock.snapshot()
            with maybe_trace(self.tracer, trace_id, executor.clock):
                try:
                    answer = executor.execute(
                        graph, deadline_limit=deadline_limit)
                except ReproError as exc:
                    # fail soft per query, never hard per batch: the
                    # slot stays filled (and aligned) and the event
                    # says why
                    try:
                        qtype = graph.question_type
                    except ValueError:
                        qtype = QuestionType.REASONING
                    answer = fallback_answer(qtype, [
                        FaultEvent("executor.execute", "error",
                                   detail=f"{type(exc).__name__}: {exc}"),
                    ])
                    self.stats.record_degraded()
            answer.latency = start.interval
            self.stats.record_latency(answer.latency)
            # each slot has exactly one writer; the parent reads only
            # after the pool joins (fork/join happens-before edges)
            note_write("batch.answers", index)
            answers[index] = answer
            latencies[index] = answer.latency

        wall_start = time.perf_counter()
        if self.workers == 1:
            for index in indices:
                run_one(index)
        else:
            note_fork()
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                futures = [pool.submit(run_one, i) for i in indices]
                for future in futures:
                    future.result()
            note_join()
        wall_clock = time.perf_counter() - wall_start

        shard_elapsed = [clock.elapsed for clock in shards]
        # every slot was filled by run_one (absorbed failures included),
        # so answers stay index-aligned with latencies and the inputs
        return BatchResult(
            answers=[a if a is not None
                     else Answer(QuestionType.REASONING, "unknown")
                     for a in answers],
            latencies=latencies,
            simulated_total=sum(shard_elapsed),
            simulated_makespan=max(shard_elapsed, default=0.0),
            wall_clock=wall_clock,
            workers=self.workers,
            shards=shards,
        )
