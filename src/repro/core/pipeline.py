"""The SVQA facade: images + knowledge graph -> answers (Figure 2).

``SVQA`` wires the full stack together:

* **build** — run scene-graph generation over every image and merge
  the results with the knowledge graph (Data Aggregator, §III);
* **answer_many** — the path every question takes: decompose each
  question into a query graph (§IV), then execute the batch over the
  merged graph (§V) with the §V-B optimizations: key-centric caching
  (scope, path and neighborhood items), frequency-ratio scheduling,
  and concurrent execution on a configurable worker pool
  (``SVQAConfig.workers``);
* **answer** — a one-question :meth:`SVQA.answer_many`.

All latencies are accounted on a :class:`~repro.simtime.SimClock`
(see that module for why).  Every answer carries its execute phase's
simulated latency; parsing charges the session clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import QueryError, ReproError
from repro.graph import Graph
from repro.memo import Memo
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import (
    Span,
    Tracer,
    maybe_span,
    maybe_trace,
)
from repro.resilience.events import FaultEvent
from repro.resilience.manager import ResilienceConfig, ResilienceManager
from repro.simtime import SimClock
from repro.synth.scene import SyntheticScene
from repro.vision.detector import DetectorConfig, SimulatedDetector
from repro.vision.relation import MODELS, RelationPredictor
from repro.vision.scene_graph import SGGConfig, SGGPipeline, SceneGraphResult
from repro.core.aggregator import AggregatorConfig, DataAggregator, MergedGraph
from repro.core.answer import Answer, fallback_answer
from repro.core.batch import BatchExecutor, BatchResult
from repro.core.cache import CacheReport, KeyCentricCache
from repro.core.executor import ExecutorConfig
from repro.core.query_graph import (
    QUERY_MEMO_CAPACITY,
    analyse_question,
    generate_query_graph,
)
from repro.core.scheduler import schedule_queries
from repro.core.spoc import QueryGraph
from repro.core.stats import ExecutorStats, ExecutorStatsReport

if TYPE_CHECKING:
    from repro.analysis.concurrency.sanitizer import (
        Sanitizer,
        SanitizerConfig,
    )


@dataclass
class SVQAConfig:
    """End-to-end configuration of the SVQA system."""

    relation_model: str = "neural-motifs"
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    sgg: SGGConfig = field(default_factory=SGGConfig)
    aggregator: AggregatorConfig = field(default_factory=AggregatorConfig)
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)
    cache_pool_size: int = 100
    enable_scope_cache: bool = True
    enable_path_cache: bool = True
    enable_scheduler: bool = True
    workers: int = 1  # worker threads for answer_many (1 = serial)
    #: resilience layer (fault injection / retry / deadline / breaker);
    #: always on — the default injects no faults, so it only degrades
    #: what really fails (a question the grammar rejects, a crash)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    #: span tracing; off keeps the path bit-identical — no tracer is
    #: even constructed
    trace: bool = False
    #: runtime lock/race sanitizer ("tsan-lite"); ``None`` keeps every
    #: lock raw and every note hook a single ``is None`` check, so
    #: answers are bit-identical with the sanitizer disabled
    sanitizer: SanitizerConfig | None = None


class SVQA:
    """The complete system of the paper.

    >>> from repro.dataset.kg import build_commonsense_kg
    >>> from repro.synth import SceneGenerator
    >>> scenes = SceneGenerator(seed=0).generate_pool(10)
    >>> svqa = SVQA(scenes, build_commonsense_kg())
    >>> svqa.build()                                    # doctest: +SKIP
    >>> svqa.answer("Is there a dog near the fence?")   # doctest: +SKIP

    ``scenes`` and ``kg`` (the corpus) are needed only by
    :meth:`build`; a warm start constructs the system without them and
    installs a recovered graph with :meth:`adopt_merged`.
    """

    def __init__(
        self,
        scenes: list[SyntheticScene] | None = None,
        kg: Graph | None = None,
        config: SVQAConfig | None = None,
        clock: SimClock | None = None,
        annotations: dict[tuple[int, str], str] | None = None,
    ) -> None:
        self.scenes = scenes
        self.kg = kg
        self.config = config or SVQAConfig()
        self.clock = clock if clock is not None else SimClock()
        self.annotations = annotations
        self.merged: MergedGraph | None = None
        self.scene_graphs: list[SceneGraphResult] | None = None
        # install the sanitizer (if configured) before any lock is
        # constructed, so every wrap_lock below sees the observer;
        # the import is lazy to keep repro.core a leaf of
        # repro.analysis (which imports core for the query rules)
        self.sanitizer: Sanitizer | None = None
        if self.config.sanitizer is not None:
            from repro import locks
            from repro.analysis.concurrency.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(self.config.sanitizer)
            locks.install(self.sanitizer)
        self._cache = self._make_cache()
        # session-owned: a memoised parse never outlives (or leaks
        # into another) SVQA instance; failed parses are not kept
        self._query_graphs = Memo(QUERY_MEMO_CAPACITY, "core.query_memo")
        self._stats = ExecutorStats()
        self._last_batch: BatchResult | None = None
        self.tracer: Tracer | None = None
        self._trace_seq = 0
        if self.config.trace:
            self.tracer = Tracer()
        self.resilience = ResilienceManager(self.config.resilience,
                                            stats=self._stats,
                                            tracer=self.tracer)

    def release_sanitizer(self) -> None:
        """Deactivate this instance's sanitizer (idempotent).

        The observer seam is process-wide, so a sanitized SVQA owns
        it until released; call this before building another
        sanitized instance (``repro sanitize`` and the sanitizer
        tests run workloads back to back).
        """
        if self.sanitizer is not None:
            from repro import locks

            locks.uninstall(self.sanitizer)

    def _make_cache(self) -> KeyCentricCache:
        config = self.config
        if not (config.enable_scope_cache or config.enable_path_cache):
            return KeyCentricCache.disabled()
        return KeyCentricCache.create(
            pool_size=config.cache_pool_size,
            enabled_scope=config.enable_scope_cache,
            enabled_path=config.enable_path_cache,
        )

    # ------------------------------------------------------------------
    # offline phase
    # ------------------------------------------------------------------
    def build(self) -> MergedGraph:
        """Scene-graph generation + graph merging (query-independent).

        Images and graph are query-independent (Assumption 1), so this
        runs once, before any question arrives.  Raises
        :class:`~repro.errors.QueryError` when the system was
        constructed without a corpus.
        """
        scenes, kg = self.scenes, self.kg
        if scenes is None or kg is None:
            raise QueryError(
                "build() needs a corpus: construct SVQA with scenes "
                "and a knowledge graph, or adopt_merged() a recovered "
                "graph instead"
            )
        spec = MODELS.get(self.config.relation_model)
        if spec is None:
            raise QueryError(
                f"unknown relation model: {self.config.relation_model!r}"
            )
        with maybe_trace(self.tracer, "build", self.clock), \
                maybe_span(self.tracer, "build",
                           images=len(scenes)) as span:
            self.clock.charge("model_load_sgg")
            pipeline = SGGPipeline(
                SimulatedDetector(self.config.detector),
                RelationPredictor(spec),
                self.config.sgg,
                clock=self.clock,
                resilience=self.resilience,
            )
            self.scene_graphs = pipeline.run_many(scenes)
            aggregator = DataAggregator(
                kg, self.config.aggregator, clock=self.clock,
                resilience=self.resilience, tracer=self.tracer,
            )
            self.merged = aggregator.merge(
                self.scene_graphs, self.annotations,
                skipped_images=pipeline.skipped_images,
            )
            if span is not None:
                span.set("vertices", self.merged.graph.vertex_count)
                span.set("skipped",
                         len(self.merged.skipped_images))
        self._bind(self.merged)
        return self.merged

    def adopt_merged(self, merged: MergedGraph) -> MergedGraph:
        """Install an already-built merged graph (warm start).

        The durable-store path: a recovered snapshot+WAL replay yields
        the same :class:`MergedGraph` that :meth:`build` would have
        produced, so the vision pipeline (detector, relation
        predictor, aggregator) is skipped entirely.  Answering is
        bit-identical to the cold path because the snapshot preserves
        vertex/edge insertion order, ids, and the graph epoch.
        """
        self.merged = merged
        self.scene_graphs = None
        self._bind(merged)
        return merged

    def _bind(self, merged: MergedGraph) -> None:
        """Bind the session's cache to the installed graph, so it
        observes every write from here on."""
        self._cache.bind(merged.graph, self._stats)

    def _require_built(self) -> MergedGraph:
        if self.merged is None:
            raise QueryError("call build() before answering questions")
        return self.merged

    def _next_trace_ids(self, count: int) -> list[str]:
        """Allocate ``count`` sequential ``q0000``-style trace ids.

        Ids are unique across the system's lifetime so repeated
        :meth:`answer_many` calls never collide in the span export.
        """
        start = self._trace_seq
        self._trace_seq += count
        return [f"q{start + i:04d}" for i in range(count)]

    # ------------------------------------------------------------------
    # online phase
    # ------------------------------------------------------------------
    def parse_question(self, question: str) -> QueryGraph:
        """§IV: question -> ordered query graph.

        Each distinct question is analysed once per session (the
        session's query memo of
        :func:`~repro.core.query_graph.analyse_question`); a repeat is
        charged and traced exactly like the first ask.
        """
        return generate_query_graph(question, clock=self.clock,
                                    tracer=self.tracer,
                                    analyse=self._analyse)

    def _analyse(self, question: str) -> QueryGraph:
        return self._query_graphs.get_or_compute(
            question, lambda: analyse_question(question))

    def _parse_resilient(
        self, question: str, events: list[FaultEvent]
    ) -> tuple[QueryGraph | None, float | None]:
        """Parse under the ``parse.question`` fault site.

        Returns ``(graph, confidence_cap)``: ``None`` cap means a
        clean parse.  When the grammar (or an injected fault,
        permanently) rejects the question, the degraded fallback
        supplies a single-clause graph and the cap its answers'
        confidence ceiling:
        :func:`~repro.resilience.degrade.keyword_query_graph` supplies
        the graph and ``KEYWORD_FALLBACK_CONFIDENCE`` the cap.
        ``(None, None)`` means every rung failed and the caller
        answers ``"unknown"``.
        """
        manager = self.resilience
        try:
            graph = manager.call(
                "parse.question", question,
                lambda: self.parse_question(question),
                clock=self.clock, events=events,
            )
            return graph, None
        except ReproError as exc:
            events.append(FaultEvent(
                "parse.question", "error",
                detail=f"{type(exc).__name__}: {exc}",
            ))
        from repro.resilience.degrade import (
            KEYWORD_FALLBACK_CONFIDENCE,
            keyword_query_graph,
        )

        graph = keyword_query_graph(question)
        if graph is not None:
            events.append(FaultEvent("parse.question", "degraded",
                                     detail="keyword-match fallback"))
            return graph, KEYWORD_FALLBACK_CONFIDENCE
        return None, None

    def _mark_parse_degraded(self, answer: Answer, cap: float) -> None:
        answer.confidence = min(answer.confidence, cap)
        if not answer.degraded:
            answer.degraded = True
            self._stats.record_degraded()

    def answer(
        self, question: str, deadline: float | None = None
    ) -> Answer:
        """Answer one complex question: a one-question :meth:`answer_many`.

        Walks the degradation ladder instead of raising, as the serving
        layer does: parse failures fall back to a keyword-match query
        (or an attributed ``"unknown"``), executor crashes become
        attributed ``"unknown"`` answers, and every salvaged answer
        carries its :class:`~repro.resilience.events.FaultEvent`
        provenance.

        ``deadline`` is a per-question budget in simulated seconds
        (the serving layer maps the ``Deadline-Ms`` request header
        here); execution past the budget is cut off with the best
        partial, degraded answer.  ``latency`` is the execute phase's
        simulated seconds; parsing charges the session clock
        (:attr:`elapsed`).
        """
        return self.answer_many([question], deadlines=[deadline])[0]

    def answer_many(
        self,
        questions: list[str],
        workers: int | None = None,
        deadlines: list[float | None] | None = None,
    ) -> list[Answer]:
        """Answer a batch with the §V-B multi-query optimizations.

        Query graphs are generated for all questions, ordered
        (:meth:`_batch_order`), and executed in that order against the
        shared thread-safe key-centric cache on ``workers`` pool
        threads (``workers=1``, the default, runs serially in the
        calling thread), and returned in input order.  Each worker
        charges a private :class:`~repro.simtime.SimClock` shard; the
        shards fold back into this system's clock, so ``elapsed``
        keeps measuring total simulated work.  The makespan / measured
        wall-clock view of the same run is on :attr:`last_batch`.

        ``deadlines`` optionally gives each question its own simulated
        -seconds budget (the serving layer's per-request ``Deadline-Ms``
        headers land here); deadline-killed slots stay aligned,
        answering with the best partial, degraded answer.
        """
        workers = self.config.workers if workers is None else workers
        merged = self._require_built()
        if deadlines is not None and len(deadlines) != len(questions):
            raise ValueError(
                f"deadlines must align with questions: "
                f"{len(deadlines)} != {len(questions)}"
            )
        trace_ids = self._next_trace_ids(len(questions))
        graphs: list[QueryGraph | None] = []
        pre_events: list[list[FaultEvent]] = []
        parse_caps: list[float | None] = []
        for i, question in enumerate(questions):
            events: list[FaultEvent] = []
            # the parse phase runs on the main thread; its trace
            # segment precedes the worker-side execute segment of the
            # same question id (segments are ordered by entry sequence)
            with maybe_trace(self.tracer, trace_ids[i], self.clock), \
                    maybe_span(self.tracer, "question",
                               question=question):
                graph, cap = self._parse_resilient(question, events)
                graphs.append(graph)
            pre_events.append(events)
            parse_caps.append(cap)

        order = self._batch_order(graphs)
        batch = BatchExecutor(
            merged, cache=self._cache,
            config=self.config.executor, workers=workers,
            costs=self.clock.costs, stats=self._stats,
            resilience=self.resilience, tracer=self.tracer,
        )
        result = batch.run(graphs, order=order, trace_ids=trace_ids,
                           deadlines=deadlines)
        result.merge_into(self.clock)
        self._last_batch = result
        self._attach_batch_provenance(
            result, questions, graphs, pre_events, parse_caps
        )
        return result.answers

    def _batch_order(self, graphs: list[QueryGraph | None]) -> list[int]:
        """The submission order of one :meth:`answer_many` batch: the
        §V-B frequency-ratio order with the scheduler on (unparseable
        slots last), the input order with it off (or with one
        question, where both orders are ``[0]``)."""
        if not self.config.enable_scheduler or len(graphs) == 1:
            return list(range(len(graphs)))
        valid = [i for i, g in enumerate(graphs) if g is not None]
        schedule = schedule_queries([graphs[i] for i in valid])
        return [valid[p] for p in schedule.order] + \
            [i for i, g in enumerate(graphs) if g is None]

    def _attach_batch_provenance(
        self,
        result: BatchResult,
        questions: list[str],
        graphs: list[QueryGraph | None],
        pre_events: list[list[FaultEvent]],
        parse_caps: list[float | None],
    ) -> None:
        """Fold parse-stage fault provenance into the batch's answers."""
        from repro.resilience.degrade import classify_question_text

        for i, answer in enumerate(result.answers):
            if graphs[i] is None:
                # replace the bare "unknown" slot with an attributed one
                salvaged = fallback_answer(
                    classify_question_text(questions[i]), pre_events[i]
                )
                salvaged.latency = result.latencies[i]
                result.answers[i] = salvaged
                self._stats.record_degraded()
                continue
            if pre_events[i]:
                answer.fault_events = pre_events[i] + answer.fault_events
            cap = parse_caps[i]
            if cap is not None:
                self._mark_parse_degraded(answer, cap)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def cache_report(self) -> CacheReport:
        """Scope/path hit statistics accumulated so far."""
        return CacheReport.from_cache(self._cache)

    def execution_report(self) -> ExecutionReport:
        """Successor of :meth:`cache_report`: cache hit statistics
        plus the executor's observability counters and (when
        ``answer_many`` has run) the latest batch's latency figures."""
        return ExecutionReport(
            cache=CacheReport.from_cache(self._cache),
            stats=self._stats.snapshot(),
            last_batch=self._last_batch,
        )

    @property
    def last_batch(self) -> BatchResult | None:
        """The most recent ``answer_many`` run's :class:`BatchResult`."""
        return self._last_batch

    @property
    def stats(self) -> ExecutorStats:
        """The shared execution-stats collector (metrics facade)."""
        return self._stats

    @property
    def metrics(self) -> MetricsRegistry:
        """The system-wide metrics registry behind :attr:`stats`."""
        return self._stats.registry

    def metrics_snapshot(self) -> dict[str, object]:
        """JSON-ready registry dump (refreshes derived gauges first)."""
        self._stats.snapshot()
        return self._stats.registry.to_json()

    def metrics_exposition(self) -> str:
        """Prometheus text exposition (refreshes derived gauges first)."""
        self._stats.snapshot()
        return self._stats.registry.to_prometheus()

    def finished_spans(self) -> list[Span]:
        """Every recorded span, canonically ordered (empty when
        observability is off)."""
        if self.tracer is None:
            return []
        return self.tracer.finished_spans()

    def spans_jsonl(self) -> str:
        """The span export as JSON Lines (empty when observability is
        off)."""
        if self.tracer is None:
            return ""
        return self.tracer.to_jsonl()

    @property
    def elapsed(self) -> float:
        """Total simulated seconds spent so far."""
        return self.clock.elapsed


@dataclass
class ExecutionReport:
    """Everything observable about execution so far: cache hit/miss
    totals, executor counters, and the latest batch run (if any)."""

    cache: CacheReport
    stats: ExecutorStatsReport
    last_batch: BatchResult | None


def estimate_parallel_latency(latencies: list[float], workers: int) -> float:
    """Wall-clock estimate when queries run on ``workers`` parallel lanes.

    Greedy longest-first bin packing: the makespan of the fullest lane.
    This is the §V "parallelize our algorithm" model.  Since the
    :class:`~repro.core.batch.BatchExecutor` runs batches on a real
    worker pool and reports measured makespans, this analytical model
    is only a fallback — it predicts, from a serial (``workers=1``)
    run's per-query latencies, what a parallel run would cost.
    """
    if workers <= 0:
        raise ValueError(f"workers must be >= 1, got {workers}")
    lanes = [0.0] * workers
    for latency in sorted(latencies, reverse=True):
        lanes[lanes.index(min(lanes))] += latency
    return max(lanes) if lanes else 0.0
