"""The QA service: a stdlib-only WSGI app plus its HTTP server.

The heavy lifting — scene-graph generation, KG merge, executor and
cache construction — happens **once**, in :func:`build_service`,
before the first request.  Request handling then only parses a
question, passes admission control, rides a micro-batch through the
shared BatchExecutor, and serializes the slot's answer.

Routes:

========  ==========  ==================================================
method    path        body
========  ==========  ==================================================
POST      /ask        :func:`repro.serve.contract.ask_response`
GET       /healthz    :func:`repro.serve.contract.healthz_payload`
GET       /metrics    Prometheus text (``MetricsRegistry.to_prometheus``)
========  ==========  ==================================================

The app is a plain WSGI callable, so tests drive it in-process with
no sockets; :func:`make_qa_server` puts it behind the event-loop
front end of :mod:`repro.serve.frontend` for ``repro serve`` and the
CI smoke job.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.core.pipeline import SVQA, SVQAConfig
from repro.graph import Graph
from repro.graph.durable import RecoveryReport
from repro.locks import wrap_lock
from repro.observability.metrics import COUNT_BUCKETS
from repro.resilience import ResilienceConfig
from repro.serve.admission import AdmissionController
from repro.serve.batching import BatchingBridge
from repro.serve.contract import (
    DEADLINE_HEADER,
    ask_response,
    encode_json,
    error_body,
    healthz_payload,
    parse_deadline_ms,
)
from repro.serve.frontend import MAX_BODY, QAHTTPServer
from repro.synth.scene import SyntheticScene

_STATUS_LINES = {
    200: "200 OK",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    408: "408 Request Timeout",
    413: "413 Payload Too Large",
    429: "429 Too Many Requests",
    500: "500 Internal Server Error",
    503: "503 Service Unavailable",
}


@dataclass
class ServeConfig:
    """Every serving knob in one place (CLI flags map 1:1 onto this).

    ``scenario`` picks the corpus built at startup: ``movie`` (the
    flagship five-scene set, fast) or ``mvqa`` (the reduced synthetic
    benchmark).  ``rate``/``burst`` parameterize the per-client token
    bucket in tokens per *simulated* second; ``default_deadline_ms``
    applies when a request carries no ``Deadline-Ms`` header
    (``None`` = unbounded).  ``batch_wait`` is the micro-batching
    coalescing window in wall seconds — 0 serves inline
    (deterministic, the default).
    """

    scenario: str = "movie"
    seed: int = 0
    workers: int = 1
    max_batch: int = 8
    batch_wait: float = 0.0
    rate: float = 10.0
    burst: int = 20
    default_deadline_ms: float | None = None
    chaos: float | None = None
    #: durable-store directory for warm start (``repro serve
    #: --snapshot``); recovery failure degrades to a cold rebuild
    snapshot: str | None = None


def build_svqa(config: ServeConfig) -> SVQA:
    """Construct and build the pipeline for one server process."""
    svqa, _report = build_svqa_with_store(config)
    return svqa


def build_svqa_with_store(
    config: ServeConfig,
) -> tuple[SVQA, RecoveryReport | None]:
    """Construct the pipeline, warm-starting from a snapshot if asked.

    The resilience layer runs with empty fault specs (production
    guards) and the scenario seed; ``chaos`` switches on uniform fault
    injection for soak-style runs.

    With ``config.snapshot`` set, the durable store at that directory
    is recovered (snapshot load + WAL replay) and adopted in place of
    the cold build, so neither the scenario corpus nor the vision
    pipeline runs; an unrecoverable store degrades to the cold build
    (corpus + vision), counted on ``svqa_store_rebuilds_total`` and
    surfaced in the returned :class:`~repro.graph.durable.RecoveryReport`.
    Either way, every breaker gauge series is published so cold and
    warm servers expose identical ``/metrics`` families.
    """
    if config.chaos is not None:
        resilience = ResilienceConfig.chaos(config.chaos,
                                            seed=config.seed)
    else:
        resilience = ResilienceConfig(seed=config.seed)
    svqa = SVQA(config=_svqa_config(config, resilience))
    report: RecoveryReport | None = None
    if config.snapshot is not None:
        report = _warm_start(svqa, config.snapshot)
    if svqa.merged is None:
        # the corpus is built only when there is nothing to adopt
        svqa.scenes, svqa.kg, svqa.annotations = \
            _scenario_corpus(config.scenario)
        svqa.build()
    svqa.resilience.publish_breaker_states()
    return svqa, report


def _svqa_config(
    config: ServeConfig, resilience: ResilienceConfig
) -> SVQAConfig:
    """The scenario's pipeline configuration (validates the name)."""
    if config.scenario == "movie":
        from repro.vision.detector import DetectorConfig

        return SVQAConfig(
            workers=config.workers,
            resilience=resilience,
            detector=DetectorConfig(label_noise=0.0, miss_rate=0.0),
        )
    if config.scenario == "mvqa":
        return SVQAConfig(workers=config.workers, resilience=resilience)
    raise ValueError(
        f"unknown scenario {config.scenario!r} "
        "(expected 'movie' or 'mvqa')"
    )


def _scenario_corpus(
    scenario: str,
) -> tuple[list[SyntheticScene], Graph,
           dict[tuple[int, str], str] | None]:
    """The scenario's images, knowledge graph and annotations.

    Built only for a cold build: a warm start adopts the recovered
    merged graph and never needs them.  ``build_mvqa`` is resolved
    through its module at call time, so patching
    ``repro.dataset.mvqa.build_mvqa`` takes effect here.
    """
    if scenario == "movie":
        from repro.dataset.kg import build_movie_kg
        from repro.dataset.movie import build_movie_scenes

        movie = build_movie_scenes()
        return movie.scenes, build_movie_kg(), movie.annotations
    from repro.dataset.mvqa import build_mvqa

    dataset = build_mvqa(seed=5, pool_size=1_200, image_count=400)
    return dataset.scenes, dataset.kg, None


def _warm_start(svqa: SVQA, store_root: str) -> RecoveryReport:
    """Adopt the durable store's recovered graph, or degrade to cold.

    A recovered snapshot must also carry the ``merged_meta`` record
    (the MergedGraph bookkeeping); without it the graph alone cannot
    seed the executor, so the warm start degrades to a rebuild with an
    attributed note.  The caller runs the cold build when
    ``svqa.merged`` is still ``None`` afterwards.
    """
    from repro.core.aggregator import MergedGraph
    from repro.graph.durable import DurableStore
    from repro.observability.spans import maybe_trace

    store = DurableStore(store_root, resilience=svqa.resilience,
                         clock=svqa.clock, tracer=svqa.tracer)
    with maybe_trace(svqa.tracer, "warm-start", svqa.clock):
        result = store.recover()
    report = result.report
    if result.graph is not None:
        if result.merged_meta is None:
            report.source = "rebuild"
            report.notes.append(
                "snapshot carries no merged_meta record; cannot seed "
                "the executor — rebuilding")
        else:
            try:
                merged = MergedGraph.from_snapshot(
                    result.graph, result.merged_meta)
            except (KeyError, TypeError, ValueError) as exc:
                report.source = "rebuild"
                report.notes.append(
                    "merged_meta record is malformed "
                    f"({type(exc).__name__}); rebuilding")
            else:
                svqa.adopt_merged(merged)
    if report.source == "rebuild":
        svqa.stats.record_store_rebuild()
    return report


class QAService:
    """The WSGI application: routing, admission, and serialization.

    One instance owns the built pipeline, the admission controller,
    and the batching bridge for the whole process lifetime.
    """

    def __init__(
        self,
        svqa: SVQA,
        config: ServeConfig | None = None,
        store_report: RecoveryReport | None = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.svqa = svqa
        self.store_report = store_report
        self.admission = AdmissionController(
            clock=lambda: svqa.clock.elapsed,
            rate=self.config.rate,
            burst=self.config.burst,
        )
        self.bridge = BatchingBridge(
            svqa,
            max_batch=self.config.max_batch,
            max_wait=self.config.batch_wait,
            workers=self.config.workers,
            on_batch=self._record_batch,
        )
        self._lock = wrap_lock(threading.Lock(), "serve.app")
        self._requests_total = 0
        registry = svqa.metrics
        self._http_requests = registry.counter(
            "svqa_http_requests_total",
            "HTTP requests served, by route and status code.",
            labels=("route", "code"),
        )
        self._admission_outcomes = registry.counter(
            "svqa_admission_total",
            "Admission decisions, by outcome.",
            labels=("outcome",),
        )
        self._batch_sizes = registry.histogram(
            "svqa_serve_batch_size",
            "Executed micro-batch sizes.",
            buckets=COUNT_BUCKETS,
        )

    def _record_batch(self, size: int) -> None:
        self._batch_sizes.observe(float(size))

    # -- request handling -------------------------------------------------

    def __call__(
        self,
        environ: dict[str, object],
        start_response: Callable[..., object],
    ) -> Iterable[bytes]:
        """WSGI entry point: route, handle, and meter one request."""
        method = str(environ.get("REQUEST_METHOD", "GET")).upper()
        path = str(environ.get("PATH_INFO", "/"))
        route = path if path in ("/ask", "/healthz", "/metrics") \
            else "unknown"
        try:
            status, headers, body = self._dispatch(method, path, environ)
        except Exception as exc:  # noqa: BLE001 - edge of the service
            status = 500
            headers = [("Content-Type", "application/json")]
            body = encode_json(error_body(
                500, "internal-error", f"{type(exc).__name__}: {exc}"))
        with self._lock:
            self._requests_total += 1
        self._http_requests.inc(route=route, code=str(status))
        headers = [*headers, ("Content-Length", str(len(body)))]
        start_response(_STATUS_LINES[status], headers)
        return [body]

    def _dispatch(
        self, method: str, path: str, environ: dict[str, object]
    ) -> tuple[int, list[tuple[str, str]], bytes]:
        if path == "/ask":
            if method != "POST":
                return self._json(405, error_body(
                    405, "method-not-allowed", "POST /ask"))
            return self._handle_ask(environ)
        if path == "/healthz":
            if method != "GET":
                return self._json(405, error_body(
                    405, "method-not-allowed", "GET /healthz"))
            return self._json(200, self.healthz())
        if path == "/metrics":
            if method != "GET":
                return self._json(405, error_body(
                    405, "method-not-allowed", "GET /metrics"))
            text = self.svqa.metrics_exposition().encode("utf-8")
            return (
                200,
                [("Content-Type",
                  "text/plain; version=0.0.4; charset=utf-8")],
                text,
            )
        return self._json(404, error_body(404, "not-found", path))

    @staticmethod
    def _json(
        status: int, payload: dict[str, object]
    ) -> tuple[int, list[tuple[str, str]], bytes]:
        return (status, [("Content-Type", "application/json")],
                encode_json(payload))

    def _read_body(self, environ: dict[str, object]) -> bytes:
        try:
            length = int(str(environ.get("CONTENT_LENGTH") or 0))
        except ValueError:
            length = 0
        if length <= 0:
            return b""
        if length > MAX_BODY:
            raise _RequestTooLarge(length)
        stream = environ.get("wsgi.input")
        if stream is None:
            return b""
        return stream.read(length)  # type: ignore[attr-defined]

    def _handle_ask(
        self, environ: dict[str, object]
    ) -> tuple[int, list[tuple[str, str]], bytes]:
        import json as _json

        try:
            raw = self._read_body(environ)
        except _RequestTooLarge as exc:
            return self._json(413, error_body(
                413, "payload-too-large",
                f"body of {exc.length} bytes exceeds "
                f"{MAX_BODY}"))
        except TimeoutError:
            return self._json(408, error_body(
                408, "request-timeout", "request body stalled"))
        try:
            payload = _json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, _json.JSONDecodeError) as exc:
            return self._json(400, error_body(
                400, "bad-json", str(exc)))
        if not isinstance(payload, dict) or \
                not isinstance(payload.get("question"), str) or \
                not payload["question"].strip():
            return self._json(400, error_body(
                400, "bad-request",
                'body must be {"question": "<non-empty string>"}'))
        question = payload["question"]
        client = str(
            environ.get("HTTP_X_CLIENT_ID")
            or payload.get("client")
            or "anonymous"
        )
        raw_deadline = environ.get("HTTP_DEADLINE_MS")
        try:
            deadline_s = parse_deadline_ms(
                None if raw_deadline is None else str(raw_deadline))
        except ValueError as exc:
            return self._json(400, error_body(400, "bad-deadline",
                                              str(exc)))
        if deadline_s is None and \
                self.config.default_deadline_ms is not None:
            deadline_s = self.config.default_deadline_ms / 1000.0
        decision = self.admission.admit(client)
        self._admission_outcomes.inc(outcome=decision.reason)
        if not decision.admitted:
            status, headers, body = self._json(
                decision.status,
                error_body(decision.status, decision.reason,
                           f"client {client!r} refused admission",
                           retry_after_s=decision.retry_after_s),
            )
            if decision.retry_after_s is not None:
                headers = [*headers,
                           ("Retry-After", f"{decision.retry_after_s}")]
            return status, headers, body
        try:
            answer = self.bridge.submit(question, deadline_s)
        finally:
            self.admission.release()
        return self._json(200, ask_response(answer, deadline_s))

    # -- health -----------------------------------------------------------

    def healthz(self) -> dict[str, object]:
        """Live service health (read fresh on every call)."""
        breakers = self.svqa.resilience.breaker_states()
        merged = getattr(self.svqa, "merged", None)
        with self._lock:
            requests_total = self._requests_total
        return healthz_payload(
            breakers=breakers,
            index_ready=merged is not None,
            graph_epoch=merged.graph.epoch if merged is not None else 0,
            graph_vertices=merged.graph.vertex_count
            if merged is not None else 0,
            in_flight=self.admission.in_flight,
            queued=self.bridge.pending_count(),
            requests_total=requests_total,
            store=self.store_report.healthz()
            if self.store_report is not None else None,
        )

    def close(self) -> None:
        """Stop the batching collector (idempotent)."""
        self.bridge.close()


class _RequestTooLarge(Exception):
    def __init__(self, length: int) -> None:
        super().__init__(f"request body too large: {length}")
        self.length = length


def build_service(config: ServeConfig | None = None) -> QAService:
    """Build the pipeline once and wrap it in a ready service."""
    config = config if config is not None else ServeConfig()
    svqa, report = build_svqa_with_store(config)
    return QAService(svqa, config, store_report=report)


def make_qa_server(
    service: QAService, host: str = "127.0.0.1", port: int = 0
) -> QAHTTPServer:
    """Bind the HTTP server (port 0 = ephemeral, for tests/CI).

    An inline bridge answers on the loop thread; a coalescing one
    (``batch_wait`` > 0) gets ``max_batch`` app threads, so that many
    requests can wait in one batch.
    """
    threads = 0 if service.bridge.inline else service.config.max_batch
    return QAHTTPServer((host, port), service, app_threads=threads)


__all__ = [
    "DEADLINE_HEADER",
    "QAService",
    "ServeConfig",
    "build_service",
    "build_svqa",
    "build_svqa_with_store",
    "make_qa_server",
]
