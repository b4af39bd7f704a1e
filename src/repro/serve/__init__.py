"""The serving layer: a long-lived QA server over the SVQA pipeline.

Built once at startup, then stateless per request (DESIGN.md §5g):

* :mod:`repro.serve.app` — the WSGI application and scenario
  builders;
* :mod:`repro.serve.frontend` — the HTTP front end behind
  ``repro serve``: one ``selectors`` event loop, no thread per
  connection, one request per connection;
* :mod:`repro.serve.admission` — deterministic per-client
  token-bucket rate limiting;
* :mod:`repro.serve.batching` — the micro-batching bridge from
  the app's callers into the shared
  :class:`~repro.core.batch.BatchExecutor`;
* :mod:`repro.serve.contract` — every wire shape the service emits,
  with deterministic JSON encoding.

Stdlib only: ``socket`` and ``selectors``; no new dependencies.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from repro.serve.app import (
    QAService,
    ServeConfig,
    build_service,
    build_svqa,
    make_qa_server,
)
from repro.serve.batching import BatchingBridge
from repro.serve.contract import (
    DEADLINE_HEADER,
    ask_response,
    encode_json,
    error_body,
    healthz_payload,
    parse_deadline_ms,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "BatchingBridge",
    "DEADLINE_HEADER",
    "QAService",
    "ServeConfig",
    "TokenBucket",
    "ask_response",
    "build_service",
    "build_svqa",
    "encode_json",
    "error_body",
    "healthz_payload",
    "make_qa_server",
    "parse_deadline_ms",
]
