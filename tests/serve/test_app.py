"""The WSGI QA service: contract, admission, health, determinism.

Everything here drives the app in-process (plain WSGI environ dicts,
no sockets); the CI smoke job covers the real server.
"""

import io
import json

import pytest

from repro.dataset.movie import FLAGSHIP_ANSWER, FLAGSHIP_QUESTION
from repro.observability import parse_prometheus
from repro.resilience.faults import FAULT_SITES
from repro.serve import QAService, ServeConfig, build_svqa


def request(service, method, path, body=None, headers=None):
    """One in-process WSGI round trip -> (status_code, headers, bytes)."""
    environ = {"REQUEST_METHOD": method, "PATH_INFO": path}
    if body is not None:
        raw = json.dumps(body).encode("utf-8")
        environ["CONTENT_LENGTH"] = str(len(raw))
        environ["wsgi.input"] = io.BytesIO(raw)
    for name, value in (headers or {}).items():
        environ["HTTP_" + name.upper().replace("-", "_")] = value
    captured = {}

    def start_response(status, response_headers):
        captured["status"] = int(status.split()[0])
        captured["headers"] = dict(response_headers)

    payload = b"".join(service(environ, start_response))
    return captured["status"], captured["headers"], payload


def ask(service, question, headers=None, client=None):
    body = {"question": question}
    if client is not None:
        body["client"] = client
    return request(service, "POST", "/ask", body, headers)


@pytest.fixture(scope="module")
def svqa():
    return build_svqa(ServeConfig())


@pytest.fixture()
def service(svqa):
    return QAService(svqa, ServeConfig())


class TestAskContract:
    def test_answer_payload_shape(self, service):
        status, headers, body = ask(service, FLAGSHIP_QUESTION)
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        payload = json.loads(body)
        assert sorted(payload) == ["answer", "meta", "question_type",
                                   "sources"]
        assert payload["answer"] == FLAGSHIP_ANSWER
        assert sorted(payload["sources"]) == ["images", "support"]
        assert payload["sources"]["images"]
        meta = payload["meta"]
        assert sorted(meta) == ["confidence", "deadline_s", "degraded",
                                "fault_events", "latency"]
        assert meta["degraded"] is False
        assert meta["confidence"] == 1.0
        assert meta["fault_events"] == []

    def test_body_and_content_length_agree(self, service):
        _, headers, body = ask(service, FLAGSHIP_QUESTION)
        assert int(headers["Content-Length"]) == len(body)

    def test_unparseable_question_degrades_not_500(self, service):
        status, _, body = ask(service, "canis canis canis")
        assert status == 200
        payload = json.loads(body)
        assert payload["answer"] == "unknown"
        assert payload["meta"]["degraded"] is True
        assert payload["meta"]["confidence"] < 1.0
        assert any(event["site"] == "parse.question"
                   for event in payload["meta"]["fault_events"])
        # nothing executed: meta still carries a latency, and it is 0
        assert payload["meta"]["latency"] == 0.0

    def test_deadline_header_cuts_execution(self, service):
        status, _, body = ask(service, FLAGSHIP_QUESTION,
                              headers={"Deadline-Ms": "0.0005"})
        assert status == 200
        payload = json.loads(body)
        assert payload["meta"]["deadline_s"] == 5e-07
        assert payload["meta"]["degraded"] is True
        assert any(event["kind"] == "deadline"
                   for event in payload["meta"]["fault_events"])

    def test_bad_deadline_header_is_400(self, service):
        for bad in ("abc", "-5", "0"):
            status, _, body = ask(service, FLAGSHIP_QUESTION,
                                  headers={"Deadline-Ms": bad})
            assert status == 400
            assert json.loads(body)["error"]["reason"] == "bad-deadline"

    def test_malformed_requests_are_400(self, service):
        for body in ({}, {"question": ""}, {"question": 7}, []):
            status, _, raw = request(service, "POST", "/ask", body)
            assert status == 400
            assert json.loads(raw)["error"]["status"] == 400

    def test_unknown_route_and_wrong_method(self, service):
        assert request(service, "GET", "/nope")[0] == 404
        assert request(service, "GET", "/ask")[0] == 405
        assert request(service, "POST", "/healthz")[0] == 405
        assert request(service, "POST", "/metrics")[0] == 405


class TestAdmission:
    def test_rate_limit_returns_structured_429(self, svqa):
        service = QAService(svqa, ServeConfig(rate=1e-9, burst=1))
        assert ask(service, FLAGSHIP_QUESTION, client="c")[0] == 200
        status, headers, body = ask(service, FLAGSHIP_QUESTION,
                                    client="c")
        assert status == 429
        error = json.loads(body)["error"]
        assert error["reason"] == "rate-limited"
        assert error["retry_after_s"] > 0
        assert headers["Retry-After"] == str(error["retry_after_s"])

    def test_refusals_never_misalign_answers(self, svqa):
        # interleave refused and served requests: every 200 must carry
        # the answer to *its own* question, with no dropped slots
        service = QAService(svqa, ServeConfig(rate=1e-9, burst=2))
        expected = {FLAGSHIP_QUESTION: FLAGSHIP_ANSWER,
                    "canis canis canis": "unknown"}
        outcomes = []
        for question in [FLAGSHIP_QUESTION, "canis canis canis",
                         FLAGSHIP_QUESTION, FLAGSHIP_QUESTION]:
            status, _, body = ask(service, question, client="c")
            payload = json.loads(body)
            outcomes.append(status)
            if status == 200:
                assert payload["answer"] == expected[question]
        assert outcomes == [200, 200, 429, 429]


class TestHealthz:
    def test_shape(self, service):
        status, _, body = request(service, "GET", "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert sorted(payload) == ["admission", "breakers", "index",
                                   "status", "store"]
        assert payload["status"] == "ok"
        assert payload["index"]["ready"] is True
        assert payload["index"]["graph_vertices"] > 0
        assert set(payload["breakers"].values()) == {"closed"}
        assert len(payload["breakers"]) == 10
        admission = payload["admission"]
        assert admission["in_flight"] == 0
        assert admission["queued"] == 0
        # a cold-built server reports the plain-rebuild store default
        assert payload["store"] == {"source": "rebuild", "epoch": 0,
                                    "wal_records_replayed": 0}

    def test_breaker_trip_visible_on_next_request(self, svqa):
        service = QAService(svqa, ServeConfig())
        manager = svqa.resilience
        breaker = manager._breaker("executor.match")
        try:
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            payload = json.loads(
                request(service, "GET", "/healthz")[2])
            assert payload["breakers"]["executor.match"] == "open"
            assert payload["status"] == "degraded"
        finally:
            breaker.record_success()
        payload = json.loads(request(service, "GET", "/healthz")[2])
        assert payload["breakers"]["executor.match"] == "closed"

    def test_requests_total_counts(self, service):
        before = json.loads(request(service, "GET", "/healthz")[2])
        ask(service, FLAGSHIP_QUESTION)
        after = json.loads(request(service, "GET", "/healthz")[2])
        assert after["admission"]["requests_total"] == \
            before["admission"]["requests_total"] + 2


class TestMetrics:
    def test_exposition_parses_and_counts_requests(self, service):
        ask(service, FLAGSHIP_QUESTION)
        status, headers, body = request(service, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        families = parse_prometheus(body.decode("utf-8"))
        assert "svqa_http_requests_total" in families
        assert "svqa_admission_total" in families
        assert "svqa_serve_batch_size" in families
        samples = families["svqa_http_requests_total"]["samples"]
        served = {
            (labels["route"], labels["code"]): value
            for _, labels, value in samples
        }
        assert served[("/ask", "200")] >= 1

    def test_breaker_gauge_has_every_site(self, service):
        ask(service, FLAGSHIP_QUESTION)
        body = request(service, "GET", "/metrics")[2]
        samples = parse_prometheus(body.decode("utf-8"))[
            "svqa_breaker_state"]["samples"]
        assert sorted(labels["site"] for _, labels, _ in samples) == \
            sorted(FAULT_SITES)
        assert {value for _, _, value in samples} == {0.0}  # closed


class TestDeterministicReplay:
    SEQUENCE = [
        (FLAGSHIP_QUESTION, None),
        ("canis canis canis", None),
        (FLAGSHIP_QUESTION, "0.0005"),
        (FLAGSHIP_QUESTION, None),
    ]

    def replay(self):
        service = QAService(build_svqa(ServeConfig()), ServeConfig())
        transcript = []
        for question, deadline_ms in self.SEQUENCE:
            headers = {} if deadline_ms is None \
                else {"Deadline-Ms": deadline_ms}
            status, _, body = ask(service, question, headers=headers,
                                  client="replay")
            transcript.append((status, body))
        metrics = request(service, "GET", "/metrics")[2]
        return transcript, metrics

    def test_fresh_servers_replay_byte_identically(self):
        first_transcript, first_metrics = self.replay()
        second_transcript, second_metrics = self.replay()
        assert first_transcript == second_transcript
        assert first_metrics == second_metrics
