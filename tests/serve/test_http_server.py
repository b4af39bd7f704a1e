"""The real server: ``make_qa_server`` on an ephemeral port.

``tests/serve/test_app.py`` drives the WSGI app in process.  This
module serves it over a socket from a background thread (the front
end's event loop) and checks, over real HTTP, the ``/ask`` contract,
the error statuses the app maps request faults to (400, 413, 404,
405), ``/healthz``, and that shutdown stops the server thread and
closes the port.

``TestConformance`` speaks raw bytes to the front end
(:mod:`repro.serve.frontend`): its own refusals (400, 408, 411, 414,
431, 505), a stalled body (408), a head dripped past the per-request
deadline (408), ``Expect: 100-continue``, ``Connection: close``,
bodies split over TCP writes, query strings and concurrent
connections, each case followed by a check that the server still
answers.  Further tests cover the connection cap (503), that idle
connections hold no thread and are closed at shutdown, and that
``batch_wait`` still coalesces requests that arrive over HTTP.
``test_http_bodies_equal_in_process_bodies`` diffs the 100 fast-MVQA
``/ask`` bodies served over HTTP against a fresh in-process session.
"""

import contextlib
import http.client
import json
import select
import socket
import threading
import time

import pytest

from repro.dataset.movie import FLAGSHIP_ANSWER, FLAGSHIP_QUESTION
from repro.dataset.mvqa import build_mvqa
from repro.observability import parse_prometheus
from repro.serve import QAService, ServeConfig, build_svqa, frontend
from repro.serve.app import make_qa_server
from tests.serve.test_app import ask


class Served:
    """A QA server serving from a daemon thread."""

    def __init__(self, service: QAService) -> None:
        self.service = service
        self.server = make_qa_server(service, port=0)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True)
        self.thread.start()

    def request(self, method, path, body=None, headers=None):
        """One HTTP round trip -> (status, headers, parsed JSON body)."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=60)
        try:
            connection.request(method, path, body=body,
                               headers=headers or {})
            response = connection.getresponse()
            raw = response.read()
            return response.status, dict(response.getheaders()), \
                json.loads(raw)
        finally:
            connection.close()

    def shutdown(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.close()
        self.thread.join(timeout=10)


@pytest.fixture(scope="module")
def svqa():
    return build_svqa(ServeConfig())


@pytest.fixture(scope="module")
def served(svqa):
    server = Served(QAService(svqa, ServeConfig()))
    yield server
    server.shutdown()


def ask_body(question: str) -> bytes:
    return json.dumps({"question": question}).encode("utf-8")


class TestOverHttp:
    def test_ask_contract(self, served):
        status, headers, payload = served.request(
            "POST", "/ask", ask_body(FLAGSHIP_QUESTION),
            {"Content-Type": "application/json"})
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert sorted(payload) == ["answer", "meta", "question_type",
                                   "sources"]
        assert payload["answer"] == FLAGSHIP_ANSWER
        assert sorted(payload["meta"]) == [
            "confidence", "deadline_s", "degraded", "fault_events",
            "latency"]

    def test_bad_json_is_400(self, served):
        status, _, payload = served.request("POST", "/ask", b"{not json")
        assert status == 400
        assert payload["error"]["reason"] == "bad-json"

    def test_oversized_body_is_413(self, served):
        body = ask_body("x" * (64 * 1024))
        assert len(body) > 64 * 1024
        status, _, payload = served.request("POST", "/ask", body)
        assert status == 413
        assert payload["error"]["reason"] == "payload-too-large"

    def test_unknown_route_is_404_and_wrong_method_405(self, served):
        assert served.request("GET", "/nope")[0] == 404
        status, _, payload = served.request("GET", "/ask")
        assert status == 405
        assert payload["error"]["status"] == 405

    def test_healthz(self, served):
        status, _, payload = served.request("GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["index"]["ready"] is True
        assert set(payload["breakers"].values()) == {"closed"}


def test_shutdown_stops_thread_and_closes_port(svqa):
    served = Served(QAService(svqa, ServeConfig()))
    assert served.request("GET", "/healthz")[0] == 200
    served.shutdown()
    assert not served.thread.is_alive()
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", served.port), timeout=5)


def exchange(port, *parts, pause=0.0):
    """Send ``parts`` on one raw connection (``pause`` seconds apart)
    and read until the server closes it -> every byte received."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        for i, part in enumerate(parts):
            if i and pause:
                time.sleep(pause)
            sock.sendall(part)
        chunks = []
        while data := sock.recv(65536):
            chunks.append(data)
    return b"".join(chunks)


def split_response(raw):
    """Raw response bytes -> (status, {header: value}, body)."""
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("iso-8859-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    return int(lines[0].split()[1]), headers, body


def ask_request(question, version="HTTP/1.0", extra=""):
    body = ask_body(question)
    head = (f"POST /ask {version}\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n{extra}"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
    return head, body


class TestConformance:
    @pytest.fixture(autouse=True)
    def still_serving(self, served):
        yield
        status, _, payload = served.request("GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"

    def refusal(self, served, raw_request):
        status, headers, body = split_response(
            exchange(served.port, raw_request))
        assert headers["Connection"] == "close"
        assert int(headers["Content-Length"]) == len(body)
        assert json.loads(body)["error"]["status"] == status
        return status

    def test_malformed_request_line_is_400(self, served):
        assert self.refusal(served, b"GARBAGE\r\n\r\n") == 400
        assert self.refusal(served, b"GET /healthz HTTP/x.y\r\n\r\n") \
            == 400
        assert self.refusal(
            served, b"POST /ask extra HTTP/1.0\r\n\r\n") == 400

    def test_request_line_over_64_kib_is_414(self, served):
        line = b"GET /" + b"a" * (64 * 1024) + b" HTTP/1.0\r\n\r\n"
        assert self.refusal(served, line) == 414

    def test_header_line_over_64_kib_is_431(self, served):
        raw = (b"GET /healthz HTTP/1.0\r\nX-Big: "
               + b"a" * (64 * 1024) + b"\r\n\r\n")
        assert self.refusal(served, raw) == 431

    def test_more_than_100_headers_is_431(self, served):
        headers = b"".join(b"X-H%d: 1\r\n" % i for i in range(101))
        raw = b"GET /healthz HTTP/1.0\r\n" + headers + b"\r\n"
        assert self.refusal(served, raw) == 431

    def test_http_2_is_505(self, served):
        assert self.refusal(served, b"GET /healthz HTTP/2.0\r\n\r\n") \
            == 505

    def test_expect_100_continue(self, served):
        head, body = ask_request(FLAGSHIP_QUESTION, "HTTP/1.1",
                                 "Expect: 100-continue\r\n")
        with socket.create_connection(("127.0.0.1", served.port),
                                      timeout=30) as sock:
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            chunks = []
            while data := sock.recv(65536):
                chunks.append(data)
        status, _, answer = split_response(b"".join(chunks))
        assert status == 200
        assert json.loads(answer)["answer"] == FLAGSHIP_ANSWER

    def test_http_1_1_gets_connection_close_and_a_closed_socket(
            self, served):
        raw = exchange(served.port, b"GET /healthz HTTP/1.1\r\n"
                       b"Host: 127.0.0.1\r\n\r\n")
        status, headers, body = split_response(raw)
        assert status == 200
        assert headers["Connection"] == "close"
        # exchange() returned, so the server closed the socket after
        # exactly one answer
        assert int(headers["Content-Length"]) == len(body)
        assert json.loads(body)["status"] == "ok"

    def test_body_split_over_two_writes_is_read_whole(self, served):
        head, body = ask_request(FLAGSHIP_QUESTION)
        raw = exchange(served.port, head + body[:7], body[7:], pause=0.2)
        status, _, answer = split_response(raw)
        assert status == 200
        assert json.loads(answer)["answer"] == FLAGSHIP_ANSWER

    def test_query_string_is_split_off(self, served):
        raw = exchange(served.port, b"GET /healthz?x=1 HTTP/1.0\r\n\r\n")
        assert split_response(raw)[0] == 200

    def test_chunked_body_is_411(self, served):
        body = ask_body(FLAGSHIP_QUESTION)
        raw = (b"POST /ask HTTP/1.1\r\nHost: 127.0.0.1\r\n"
               b"Content-Type: application/json\r\n"
               b"Transfer-Encoding: chunked\r\n\r\n"
               + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n")
        assert self.refusal(served, raw) == 411
        answer = split_response(exchange(served.port, raw))[2]
        assert json.loads(answer)["error"]["reason"] == "length-required"

    @pytest.mark.parametrize("sent", [
        b"",  # connect and send nothing: the front end times out
        b"POST /ask HTTP/1.0\r\nContent-Length: 50\r\n\r\n{\"q",  # the app
    ], ids=["idle", "stalled-body"])
    def test_read_timeout_is_408_and_closes(self, served, monkeypatch,
                                            sent):
        monkeypatch.setattr(frontend, "READ_TIMEOUT_S", 0.3)
        started = time.monotonic()
        raw = exchange(served.port, sent)
        assert time.monotonic() - started < 5
        status, _, body = split_response(raw)
        assert status == 408
        assert json.loads(body)["error"]["reason"] == "request-timeout"

    def test_head_dripped_past_the_deadline_is_408(self, served,
                                                   monkeypatch):
        """The deadline counts from accept for the whole request, not
        per read: a byte every 0.1 s does not keep a 0.3 s deadline."""
        monkeypatch.setattr(frontend, "READ_TIMEOUT_S", 0.3)
        raw = b"GET /healthz HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n"
        started = time.monotonic()
        with socket.create_connection(("127.0.0.1", served.port),
                                      timeout=30) as sock:
            for byte in raw:
                try:
                    sock.sendall(bytes([byte]))
                except OSError:
                    break  # the server answered and closed
                if select.select([sock], [], [], 0.1)[0]:
                    break  # the answer is in
            chunks = []
            while data := sock.recv(65536):
                chunks.append(data)
        assert time.monotonic() - started < 5
        status, _, body = split_response(b"".join(chunks))
        assert status == 408
        assert json.loads(body)["error"]["reason"] == "request-timeout"

    def test_eight_concurrent_connections_are_all_answered(self, served):
        head, body = ask_request(FLAGSHIP_QUESTION)
        results = [None] * 8

        def one(i):
            results[i] = split_response(
                exchange(served.port, head, body, pause=0.05))

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert [r[0] for r in results] == [200] * 8
        assert {json.loads(r[2])["answer"] for r in results} == \
            {FLAGSHIP_ANSWER}


def test_http_bodies_equal_in_process_bodies():
    """The fast-MVQA ``/ask`` bodies served over HTTP equal, byte for
    byte, those of a fresh session driven in process in the same
    order."""
    questions = [q.text for q in build_mvqa(
        seed=5, pool_size=1_200, image_count=400).questions]
    assert len(questions) == 100
    config = ServeConfig(scenario="mvqa")
    served = Served(QAService(build_svqa(config), config))
    try:
        over_http = []
        for i, question in enumerate(questions):
            head, body = ask_request(
                question, extra=f"X-Client-Id: user-{i}\r\n")
            status, _, answer = split_response(
                exchange(served.port, head + body))
            over_http.append((status, answer))
    finally:
        served.shutdown()
    service = QAService(build_svqa(config), config)
    try:
        in_process = [
            ask(service, question, headers={"X-Client-Id": f"user-{i}"})
            for i, question in enumerate(questions)]
    finally:
        service.close()
    assert [status for status, _ in over_http] == [200] * 100
    assert over_http == [(status, body)
                         for status, _, body in in_process]


def flagship_exchange(port, client="user-0"):
    """The flagship ``/ask`` on a fresh raw connection -> (status,
    parsed body)."""
    head, body = ask_request(FLAGSHIP_QUESTION,
                             extra=f"X-Client-Id: {client}\r\n")
    status, _, answer = split_response(exchange(port, head + body))
    return status, json.loads(answer)


def test_connections_over_the_cap_get_503(svqa, monkeypatch):
    monkeypatch.setattr(frontend, "MAX_CONNECTIONS", 3)
    served = Served(QAService(svqa, ServeConfig()))
    idle = [socket.create_connection(("127.0.0.1", served.port),
                                     timeout=5) for _ in range(3)]
    try:
        # a request sent before reading still gets the 503 and a clean
        # end of stream (exchange raises on a reset)
        head, body = ask_request(FLAGSHIP_QUESTION)
        status, headers, body = split_response(
            exchange(served.port, head + body))
        assert status == 503
        assert headers["Connection"] == "close"
        assert json.loads(body)["error"] == {
            "status": 503, "reason": "too-many-connections",
            "detail": "3 connections already open", "retry_after_s": None}
    finally:
        for sock in idle:
            sock.close()
    try:
        # the closed connections free the cap for the next client
        deadline = time.monotonic() + 5
        while (answer := flagship_exchange(served.port))[0] == 503 \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert answer[0] == 200
        assert answer[1]["answer"] == FLAGSHIP_ANSWER
    finally:
        served.shutdown()


def test_idle_connections_hold_no_thread_and_close_at_shutdown(svqa):
    served = Served(QAService(svqa, ServeConfig()))
    threads = threading.active_count()
    with contextlib.ExitStack() as stack:
        idle = [stack.enter_context(socket.create_connection(
            ("127.0.0.1", served.port), timeout=5)) for _ in range(5)]
        try:
            assert served.request("GET", "/healthz")[0] == 200
            status, answer = flagship_exchange(served.port)
            assert status == 200 and answer["answer"] == FLAGSHIP_ANSWER
            assert threading.active_count() <= threads
        finally:
            served.shutdown()
        assert not served.thread.is_alive()
        # shutdown closed them: each client reads the end of the stream
        assert [sock.recv(1) for sock in idle] == [b""] * 5


def batch_sizes(served):
    """(sum, count) of the ``svqa_serve_batch_size`` histogram."""
    status, _, _ = served.request("GET", "/healthz")
    assert status == 200
    connection = http.client.HTTPConnection("127.0.0.1", served.port,
                                            timeout=60)
    try:
        connection.request("GET", "/metrics")
        text = connection.getresponse().read().decode("utf-8")
    finally:
        connection.close()
    samples = parse_prometheus(text)["svqa_serve_batch_size"]["samples"]
    values = {name: value for name, _, value in samples}
    return (values["svqa_serve_batch_size_sum"],
            values["svqa_serve_batch_size_count"])


def test_batch_wait_coalesces_requests_over_http(svqa):
    """With a coalescing window, four concurrent clients ride fewer
    than four batches, and each gets the flagship answer."""
    config = ServeConfig(batch_wait=0.5, max_batch=4)
    served = Served(QAService(svqa, config))
    try:
        before = batch_sizes(served)
        results = [None] * 4

        def one(i):
            results[i] = flagship_exchange(served.port, f"user-{i}")

        clients = [threading.Thread(target=one, args=(i,))
                   for i in range(4)]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=60)
        assert not any(client.is_alive() for client in clients)
        assert [status for status, _ in results] == [200] * 4
        assert {answer["answer"] for _, answer in results} == \
            {FLAGSHIP_ANSWER}
        total, batches = (after - was for after, was in
                          zip(batch_sizes(served), before))
        assert total == 4
        assert batches < 4  # some batch carried more than one request
    finally:
        served.shutdown()
