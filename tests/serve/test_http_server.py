"""The real threaded server: ``make_qa_server`` on an ephemeral port.

``tests/serve/test_app.py`` drives the WSGI app in process.  This
module serves it over a socket from a background thread and checks,
over real HTTP, the ``/ask`` contract, the error statuses the app
maps request faults to (400, 413, 404, 405), ``/healthz``, and that
shutdown stops the server thread and closes the port.
"""

import http.client
import json
import socket
import threading

import pytest

from repro.dataset.movie import FLAGSHIP_ANSWER, FLAGSHIP_QUESTION
from repro.serve import QAService, ServeConfig, build_svqa
from repro.serve.app import make_qa_server


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
