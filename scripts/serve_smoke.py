#!/usr/bin/env python
"""End-to-end smoke test for ``repro serve`` (make serve-smoke / CI).

Boots the real server on an ephemeral port, then checks the
three endpoints over actual HTTP:

* ``POST /ask`` with the seeded flagship question answers correctly
  and carries the full contract (``answer``/``question_type``/
  ``sources``/``meta``), and repeats of it return identical bytes;
* ``GET /healthz`` reports a ready index and all breakers closed;
* ``GET /metrics`` parses as Prometheus text and counts the request;
* a malformed request line over a raw socket gets 400, and the server
  still answers the flagship question afterwards;
* an ``/ask`` sent with ``Expect: 100-continue`` gets the interim
  ``100 Continue`` and then the answer;
* a chunked ``POST /ask`` over a raw socket gets 411
  ``length-required``, and the server still answers the flagship
  question afterwards;
* with four idle connections held open, the flagship question is
  still answered within 2 s (an idle connection holds a socket, not
  the server).

Exits non-zero on any violation; always tears the server down.
"""

import json
import os
import re
import socket
import subprocess
import sys
import time
import urllib.parse
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.dataset.movie import FLAGSHIP_ANSWER, FLAGSHIP_QUESTION  # noqa: E402
from repro.observability import parse_prometheus  # noqa: E402

STARTUP_PATTERN = re.compile(r"serving .* on (http://[\d.]+:\d+)")


def fail(message):
    print(f"SMOKE FAILURE: {message}", file=sys.stderr)
    raise SystemExit(1)


def http(method, url, payload=None, headers=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method=method,
                                     headers=headers or {})
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, response.read().decode("utf-8")


def check_ask(base):
    status, body = http("POST", base + "/ask",
                        {"question": FLAGSHIP_QUESTION})
    if status != 200:
        fail(f"/ask returned {status}")
    payload = json.loads(body)
    if sorted(payload) != ["answer", "meta", "question_type", "sources"]:
        fail(f"/ask contract keys wrong: {sorted(payload)}")
    if payload["answer"] != FLAGSHIP_ANSWER:
        fail(f"flagship answer {payload['answer']!r} != "
             f"{FLAGSHIP_ANSWER!r}")
    meta_keys = sorted(payload["meta"])
    expected = ["confidence", "deadline_s", "degraded", "fault_events",
                "latency"]
    if meta_keys != expected:
        fail(f"/ask meta keys wrong: {meta_keys}")
    if sorted(payload["sources"]) != ["images", "support"]:
        fail(f"/ask sources keys wrong: {sorted(payload['sources'])}")
    print(f"  /ask ok: answer={payload['answer']!r} "
          f"latency={payload['meta']['latency']}s")
    check_repeats(base, body)


def check_repeats(base, first):
    """Repeats take the session's memoised parse and a warm cache.

    The two repeats must be byte-identical; the first ask differs from
    them only in its simulated latency (it filled the key-centric
    cache the repeats hit).
    """
    repeats = []
    for _ in range(2):
        status, body = http("POST", base + "/ask",
                            {"question": FLAGSHIP_QUESTION})
        if status != 200:
            fail(f"repeated /ask returned {status}")
        repeats.append(body)
    if repeats[0] != repeats[1]:
        fail(f"repeated /ask bodies differ: {repeats[0]!r} != "
             f"{repeats[1]!r}")
    cold, warm = json.loads(first), json.loads(repeats[0])
    del cold["meta"]["latency"], warm["meta"]["latency"]
    if cold != warm:
        fail(f"repeated /ask answers differently: {warm} != {cold}")
    print("  /ask repeats ok: byte-identical bodies")


def check_deadline(base):
    status, body = http("POST", base + "/ask",
                        {"question": FLAGSHIP_QUESTION},
                        headers={"Deadline-Ms": "0.0005"})
    payload = json.loads(body)
    if status != 200 or not payload["meta"]["degraded"]:
        fail("tiny Deadline-Ms did not produce a degraded 200")
    kinds = {event["kind"] for event in payload["meta"]["fault_events"]}
    if "deadline" not in kinds:
        fail(f"no deadline fault event in {kinds}")
    print("  /ask deadline cutoff ok: degraded partial answer")


def check_healthz(base):
    status, body = http("GET", base + "/healthz")
    if status != 200:
        fail(f"/healthz returned {status}")
    payload = json.loads(body)
    expected_keys = ["admission", "breakers", "index", "status", "store"]
    if sorted(payload) != expected_keys:
        fail(f"/healthz shape wrong: {sorted(payload)}")
    if payload["status"] != "ok" or not payload["index"]["ready"]:
        fail(f"service not healthy: {payload}")
    states = set(payload["breakers"].values())
    if len(payload["breakers"]) != 10 or states != {"closed"}:
        fail(f"breaker map wrong: {payload['breakers']}")
    if payload["store"]["source"] != "rebuild":
        fail(f"cold serve should report store source=rebuild: "
             f"{payload['store']}")
    print(f"  /healthz ok: {len(payload['breakers'])} breakers closed, "
          f"epoch {payload['index']['graph_epoch']}, "
          f"store source={payload['store']['source']}")


def check_metrics(base):
    status, body = http("GET", base + "/metrics")
    if status != 200:
        fail(f"/metrics returned {status}")
    families = parse_prometheus(body)  # raises on malformed text
    for name in ("svqa_http_requests_total", "svqa_admission_total",
                 "svqa_serve_batch_size"):
        if name not in families:
            fail(f"{name} missing from /metrics")
    served = sum(
        value
        for _, labels, value in
        families["svqa_http_requests_total"]["samples"]
        if labels.get("route") == "/ask" and labels.get("code") == "200"
    )
    if served < 2:
        fail(f"/metrics counted {served} served /ask requests, "
             "expected >= 2")
    print(f"  /metrics ok: {len(families)} families, "
          f"{served:.0f} served /ask requests")


def raw_exchange(base, head, body=b""):
    """One raw-socket request -> (interim 100 head or b"", response).

    With a ``body``, the head is sent first and the body only after the
    server's interim ``100 Continue``.
    """
    url = urllib.parse.urlsplit(base)
    with socket.create_connection((url.hostname, url.port),
                                  timeout=60) as sock:
        sock.sendall(head)
        interim = b""
        if body:
            while not interim.endswith(b"\r\n\r\n"):
                data = sock.recv(1)
                if not data:
                    fail(f"connection closed before 100 Continue: "
                         f"{interim!r}")
                interim += data
            sock.sendall(body)
        chunks = []
        while data := sock.recv(65536):
            chunks.append(data)
    return interim, b"".join(chunks)


def status_and_body(response):
    head, _, body = response.partition(b"\r\n\r\n")
    try:
        return int(head.split(b" ", 2)[1]), body
    except (IndexError, ValueError):
        fail(f"unparseable response: {response[:200]!r}")


def check_refused(base, name, raw, expected):
    """A raw request the front end refuses with ``expected``; the
    flagship question must still be answered afterwards."""
    _, response = raw_exchange(base, raw)
    status, body = status_and_body(response)
    if status != expected:
        fail(f"{name} answered {status}, expected {expected}")
    if json.loads(body)["error"]["status"] != expected:
        fail(f"{name} body wrong: {body!r}")
    status, body = http("POST", base + "/ask",
                        {"question": FLAGSHIP_QUESTION})
    if status != 200 or json.loads(body)["answer"] != FLAGSHIP_ANSWER:
        fail(f"server stopped answering after a {name}: "
             f"{status} {body!r}")
    print(f"  {name} ok: {expected}, server still answers")


def check_malformed(base):
    check_refused(base, "malformed request line", b"GARBAGE\r\n\r\n",
                  400)


def check_chunked(base):
    body = json.dumps({"question": FLAGSHIP_QUESTION}).encode()
    raw = (b"POST /ask HTTP/1.1\r\nHost: localhost\r\n"
           b"Content-Type: application/json\r\n"
           b"Transfer-Encoding: chunked\r\n\r\n"
           + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n")
    check_refused(base, "chunked POST /ask", raw, 411)


def check_expect_continue(base):
    body = json.dumps({"question": FLAGSHIP_QUESTION}).encode()
    head = ("POST /ask HTTP/1.1\r\nHost: localhost\r\n"
            "Content-Type: application/json\r\n"
            "Expect: 100-continue\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
    interim, response = raw_exchange(base, head, body)
    if interim != b"HTTP/1.1 100 Continue\r\n\r\n":
        fail(f"no interim 100 Continue: {interim!r}")
    status, answer = status_and_body(response)
    if status != 200 or json.loads(answer)["answer"] != FLAGSHIP_ANSWER:
        fail(f"Expect: 100-continue /ask answered {status} {answer!r}")
    print("  Expect: 100-continue ok: interim 100, then the answer")


def check_idle_connections(base):
    url = urllib.parse.urlsplit(base)
    idle = [socket.create_connection((url.hostname, url.port), timeout=60)
            for _ in range(4)]
    try:
        started = time.monotonic()
        status, body = http("POST", base + "/ask",
                            {"question": FLAGSHIP_QUESTION})
        elapsed = time.monotonic() - started
    finally:
        for sock in idle:
            sock.close()
    if status != 200 or json.loads(body)["answer"] != FLAGSHIP_ANSWER:
        fail(f"/ask beside idle connections answered {status} {body!r}")
    if elapsed > 2.0:
        fail(f"/ask beside 4 idle connections took {elapsed:.2f} s")
    print(f"  4 idle connections ok: /ask answered in {elapsed:.3f} s")


def main():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONUNBUFFERED"] = "1"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        cwd=REPO_ROOT, env=env, text=True,
    )
    try:
        line = server.stdout.readline()
        match = STARTUP_PATTERN.search(line or "")
        if match is None:
            rest = server.stdout.read() if server.poll() is not None \
                else ""
            fail(f"server did not start: {line!r}{rest}")
        base = match.group(1)
        print(f"server up at {base}")
        check_ask(base)
        check_deadline(base)
        check_healthz(base)
        check_metrics(base)
        check_malformed(base)
        check_expect_continue(base)
        check_chunked(base)
        check_idle_connections(base)
    finally:
        server.terminate()
        server.wait(timeout=10)
    print("serve smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
