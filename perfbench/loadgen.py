"""Open-loop HTTP load for ask-http: one generator process, at most
``CONNECTIONS`` requests in flight.

Arrivals follow a seeded Poisson schedule at a fixed rate.  Each
request is timed from the moment it was *due*, so when both connections
are busy the wait for one counts against the request (the cap never
turns the open loop into a closed one unnoticed); how late the
generator sent is reported separately.
"""

from __future__ import annotations

import bisect
import json
import socket
import threading
import time

from common import ASK_KEYS, median, percentile, tail

#: connections in flight; the host has two vCPUs
CONNECTIONS = 2
#: p99 latency limit of a passing rate
LATENCY_LIMIT_MS = 50.0
#: a phase is overloaded (its backlog grows) when the median backlog
#: over its last quarter of sends exceeds this
BACKLOG_LIMIT = 4
#: client ids the stream is spread over, so the per-client token
#: bucket of ``ServeConfig()`` admits every request
CLIENTS = 64
ZIPF_S = 1.0


def zipf_stream(rng, n_questions, count, start=0):
    """``count`` (question index, client id) pairs: questions drawn
    Zipf-popular under a seeded popularity ranking."""
    ranking = list(range(n_questions))
    rng.shuffle(ranking)
    cum, total = [], 0.0
    for rank in range(n_questions):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cum.append(total)
    picks = rng.choices(ranking, cum_weights=cum, k=count)
    return [[q, f"user-{(start + i) % CLIENTS:02d}"] for i, q in enumerate(picks)]


def ask_request(question, client):
    """The bytes of one ``POST /ask`` (built before a phase starts, so
    the generator spends its time sending, not encoding)."""
    body = json.dumps({"question": question}).encode("utf-8")
    head = ("POST /ask HTTP/1.0\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"X-Client-Id: {client}\r\nContent-Length: {len(body)}\r\n\r\n")
    return head.encode("ascii") + body


def exchange(port, request):
    """Send one request on a fresh connection and read the response
    until the server closes it -> (status, body); status 0 on a
    connection error."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
            sock.sendall(request)
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
    except OSError as exc:
        return 0, str(exc).encode()
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    try:
        return int(head.split(b" ", 2)[1]), body
    except (IndexError, ValueError):
        return 0, head[:200]


def get_text(port, path):
    status, body = exchange(
        port, f"GET {path} HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n".encode())
    if status != 200:
        raise OSError(f"GET {path} answered {status}")
    return body.decode("utf-8")


def check_body(status, body):
    """The decoded answer of a contract-conforming 200, else ``None``."""
    if status != 200:
        return None
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    if set(payload) != ASK_KEYS or "deadline_s" not in payload["meta"]:
        return None
    return payload["answer"]


def run_phase(port, texts, requests, rate, rng):
    """Send ``requests`` open-loop at ``rate`` per second, or, with
    ``rate`` None, all due at once: back to back on every connection,
    which saturates the server.

    Returns per-request records ``(due, sent, done, status, body)`` in
    seconds relative to the phase start, plus the backlog (requests
    due but not yet sent) seen at each send.
    """
    due, t = [], 0.0
    for _ in requests:
        if rate is not None:
            t += rng.expovariate(rate)
        due.append(t)
    payloads = [ask_request(texts[q], client) for q, client in requests]
    records = [None] * len(requests)
    backlog = [0] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    origin = time.perf_counter() + 0.05

    def sender():
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(requests):
                return
            wait = origin + due[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter() - origin
            backlog[i] = bisect.bisect_right(due, sent) - i - 1
            status, body = exchange(port, payloads[i])
            records[i] = (due[i], sent, time.perf_counter() - origin,
                          status, body)

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, backlog


def phase_figures(records, backlog):
    """Latency from due time, lateness, backlog and outcome counts."""
    ok = [r for r in records if r[3] == 200]
    latency = [(r[2] - r[0]) * 1e3 for r in records]
    late = [(r[1] - r[0]) * 1e3 for r in records]
    return {
        "sent": len(records),
        "ok": len(ok),
        "failed": len(records) - len(ok),
        "p50_ms": median(latency),
        "p99_ms": tail(latency, 99),
        "late_p99_ms": percentile(late, 99),
        "backlog_max": max(backlog),
        "backlog_end": median(backlog[-(len(backlog) // 4):]),
    }


def response_rate(records):
    """Responses per second of a phase, from its start to its last
    response."""
    return len(records) / max(r[2] for r in records)


def passes(figures):
    return figures["failed"] == 0 and \
        figures["p99_ms"] <= LATENCY_LIMIT_MS and \
        figures["backlog_end"] <= BACKLOG_LIMIT
