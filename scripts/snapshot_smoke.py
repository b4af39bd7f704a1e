#!/usr/bin/env python
"""Warm-start smoke test for ``repro serve --snapshot`` (make snapshot-smoke).

Writes a durable snapshot with ``repro snapshot``, then boots the real
server twice on ephemeral ports — once cold (full vision
pipeline rebuild) and once warm (recovered from the snapshot) — and
drives both through an identical request sequence:

* every ``/ask`` response body must be byte-identical across the two
  servers (same answers, same confidence, same latency accounting);
* ``/metrics`` must be byte-identical (the store keeps its own private
  metrics registry precisely so a healthy warm start cannot perturb
  the serving metrics);
* the warm server's ``/healthz`` must attribute its index to the
  snapshot (``store.source == "snapshot"``) while the cold server
  reports a rebuild.

Exits non-zero on any divergence; always tears both servers down.
"""

import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.dataset.movie import FLAGSHIP_QUESTION  # noqa: E402

STARTUP_PATTERN = re.compile(r"serving .* on (http://[\d.]+:\d+)")

QUESTIONS = [
    FLAGSHIP_QUESTION,
    "How many people are in the movie?",
    FLAGSHIP_QUESTION,
]


def fail(message):
    print(f"SNAPSHOT SMOKE FAILURE: {message}", file=sys.stderr)
    raise SystemExit(1)


def http(method, url, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, response.read().decode("utf-8")


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO_ROOT, env=env, text=True, capture_output=True,
    )


def boot_server(*extra_argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONUNBUFFERED"] = "1"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         *extra_argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        cwd=REPO_ROOT, env=env, text=True,
    )
    for _ in range(20):
        line = server.stdout.readline()
        if not line and server.poll() is not None:
            break
        match = STARTUP_PATTERN.search(line or "")
        if match is not None:
            return server, match.group(1)
    server.terminate()
    server.wait(timeout=10)
    fail("server did not start")


def transcript(base):
    """The byte transcript an identical client session produces."""
    lines = []
    for question in QUESTIONS:
        status, body = http("POST", base + "/ask",
                            {"question": question})
        if status != 200:
            fail(f"/ask returned {status}")
        lines.append(body)
    status, metrics = http("GET", base + "/metrics")
    if status != 200:
        fail(f"/metrics returned {status}")
    status, healthz = http("GET", base + "/healthz")
    if status != 200:
        fail(f"/healthz returned {status}")
    return lines, metrics, json.loads(healthz)


def main():
    with tempfile.TemporaryDirectory(prefix="svqa-snapshot-") as root:
        store = os.path.join(root, "store")
        result = run_cli("snapshot", "--out", store)
        if result.returncode != 0:
            fail(f"repro snapshot failed:\n{result.stdout}"
                 f"{result.stderr}")
        print(f"snapshot written: {result.stdout.strip()}")

        recover = run_cli("recover", "--store", store)
        if recover.returncode != 0:
            fail(f"repro recover rejected a fresh snapshot:\n"
                 f"{recover.stdout}{recover.stderr}")
        print("  offline recover ok")

        cold, cold_base = boot_server()
        try:
            warm, warm_base = boot_server("--snapshot", store)
            try:
                print(f"cold server at {cold_base}, "
                      f"warm server at {warm_base}")
                cold_asks, cold_metrics, cold_health = \
                    transcript(cold_base)
                warm_asks, warm_metrics, warm_health = \
                    transcript(warm_base)
            finally:
                warm.terminate()
                warm.wait(timeout=10)
        finally:
            cold.terminate()
            cold.wait(timeout=10)

    for index, (a, b) in enumerate(zip(cold_asks, warm_asks)):
        if a != b:
            fail(f"/ask #{index} diverged:\ncold: {a}\nwarm: {b}")
    print(f"  {len(cold_asks)} /ask responses byte-identical")

    if cold_metrics != warm_metrics:
        diff = "\n".join(difflib.unified_diff(
            cold_metrics.splitlines(), warm_metrics.splitlines(),
            "cold", "warm", lineterm=""))
        fail(f"/metrics diverged:\n{diff}")
    print("  /metrics byte-identical")

    if cold_health["store"]["source"] != "rebuild":
        fail(f"cold store block wrong: {cold_health['store']}")
    if warm_health["store"]["source"] != "snapshot":
        fail(f"warm server did not use the snapshot: "
             f"{warm_health['store']}")
    if warm_health["store"]["wal_records_replayed"] != 0:
        fail(f"fresh snapshot should replay nothing: "
             f"{warm_health['store']}")
    if warm_health["index"]["graph_epoch"] != \
            cold_health["index"]["graph_epoch"]:
        fail(f"epoch mismatch: cold={cold_health['index']} "
             f"warm={warm_health['index']}")
    print(f"  /healthz ok: warm source=snapshot "
          f"epoch={warm_health['store']['epoch']}")
    print("snapshot smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
