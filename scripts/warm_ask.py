#!/usr/bin/env python
"""In-process cost of a warm, repeated ``/ask`` (make warm-ask).

Builds the served fast-MVQA corpus once, asks its 100 questions once
in a seeded order (the warm-up), then replays a seeded Zipf-popular
stream of those questions ``--repeat`` times.  Each pass times three
layers of the same stream in wall time:

* ``wsgi``: one ``POST /ask`` through the WSGI application, body read
  to serialized response;
* ``answer``: ``SVQA.answer(question)``;
* ``execute``: ``QueryGraphExecutor.execute`` inside those answers.

It prints, per layer, the median and interquartile range over passes
of the pass's wall time per ask, and the Python function calls per
WSGI ask counted by ``cProfile`` over one further pass.  ``--json``
prints the same figures as one JSON object.  Nothing here is gated:
the figures depend on the host.

    python scripts/warm_ask.py [--repeat 5] [--asks 2000] [--seed 0]
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import json
import os
import pstats
import random
import statistics
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

#: client ids the stream is spread over, so the per-client token
#: bucket of ``ServeConfig()`` admits every request
CLIENTS = 64
#: the Zipf exponent of question popularity
ZIPF_S = 1.0


def build():
    """The served mvqa service and its question texts."""
    import repro.dataset.mvqa as mvqa
    from repro.serve import ServeConfig, build_service

    kept = {}
    original = mvqa.build_mvqa

    def capture(*args, **kwargs):
        kept["dataset"] = original(*args, **kwargs)
        return kept["dataset"]

    mvqa.build_mvqa = capture
    try:
        service = build_service(ServeConfig(scenario="mvqa"))
    finally:
        mvqa.build_mvqa = original
    return service, [q.text for q in kept["dataset"].questions]


def zipf_stream(rng, count, asks):
    """``asks`` question indices, Zipf-popular under a seeded ranking."""
    ranking = list(range(count))
    rng.shuffle(ranking)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(count)]
    return rng.choices(ranking, weights=weights, k=asks)


def wsgi_ask(service, question, client):
    """One ``POST /ask`` through the WSGI app; its status line."""
    body = json.dumps({"question": question}).encode()
    environ = {
        "REQUEST_METHOD": "POST", "PATH_INFO": "/ask",
        "CONTENT_LENGTH": str(len(body)),
        "wsgi.input": io.BytesIO(body), "HTTP_X_CLIENT_ID": client,
    }
    status = []
    b"".join(service(environ, lambda line, headers: status.append(line)))
    if not status[0].startswith("200"):
        raise RuntimeError(f"/ask answered {status[0]}")


def time_pass(service, texts, stream):
    """Wall ms per ask of one pass, for each layer."""
    from repro.core.executor import QueryGraphExecutor

    asks = len(stream)
    gc.collect()
    start = time.perf_counter_ns()
    for n, index in enumerate(stream):
        wsgi_ask(service, texts[index], f"user-{n % CLIENTS:02d}")
    wsgi = time.perf_counter_ns() - start

    original = QueryGraphExecutor.execute
    spent = [0]

    def timed(self, *args, **kwargs):
        begin = time.perf_counter_ns()
        try:
            return original(self, *args, **kwargs)
        finally:
            spent[0] += time.perf_counter_ns() - begin

    svqa = service.svqa
    QueryGraphExecutor.execute = timed
    gc.collect()
    try:
        start = time.perf_counter_ns()
        for index in stream:
            svqa.answer(texts[index])
        answer = time.perf_counter_ns() - start
    finally:
        QueryGraphExecutor.execute = original
    return {"wsgi": wsgi / asks / 1e6, "answer": answer / asks / 1e6,
            "execute": spent[0] / asks / 1e6}


def calls_per_ask(service, texts, stream):
    """Python function calls per WSGI ask, by ``cProfile``."""
    profiler = cProfile.Profile()
    profiler.enable()
    for n, index in enumerate(stream):
        wsgi_ask(service, texts[index], f"user-{n % CLIENTS:02d}")
    profiler.disable()
    return pstats.Stats(profiler).total_calls / len(stream)


def summary(values):
    """Median and interquartile range of ``values``."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed passes over the stream (default 5)")
    parser.add_argument("--asks", type=int, default=2000,
                        help="asks per pass (default 2000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the warm-up order and the stream")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object instead of a table")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.asks < 1:
        parser.error("--repeat and --asks must be >= 1")

    service, texts = build()
    rng = random.Random(args.seed)
    warm = list(range(len(texts)))
    rng.shuffle(warm)
    for n, index in enumerate(warm):
        wsgi_ask(service, texts[index], f"user-{n % CLIENTS:02d}")
    stream = zipf_stream(rng, len(texts), args.asks)
    passes = [time_pass(service, texts, stream) for _ in range(args.repeat)]
    calls = calls_per_ask(service, texts, stream)
    service.close()

    figures = {}
    for layer in ("wsgi", "answer", "execute"):
        median, iqr = summary([p[layer] for p in passes])
        figures[layer] = {"median_ms": round(median, 4),
                          "iqr_ms": round(iqr, 4)}
    report = {"asks": args.asks, "repeat": args.repeat, "seed": args.seed,
              "layers": figures, "calls_per_ask": round(calls, 1)}
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0
    print(f"warm /ask, {args.asks} Zipf asks x {args.repeat} passes "
          f"(seed {args.seed}), wall ms per ask")
    for layer, figure in figures.items():
        print(f"  {layer:<8} median {figure['median_ms']:.4f}  "
              f"IQR {figure['iqr_ms']:.4f}")
    print(f"  python calls per WSGI ask: {calls:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
