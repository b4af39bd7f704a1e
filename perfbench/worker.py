"""The program-side half of the benchmark: one fresh interpreter per role.

``run.py`` starts this file with the checkout's ``src`` on the path.  A
worker imports the program, sets it up through its public entry points
in the default configuration, prints ``READY {...}`` the moment the
system can answer, and (unless ``--setup-only``) runs its timed phase
and prints ``RESULT {...}``.

Roles:

* ``prep``      -- writes the question list (and, with ``--snapshot``,
  a ``DurableStore`` snapshot of the served mvqa graph) for the others;
* ``ingest``    -- ingest-mutate: warm start from that snapshot, then a
  seeded mutation script with interleaved questions, then recovery;
* ``wsgi``      -- ask-http's traced run: the ``/ask`` stream replayed
  through ``QAService.__call__`` in process.

With ``--trace 1`` the worker records spans around each layer's public
calls (``common.SpanRecorder``) and reports per-layer figures.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import sys
import time
from array import array

from common import CORPUS, SpanRecorder, median, tail


def emit(tag, payload):
    sys.stdout.write(f"{tag} {json.dumps(payload, sort_keys=True)}\n")
    sys.stdout.flush()


def wrap_build_layers(rec):
    """Spans around the set-up layers' public calls."""
    import repro.dataset.mvqa as mvqa
    from repro.core.aggregator import DataAggregator
    from repro.core.pipeline import SVQA
    from repro.graph.durable import DurableStore
    from repro.synth.generator import SceneGenerator
    from repro.vision.scene_graph import SGGPipeline

    rec.wrap(SceneGenerator, "generate_pool", "synth.generate_pool")
    rec.wrap(mvqa, "build_mvqa", "dataset.build_mvqa")
    rec.wrap(SGGPipeline, "run_many", "vision.run_many")
    rec.wrap(DataAggregator, "merge", "aggregator.merge")
    rec.wrap(DurableStore, "recover", "durable.recover")
    rec.wrap(SVQA, "adopt_merged", "svqa.adopt_merged")


def wrap_query_layers(rec):
    """Spans around parsing (the ``generate_query_graph`` call that
    ``SVQA.parse_question`` and the resilient parse both make) and
    execution (``QueryGraphExecutor.execute``, which ``answer``,
    ``answer_many`` and ``answer_query_graph`` all reach)."""
    import repro.core.pipeline as pipeline
    from repro.core.executor import QueryGraphExecutor

    rec.wrap(pipeline, "generate_query_graph", "nlp.parse")
    rec.wrap(QueryGraphExecutor, "execute", "executor.execute")


def build_layer_figures(rec):
    """Per-layer set-up times from the spans recorded during set-up."""
    synth = rec.total_s("synth.generate_pool")
    build = rec.total_s("dataset.build_mvqa")
    return {
        "synth.generate_pool_s": synth,
        "dataset.build_mvqa_s": build,
        "dataset.build_mvqa_self_s": sum(rec.self_ns("dataset.build_mvqa")) / 1e9,
        "vision.run_many_s": rec.total_s("vision.run_many"),
        "aggregator.merge_s": rec.total_s("aggregator.merge"),
        "durable.recover_s": rec.total_s("durable.recover")
        + rec.total_s("svqa.adopt_merged"),
    }


def query_layer_figures(rec):
    parse = [ns / 1e6 for ns in rec.durations_ns("nlp.parse")]
    execute = [ns / 1e6 for ns in rec.durations_ns("executor.execute")]
    return {
        "nlp.parse_p50_ms": median(parse),
        "nlp.parse_p99_ms": tail(parse, 99),
        "executor.execute_p50_ms": median(execute),
        "executor.execute_p99_ms": tail(execute, 99),
    }


def to_json_us(rec, answers):
    for answer in answers:
        with rec.span("answer.to_json"):
            answer.to_json()
    return median([ns / 1e3 for ns in rec.durations_ns("answer.to_json")])


def cache_figures(before, after):
    scope_hits = after.scope_hits - before.scope_hits
    scope_all = scope_hits + after.scope_misses - before.scope_misses
    path_hits = after.path_hits - before.path_hits
    path_all = path_hits + after.path_misses - before.path_misses
    return {
        "cache.scope_hit_ratio": scope_hits / scope_all if scope_all else 0.0,
        "cache.path_hit_ratio": path_hits / path_all if path_all else 0.0,
    }


CLOCK_OPS = ("vertex_match", "edge_scan", "embed_score", "ann_probe",
             "relation_forward")


def clock_counts(*clocks):
    """Exact SimClock charge counts of the named operations."""
    return {f"clock.{op}": sum(c.counts.get(op, 0) for c in clocks)
            for op in CLOCK_OPS}


def score(answers, questions):
    from repro.core.spoc import QuestionType
    from repro.eval.accuracy import answers_match

    return sum(
        answers_match(a, q["answer"], QuestionType(q["question_type"]))
        for a, q in zip(answers, questions, strict=True))


# ----------------------------------------------------------------------
# prep: question list + snapshot for ask-http and ingest-mutate
# ----------------------------------------------------------------------
def run_prep(args, rec):
    if args.snapshot is None:
        import repro.dataset.mvqa as mvqa

        dataset = mvqa.build_mvqa(**CORPUS)
    else:
        # the served corpus, built and snapshotted exactly as
        # ``repro snapshot --scenario mvqa`` does it
        import repro.dataset.mvqa as mvqa
        from repro.graph.durable import DurableStore
        from repro.serve import ServeConfig, build_svqa

        keep = {}
        original = mvqa.build_mvqa

        def capture(*a, **kw):
            keep["dataset"] = original(*a, **kw)
            return keep["dataset"]

        mvqa.build_mvqa = capture
        try:
            svqa = build_svqa(ServeConfig(scenario="mvqa"))
        finally:
            mvqa.build_mvqa = original
        dataset = keep["dataset"]
        store = DurableStore(args.snapshot, clock=svqa.clock)
        store.snapshot(svqa.merged.graph, merged_meta=svqa.merged.meta_dict())
        store.close()
    with open(args.questions, "w", encoding="utf-8") as out:
        json.dump([{"text": q.text, "answer": q.answer,
                    "question_type": q.question_type.value}
                   for q in dataset.questions], out)
    result = {}
    if rec is not None:
        result["layers"] = build_layer_figures(rec)
    emit("RESULT", result)


# ----------------------------------------------------------------------
# ingest-mutate
# ----------------------------------------------------------------------
#: the mutators the script draws from, uniformly: no source in the
#: repository gives a write mix, so none is favoured (NOTES.md)
MUTATORS = ("add_vertex", "add_edge", "remove_edge", "remove_vertex",
            "relabel_vertex")
#: one question per ``QUESTION_EVERY`` mutations; a round holds 30
QUESTION_EVERY = 9
MUTATIONS_PER_ROUND = 30 * QUESTION_EVERY
#: rounds whose SimClock total is ``sim_s`` and after which peak RSS is
#: read: enough that the spread of ``sim_s`` across seeds stays small
SIM_ROUNDS = 32


class TimingTee:
    """A mutation sink that times ``DurableStore.record`` and forwards."""

    def __init__(self, store, rec):
        self.store = store
        self.rec = rec

    def record(self, op):
        with self.rec.span("durable.record"):
            self.store.record(op)


class MutationScript:
    """The seeded, net-zero mutation script over one graph.

    Round ``r`` draws its ops from ``Random(f"{seed}:{r}")``.  Writes use
    corpus labels; removals and relabels touch only vertices and edges
    the script itself added, and each round ends by removing every
    vertex it added (cascading to their edges), so the graph's content
    is the same at every round boundary and later rounds cost what
    earlier ones did.
    """

    def __init__(self, graph, seed):
        self.graph = graph
        self.seed = seed
        self.vertex_labels = sorted({v.label for v in graph.vertices()})
        self.edge_labels = sorted({e.label for e in graph.edges()})
        self.originals = sorted(graph.vertex_ids())

    def round(self, r, on_op, on_question=None):
        """Run round ``r``; ``on_op(kind, fn)`` performs and times one
        mutation and ``on_question(index)`` one question."""
        rng = random.Random(f"{self.seed}:{r}")
        graph = self.graph
        live_v, live_e = [], []

        def drop_incident(vid):
            live_e[:] = [e for e in live_e if vid not in (e[1], e[2])]

        for i in range(MUTATIONS_PER_ROUND):
            if on_question is not None and i % QUESTION_EVERY == 0:
                on_question(rng.randrange(100))
            kind = rng.choice(MUTATORS)
            if kind == "remove_edge" and not live_e:
                kind = "add_edge"
            if kind in ("add_edge", "remove_vertex", "relabel_vertex") \
                    and not live_v:
                kind = "add_vertex"
            if kind == "add_vertex":
                label = rng.choice(self.vertex_labels)
                live_v.append(on_op(kind, lambda: graph.add_vertex(label)).id)
            elif kind == "add_edge":
                src = rng.choice(live_v)
                dst = rng.choice(live_v if rng.random() < 0.3
                                 else self.originals)
                if rng.random() < 0.5:
                    src, dst = dst, src
                label = rng.choice(self.edge_labels)
                edge = on_op(kind, lambda: graph.add_edge(src, dst, label))
                live_e.append((edge.id, src, dst))
            elif kind == "remove_edge":
                eid = live_e.pop(rng.randrange(len(live_e)))[0]
                on_op(kind, lambda: graph.remove_edge(eid))
            elif kind == "remove_vertex":
                vid = live_v.pop(rng.randrange(len(live_v)))
                on_op(kind, lambda: graph.remove_vertex(vid))
                drop_incident(vid)
            else:
                vid = rng.choice(live_v)
                label = rng.choice(self.vertex_labels)
                on_op(kind, lambda: graph.relabel_vertex(vid, label))
        for vid in live_v:
            on_op("remove_vertex", lambda: graph.remove_vertex(vid))


def run_ingest(args, rec):
    from repro.graph.durable import DurableStore
    from repro.graph.store import extensional_digest
    from repro.serve import ServeConfig
    from repro.serve.app import build_svqa_with_store

    svqa, report = build_svqa_with_store(
        ServeConfig(scenario="mvqa", snapshot=args.store))
    emit("READY", {"import_s": args.import_s})
    if args.setup_only:
        return
    if rec is not None:
        rec.unwrap_all()
    failures = []
    if report is None or report.source != "snapshot":
        failures.append("warm start did not load the snapshot")
    with open(args.questions, encoding="utf-8") as src:
        questions = json.load(src)
    texts = [q["text"] for q in questions]
    # warm start must answer like the cold build (read-only, pre-write)
    correct = score([a.value for a in svqa.answer_many(texts)], questions)

    graph = svqa.merged.graph
    script = MutationScript(graph, args.seed)
    layers = {}
    if rec is not None:
        # index maintenance alone: the same round on a recovered copy
        # with no sink attached
        copy = DurableStore(args.store).recover().graph
        bare = MutationScript(copy, args.seed)

        def bare_op(kind, fn):
            with rec.span("graph." + kind):
                return fn()

        for r in range(4):
            bare.round(r, bare_op)
        for kind in MUTATORS:
            layers[f"graph.{kind}_us"] = median(
                [ns / 1e3 for ns in rec.durations_ns("graph." + kind)])
        del copy, bare

    store = DurableStore(args.store, resilience=svqa.resilience,
                         clock=svqa.clock)
    wal_before = store.wal_path.stat().st_size
    fsync_before = svqa.clock.counts.get("store_fsync", 0)
    cache_before = svqa.cache_report()
    drops_before = svqa.stats.snapshot().stale_scope_drops
    store.attach(graph)

    # compact per-op samples, so the benchmark's own bookkeeping adds
    # 8 bytes an op to the measured process
    mutation_ns, question_ns = array("q"), array("q")
    # per untraced round: ops per second and question p50; the medians
    # over rounds are the end-to-end figures, so a stretch of host
    # contention that slows a minority of the rounds does not move them
    round_rates, round_q_p50 = [], []
    first_rounds = {}

    def op(kind, fn):
        start = time.perf_counter_ns()
        out = fn()
        mutation_ns.append(time.perf_counter_ns() - start)
        return out

    def ask(index):
        start = time.perf_counter_ns()
        answers = svqa.answer_many([texts[index]])
        question_ns.append(time.perf_counter_ns() - start)
        if len(answers) != 1:
            failures.append("a question lost its answer slot")

    def op_traced(kind, fn):
        with rec.span("graph.mutate"):
            return op(kind, fn)

    def ask_traced(index):
        with rec.span("question"):
            ask(index)

    def rounds(first, budget_s, minimum, traced):
        stop = time.perf_counter() + budget_s
        r = first
        qs_before = len(question_ns)
        while r - first < minimum or time.perf_counter() < stop:
            if r == 0:
                clock0 = svqa.clock.elapsed
                counts0 = dict(svqa.clock.counts)
            ops0 = len(mutation_ns) + len(question_ns)
            q0 = len(question_ns)
            start = time.perf_counter()
            if traced:
                rec.trace = f"round-{r}"
                script.round(r, op_traced, ask_traced)
            else:
                script.round(r, op, ask)
                round_rates.append((len(mutation_ns) + len(question_ns) - ops0)
                                   / (time.perf_counter() - start))
                round_q_p50.append(median(question_ns[q0:]))
            r += 1
            if r == SIM_ROUNDS:
                # peak RSS after a fixed amount of work, however many
                # rounds the time budget then allows
                first_rounds["rss_mb"] = \
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                first_rounds["sim_s"] = svqa.clock.elapsed - clock0
                first_rounds["counts"] = {
                    k: v - counts0.get(k, 0)
                    for k, v in svqa.clock.counts.items()}
        return r, question_ns[qs_before:]

    if rec is None:
        rounds(0, args.seconds, SIM_ROUNDS, False)
    else:
        next_round, untraced_q = rounds(0, args.seconds / 2, SIM_ROUNDS, False)
        graph.attach_mutation_sink(TimingTee(store, rec))
        wrap_query_layers(rec)
        # enough questions for a p99 with ten samples beyond it
        minimum = -(-1000 // (MUTATIONS_PER_ROUND // QUESTION_EVERY))
        _, timed_q = rounds(next_round, args.seconds / 2, minimum, True)
        rec.unwrap_all()

    mutations = len(mutation_ns)
    if not store.wal_healthy:
        failures.append("the WAL stopped persisting mutations")
    store.close()
    wal_bytes = store.wal_path.stat().st_size - wal_before
    fsyncs = svqa.clock.counts.get("store_fsync", 0) - fsync_before
    # durability: a fresh store must recover exactly the live graph
    recovered = DurableStore(args.store).recover()
    if recovered.graph is None or \
            extensional_digest(recovered.graph) != extensional_digest(graph):
        failures.append("recovered graph digest differs from the live graph")
    counts = first_rounds["counts"]
    result = {
        "question_p50_ms": median(round_q_p50) / 1e6,
        "mutation_us": [ns / 1e3 for ns in mutation_ns],
        "mix_ops_per_s": median(round_rates),
        "answered": len(texts),
        "correct": correct,
        "failures": failures,
        "attempted": mutations + len(question_ns) + len(texts),
        "sim_s": first_rounds["sim_s"],
        "rss_mb": first_rounds["rss_mb"],
        "clock": {f"clock.{k}": counts.get(k, 0) for k in CLOCK_OPS},
    }
    if rec is not None:
        cache = cache_figures(cache_before, svqa.cache_report())
        drops = svqa.stats.snapshot().stale_scope_drops - drops_before
        layers.update({
            **build_layer_figures(rec),
            **query_layer_figures(rec),
            **cache,
            "executor.stale_scope_drops": drops,
            "answer.to_json_us": to_json_us(rec, svqa.answer_many(texts)),
            "durable.record_us": median(
                [ns / 1e3 for ns in rec.durations_ns("durable.record")]),
            "durable.wal_bytes_per_op": wal_bytes / mutations,
            "durable.fsyncs_per_op": fsyncs / mutations,
            "trace.overhead_ratio": median(timed_q) / median(untraced_q),
        })
        result["layers"] = layers
    emit("RESULT", result)


# ----------------------------------------------------------------------
# ask-http, traced: the /ask stream through QAService in process
# ----------------------------------------------------------------------
def run_wsgi(args, rec):
    import repro.serve.app as app
    from repro.serve import ServeConfig, build_service

    service = build_service(ServeConfig(scenario="mvqa"))
    emit("READY", {"import_s": args.import_s})
    rec.unwrap_all()
    with open(args.questions, encoding="utf-8") as src:
        questions = json.load(src)
    with open(args.stream, encoding="utf-8") as src:
        stream = json.load(src)
    warm, requests = stream["warm"], stream["requests"]
    svqa = service.svqa
    answers = []

    def call(index, client):
        body = json.dumps({"question": questions[index]["text"]}).encode()
        environ = {
            "REQUEST_METHOD": "POST", "PATH_INFO": "/ask",
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body), "HTTP_X_CLIENT_ID": client,
        }
        status = []
        start = time.perf_counter_ns()
        payload = b"".join(service(environ, lambda s, h: status.append(s)))
        wall = time.perf_counter_ns() - start
        if not status[0].startswith("200"):
            raise RuntimeError(f"in-process /ask answered {status[0]}")
        return wall, payload

    for index, client in warm:
        call(index, client)
    warm_counts = clock_counts(svqa.clock)
    metrics = svqa.metrics_exposition()
    half = len(requests) // 2
    untraced = [call(i, c)[0] / 1e6 for i, c in requests[:half]]

    original_response = app.ask_response

    def capture(answer, deadline_s):
        answers.append(answer)
        return original_response(answer, deadline_s)

    rec.wrap(app.AdmissionController, "admit", "serve.admit")
    rec.wrap(app.AdmissionController, "release", "serve.release")
    wrap_query_layers(rec)
    app.ask_response = capture
    traced = []
    try:
        for n, (index, client) in enumerate(requests[half:]):
            rec.trace = f"request-{n}"
            with rec.span("serve.wsgi"):
                traced.append(call(index, client)[0] / 1e6)
    finally:
        app.ask_response = original_response
        rec.unwrap_all()
    admit = rec.durations_ns("serve.admit")
    release = rec.durations_ns("serve.release")
    cache = svqa.cache_report()
    zero = type(cache)(0, 0, 0, 0)
    emit("RESULT", {
        "warm_metrics": metrics,
        "clock": warm_counts,
        "layers": {
            **build_layer_figures(rec),
            **query_layer_figures(rec),
            **cache_figures(zero, cache),
            "executor.stale_scope_drops": svqa.stats.snapshot().stale_scope_drops,
            "answer.to_json_us": to_json_us(rec, answers),
            "serve.admission_us": median(
                [(a + r) / 1e3 for a, r in zip(admit, release, strict=True)]),
            "serve.wsgi_p50_ms": median(traced),
            "serve.wsgi_p99_ms": tail(traced, 99),
            "trace.overhead_ratio": median(traced) / median(untraced),
        },
    })


ROLES = {"prep": run_prep, "ingest": run_ingest, "wsgi": run_wsgi}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--store")
    parser.add_argument("--snapshot")
    parser.add_argument("--questions")
    parser.add_argument("--stream")
    parser.add_argument("--spans")
    args = parser.parse_args()
    rec = SpanRecorder() if args.trace else None
    start = time.perf_counter_ns()
    import repro  # noqa: F401
    import repro.core  # noqa: F401
    import repro.serve  # noqa: F401
    end = time.perf_counter_ns()
    args.import_s = (end - start) / 1e9
    if rec is not None:
        rec.spans.append(["import", "setup", -1, start, end])
        wrap_build_layers(rec)
    ROLES[args.role](args, rec)
    if rec is not None and args.spans:
        rec.write_jsonl(args.spans)


if __name__ == "__main__":
    main()
