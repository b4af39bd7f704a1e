"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``ask``           answer one question over the movie scenario (Figure 1)
``serve``         long-lived QA server: POST /ask, /healthz, /metrics
``snapshot``      write a scenario's merged graph as a durable snapshot
``recover``       recover a durable store and print the verdict
``store-torture`` crash-damage the durable store and check each recovery
``mvqa``          build MVQA and evaluate SVQA on it (Exp-1 / Table III)
``bench``         concurrent batch benchmark + executor statistics
``profile``       MVQA suite with tracing: per-stage sim-time breakdown
``trace``         answer one question and print its span tree
``chaos``         fault-injection sweep: accuracy decay vs fault rate
``parse``         show the query graph for a question (Algorithm 2)
``lint-queries``  semantic-validate query graphs (MVQA sweep or ad hoc)
``lint-code``     run the repo-invariant linter over the source tree
``sanitize``      run a workload under the runtime lock/race sanitizer
"""

from __future__ import annotations

import argparse
import sys

from repro.core import SVQA, SVQAConfig, describe_query_graph, \
    generate_query_graph, render_answer
from repro.errors import QueryError


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {value}"
        )
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0, got {value}"
        )
    return value


def _unit_rate(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a rate in [0, 1], got {value}"
        )
    return value


def _movie_svqa(trace: bool = False) -> SVQA:
    """The movie-scenario session ``repro serve`` builds, cold; with
    ``trace`` it records spans."""
    from repro.resilience import ResilienceConfig
    from repro.serve import ServeConfig
    from repro.serve.app import _scenario_corpus, _svqa_config

    config = _svqa_config(ServeConfig(), ResilienceConfig())
    config.trace = trace
    scenes, kg, annotations = _scenario_corpus("movie")
    svqa = SVQA(scenes, kg, config, annotations=annotations)
    svqa.build()
    return svqa


def _cmd_ask(args: argparse.Namespace) -> int:
    from repro.dataset.movie import FLAGSHIP_QUESTION

    svqa = _movie_svqa()
    question = args.question or FLAGSHIP_QUESTION
    answer = svqa.answer(question)
    if args.json:
        # the serving layer's POST /ask body without its deadline_s:
        # the same session, question path and Answer.to_dict()
        print(answer.to_json())
    else:
        print(render_answer(answer, question))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Build the pipeline once, then serve /ask, /healthz, /metrics."""
    from repro.serve import ServeConfig, build_service, make_qa_server

    config = ServeConfig(
        scenario=args.scenario,
        seed=args.seed,
        workers=args.workers,
        max_batch=args.max_batch,
        batch_wait=args.batch_wait,
        rate=args.rate,
        burst=args.burst,
        default_deadline_ms=args.deadline_ms,
        chaos=args.chaos,
        snapshot=args.snapshot,
    )
    service = build_service(config)
    server = make_qa_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    start = "cold build"
    if service.store_report is not None:
        rep = service.store_report
        start = (f"warm start from snapshot (epoch={rep.epoch}, "
                 f"wal_records_replayed={rep.wal_records_replayed})"
                 if rep.source == "snapshot"
                 else "snapshot unrecoverable; cold rebuild")
    print(f"serving {args.scenario} scenario on http://{host}:{port} "
          f"(workers={args.workers}, max_batch={args.max_batch}, "
          f"{start})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    """Build a scenario's merged graph and write its durable snapshot.

    The pipeline is constructed exactly as ``repro serve`` would build
    it, so ``repro serve --snapshot`` warm-started from this directory
    answers byte-identically to a cold-built server at the same seed.
    """
    from repro.graph.durable import DurableStore
    from repro.serve import ServeConfig, build_svqa

    config = ServeConfig(scenario=args.scenario, seed=args.seed,
                         workers=args.workers)
    svqa = build_svqa(config)
    assert svqa.merged is not None
    store = DurableStore(args.out, clock=svqa.clock)
    manifest = store.snapshot(svqa.merged.graph,
                              merged_meta=svqa.merged.meta_dict())
    store.close()
    print(f"snapshot written to {args.out}: "
          f"epoch={manifest['epoch']} "
          f"vertices={manifest['vertices']} "
          f"edges={manifest['edges']} "
          f"records={manifest['records']} "
          f"digest={manifest['payload_digest']}")
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    """Recover a durable store directory and print the verdict.

    Exit 0 when a snapshot-sourced graph was recovered, 1 when the
    store degraded to a full-rebuild verdict (damage is quarantined
    and attributed either way, never silently dropped).
    """
    from repro.graph.durable import DurableStore

    store = DurableStore(args.store)
    result = store.recover()
    store.close()
    print(result.report.render())
    return 0 if result.report.source == "snapshot" else 1


def _cmd_store_torture(args: argparse.Namespace) -> int:
    """Run the crash-torture sweep against a scripted store history."""
    import json
    import tempfile

    from repro.graph.torture import run_torture

    with tempfile.TemporaryDirectory() as scratch:
        report = run_torture(args.seed, scratch)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return 0 if report.passed else 1


def _build_mvqa_svqa(args: argparse.Namespace) -> tuple[object, SVQA]:
    from repro.dataset.mvqa import build_mvqa

    if args.fast:
        dataset = build_mvqa(seed=5, pool_size=1_200, image_count=400)
    else:
        dataset = build_mvqa()
    config = SVQAConfig(workers=getattr(args, "workers", 1))
    chaos_rate = getattr(args, "chaos", None)
    if chaos_rate is not None:
        from repro.resilience import ResilienceConfig

        config.resilience = ResilienceConfig.chaos(
            chaos_rate, seed=getattr(args, "seed", 0))
    svqa = SVQA(dataset.scenes, dataset.kg, config)
    svqa.build()
    return dataset, svqa


def _cmd_mvqa(args: argparse.Namespace) -> int:
    from repro.eval.harness import evaluate, format_table, percentage

    dataset, svqa = _build_mvqa_svqa(args)
    result = evaluate("SVQA", dataset.questions, svqa.answer_many,
                      lambda: svqa.elapsed)
    row = result.summary()
    print(format_table(
        ["Method", "Latency(Sec.)", "Judgment", "Counting", "Reasoning"],
        [["SVQA", f"{row['latency']:.2f}", percentage(row["judgment"]),
          percentage(row["counting"]), percentage(row["reasoning"])]],
    ))
    print(f"overall: {percentage(row['overall'])}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.core import estimate_parallel_latency
    from repro.eval.harness import format_table, percentage

    dataset, svqa = _build_mvqa_svqa(args)
    svqa.answer_many([q.text for q in dataset.questions],
                     workers=args.workers)
    batch = svqa.last_batch
    # the measured makespan (busiest real worker lane) is the headline
    # figure; the retired bin-packing model is printed separately below,
    # clearly labeled as an estimate, never in the measured table
    print(format_table(
        ["Workers", "Makespan (s)", "Sim total (s)",
         "Speedup", "Wall (s)"],
        [[str(batch.workers), f"{batch.simulated_makespan:.2f}",
          f"{batch.simulated_total:.2f}",
          f"{batch.speedup:.2f}x", f"{batch.wall_clock:.3f}"]],
        title="Concurrent batch execution "
              f"({len(dataset.questions)} questions)",
    ))
    estimate = estimate_parallel_latency(batch.latencies, args.workers)
    print(f"Analytical estimate (bin-packing fallback model): "
          f"{estimate:.2f} s")
    report = svqa.execution_report()
    stats = report.stats
    rows = [
        ["queries executed", str(stats.queries)],
        ["vertices / query",
         f"{stats.mean_vertices_per_query:.2f}"],
        ["scope hit rate", percentage(stats.scope_hit_rate)],
        ["path hit rate", percentage(stats.path_hit_rate)],
        ["predicate rejections", str(stats.predicate_rejections)],
        ["predicate dropouts", str(stats.predicate_dropouts)],
        ["constraint applications",
         str(stats.constraint_applications)],
        ["graphs validated", str(stats.graphs_validated)],
        ["validation warnings", str(stats.validation_warnings)],
        ["validation errors", str(stats.validation_errors)],
        ["stale scope drops", str(stats.stale_scope_drops)],
        ["plan neighborhood fills", str(stats.plan_neighborhood_fills)],
        ["ann fresh scores", str(stats.retrieval_ann_fresh)],
        ["ann memo probes", str(stats.retrieval_ann_probes)],
        ["faults injected", str(stats.faults_injected)],
        ["retry attempts", str(stats.retry_attempts)],
        ["retry recoveries", str(stats.retry_recoveries)],
        ["retries exhausted", str(stats.retries_exhausted)],
        ["breaker trips", str(stats.breaker_trips)],
        ["breaker short-circuits", str(stats.breaker_short_circuits)],
        ["deadline cutoffs", str(stats.deadline_cutoffs)],
        ["degraded answers", str(stats.degraded_answers)],
    ]
    print()
    print(format_table(["Metric", "Value"], rows,
                       title="Executor statistics"))
    if args.explain:
        from repro.observability import explain_lines

        print()
        print("Metric definitions (repro bench --explain):")
        for line in explain_lines():
            print(line)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run the MVQA suite with tracing on and report per-stage cost.

    All figures are simulated seconds from the span tracer, so two
    runs with the same seed produce byte-identical artifacts — the CI
    observability job diffs the ``--snapshot`` JSON across two runs.
    """
    import json

    from repro.dataset.mvqa import build_mvqa
    from repro.eval.harness import evaluate, format_table, percentage
    from repro.observability import (
        build_baseline,
        charge_ceiling_violations,
        dump_deterministic_json,
        stage_breakdown,
    )

    if args.fast:
        dataset = build_mvqa(seed=args.seed, pool_size=1_200,
                             image_count=400)
    else:
        dataset = build_mvqa(seed=args.seed)
    config = SVQAConfig(workers=args.workers, trace=True)
    svqa = SVQA(dataset.scenes, dataset.kg, config)
    svqa.build()
    result = evaluate("SVQA", dataset.questions, svqa.answer_many,
                      lambda: svqa.elapsed)
    summary = result.summary()
    batch = svqa.last_batch

    spans = svqa.finished_spans()
    stages = stage_breakdown(spans)
    print(format_table(
        ["Stage", "Count", "Total (s)", "Self (s)", "Mean (ms)"],
        [[row.name, str(row.count), f"{row.total:.3f}",
          f"{row.self_time:.3f}", f"{row.mean * 1000:.3f}"]
         for row in stages],
        title=f"Per-stage simulated-time breakdown "
              f"({len(dataset.questions)} questions, "
              f"workers={args.workers}, seed={args.seed})",
    ))
    print(f"overall accuracy: {percentage(summary['overall'])}  "
          f"simulated latency: {summary['latency']:.2f} s  "
          f"makespan: {batch.simulated_makespan:.2f} s")

    snapshot = svqa.metrics_snapshot()
    clock_counts = {k: int(v) for k, v in
                    sorted(svqa.clock.counts.items())}
    if args.snapshot:
        with open(args.snapshot, "w", encoding="utf-8") as fh:
            fh.write(dump_deterministic_json(snapshot))
        print(f"metric snapshot written to {args.snapshot}")
    if args.spans:
        with open(args.spans, "w", encoding="utf-8") as fh:
            fh.write(svqa.spans_jsonl())
        print(f"span export written to {args.spans}")
    if args.baseline:
        baseline = build_baseline(
            suite="mvqa-fast" if args.fast else "mvqa",
            config={
                "seed": args.seed,
                "workers": args.workers,
                "pool_size": 1_200 if args.fast else dataset.pool_size,
                "image_count": len(dataset.scenes),
                "questions": len(dataset.questions),
            },
            accuracy={
                "overall": summary["overall"],
                "judgment": summary["judgment"],
                "counting": summary["counting"],
                "reasoning": summary["reasoning"],
            },
            latency={
                "simulated_total": svqa.elapsed,
                "batch_simulated_total": batch.simulated_total,
                "batch_makespan": batch.simulated_makespan,
                "evaluate_latency": summary["latency"],
            },
            stages=stages,
            metrics=snapshot,
            clock_counts=clock_counts,
        )
        with open(args.baseline, "w", encoding="utf-8") as fh:
            fh.write(dump_deterministic_json(baseline))
        print(f"baseline written to {args.baseline}")
    if args.check_ceiling:
        with open(args.check_ceiling, encoding="utf-8") as fh:
            recorded = json.load(fh)
        violations = charge_ceiling_violations(recorded, clock_counts)
        if violations:
            for violation in violations:
                print(f"CHARGE REGRESSION: {violation}",
                      file=sys.stderr)
            return 1
        ceilings = recorded.get("clock_counts", {})
        for operation in ("vertex_match", "edge_scan", "embed_score"):
            print(f"{operation} charges within baseline ceiling "
                  f"({clock_counts.get(operation, 0)} <= "
                  f"{ceilings.get(operation)})")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Answer one movie-scenario question and print its span tree."""
    from repro.dataset.movie import FLAGSHIP_QUESTION
    from repro.observability import render_trace

    svqa = _movie_svqa(trace=True)
    question = args.question or FLAGSHIP_QUESTION
    answer = svqa.answer(question)
    print(render_answer(answer, question))
    print()
    spans = svqa.finished_spans()
    if args.build:
        print(render_trace(spans, "build"))
        print()
    print(render_trace(spans, "q0000"))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Sweep fault rates over MVQA: accuracy must decay gracefully.

    Every question gets an answer at every rate — degraded ones carry
    their fault provenance; an unhandled exception fails the command.
    All figures are deterministic (simulated time, seeded faults), so
    two runs with the same seed print byte-identical reports.
    """
    from repro.dataset.mvqa import build_mvqa
    from repro.eval.harness import evaluate, format_table, percentage
    from repro.resilience import ResilienceConfig

    try:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
    except ValueError:
        print(f"invalid --rates: {args.rates!r}", file=sys.stderr)
        return 2
    if not rates or any(not 0.0 <= r <= 1.0 for r in rates):
        print("--rates must be a comma list of values in [0, 1]",
              file=sys.stderr)
        return 2

    if args.fast:
        dataset = build_mvqa(seed=5, pool_size=1_200, image_count=400)
    else:
        dataset = build_mvqa()
    questions = dataset.questions

    rows = []
    unattributed = 0
    dump_lines: list[str] = []
    for rate in rates:
        resilience = ResilienceConfig.chaos(
            rate, seed=args.seed, query_deadline=args.deadline
        )
        svqa = SVQA(dataset.scenes, dataset.kg,
                    SVQAConfig(workers=args.workers,
                               resilience=resilience))
        svqa.build()
        result = evaluate("SVQA", questions, svqa.answer_many,
                          lambda svqa=svqa: svqa.elapsed)
        stats = svqa.execution_report().stats
        degraded = [a for a in result.answers if a.degraded]
        unattributed += sum(1 for a in degraded if not a.fault_events)
        if args.dump:
            import json

            # one JSON line per (rate, question): the payload is the
            # same stable Answer.to_dict() shape POST /ask returns
            dump_lines.extend(
                json.dumps(
                    {"rate": rate, "question": question.text,
                     "payload": answer.to_dict()},
                    sort_keys=True, separators=(",", ":"),
                )
                for question, answer in
                zip(questions, result.answers, strict=True)
            )
        summary = result.summary()
        rows.append([
            f"{rate:.2f}", percentage(summary["overall"]),
            str(len(degraded)), str(stats.faults_injected),
            str(stats.retry_attempts), str(stats.retry_recoveries),
            str(stats.retries_exhausted), str(stats.breaker_trips),
            str(stats.deadline_cutoffs),
            str(len(svqa.merged.skipped_images)),
        ])

    print(format_table(
        ["Rate", "Overall", "Degraded", "Faults", "Retries",
         "Recovered", "Exhausted", "Trips", "Deadline", "Skipped img"],
        rows,
        title=f"Chaos sweep over {len(questions)} MVQA questions "
              f"(seed={args.seed})",
    ))
    # ----- durability leg: the same fault rates against the durable
    # store's guards (store.snapshot / store.wal_append / store.recover)
    import random
    import tempfile

    from repro.dataset.kg import build_movie_kg
    from repro.errors import FaultToleranceError
    from repro.graph.durable import DurableStore
    from repro.graph.torture import scripted_mutations
    from repro.resilience import ResilienceManager
    from repro.simtime import SimClock

    store_rows = []
    for rate in rates:
        manager = ResilienceManager(
            ResilienceConfig.chaos(rate, seed=args.seed))
        with tempfile.TemporaryDirectory() as scratch:
            graph = build_movie_kg()
            store = DurableStore(scratch, resilience=manager,
                                 clock=SimClock())
            try:
                store.snapshot(graph)
                snapshot_state = "ok"
            except FaultToleranceError:
                snapshot_state = "failed"
            store.attach(graph)
            base_epoch = graph.epoch
            scripted_mutations(graph, random.Random(args.seed))
            wal_state = "ok" if store.wal_healthy else "degraded"
            store.close()
            result = DurableStore(scratch, resilience=manager,
                                  clock=SimClock()).recover()
        rep = result.report
        store_rows.append([
            f"{rate:.2f}", snapshot_state,
            str(graph.epoch - base_epoch), wal_state,
            rep.source, str(rep.epoch),
            str(rep.wal_records_replayed),
            str(len(rep.quarantined)),
        ])
    print()
    print(format_table(
        ["Rate", "Snapshot", "Ops", "WAL", "Recovered", "Epoch",
         "Replayed", "Quarantined"],
        store_rows,
        title=f"Durable-store chaos sweep (seed={args.seed}; sites "
              "store.snapshot/store.wal_append/store.recover)",
    ))

    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write("\n".join(dump_lines) + "\n")
        print(f"answer dump written to {args.dump} "
              f"({len(dump_lines)} records)")
    if unattributed:
        print(f"ERROR: {unattributed} degraded answer(s) carry no "
              "fault provenance", file=sys.stderr)
        return 1
    return 0


def _cmd_lint_queries(args: argparse.Namespace) -> int:
    from repro.analysis import Severity, validate_query_graph
    from repro.analysis.diagnostics import (
        Diagnostic,
        DiagnosticReport,
        Location,
    )
    from repro.errors import QueryParseError

    if args.question:
        questions = list(args.question)
    else:
        from repro.dataset.mvqa import build_mvqa

        if args.fast:
            dataset = build_mvqa(seed=5, pool_size=1_200, image_count=400)
        else:
            dataset = build_mvqa()
        questions = [q.text for q in dataset.questions]

    combined = DiagnosticReport()
    errors = warnings = parse_failures = clean = 0
    for question in questions:
        try:
            graph = generate_query_graph(question)
        except QueryParseError as exc:
            # expected Fig. 8(a)/Fig. 9 behaviour: out-of-grammar
            # questions are rejected at parse time, attributably
            parse_failures += 1
            combined.add(Diagnostic(
                "QG000", Severity.INFO,
                Location(vertex=exc.clause_index),
                f"parse rejected: {question} ({exc})",
            ))
            if args.json:
                continue
            where = ""
            if exc.clause_index is not None:
                where += f" clause {exc.clause_index}"
            if exc.term is not None:
                where += f" term {exc.term!r}"
            print(f"PARSE-REJECTED{where}: {question}")
            print(f"  {exc}")
            continue
        report = validate_query_graph(graph)
        combined.extend(report)
        errors += report.count(Severity.ERROR)
        warnings += report.count(Severity.WARNING)
        if len(report) == 0:
            clean += 1
            continue
        if args.json:
            continue
        print(f"Q: {question}")
        for diagnostic in report:
            print(f"  {diagnostic.render()}")
    if args.json:
        print(combined.to_json())
    else:
        print(
            f"{len(questions)} question(s): {clean} clean, "
            f"{warnings} warning(s), {errors} error(s), "
            f"{parse_failures} parse rejection(s)"
        )
    if errors:
        return 1
    return 1 if parse_failures and args.strict_parse else 0


def _cmd_lint_code(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import default_source_root, lint_paths

    roots = [Path(p) for p in args.paths] if args.paths \
        else [default_source_root()]
    report = lint_paths(roots)
    if args.json:
        print(report.to_json())
        return 1 if report.has_errors else 0
    for diagnostic in report:
        print(diagnostic.render())
    print(report.summary())
    return 1 if report.has_errors else 0


#: the fixed `repro sanitize` question battery: every query shape the
#: executor exercises, repeated so single-flight leaders and waiters,
#: cache hits, and scheduler reordering all occur under the sanitizer
_SANITIZE_QUESTIONS: tuple[str, ...] = (
    "Is there a dog near the fence?",
    "What is on the table?",
    "Is there a person holding a cup?",
    "How many chairs are near the table?",
    "What is the man wearing?",
    "Is there a cat under the chair?",
)


def _cmd_sanitize(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.concurrency.sanitizer import SanitizerConfig
    from repro.dataset.kg import build_commonsense_kg
    from repro.synth import SceneGenerator

    scenes = SceneGenerator(seed=args.seed).generate_pool(args.scenes)
    config = SVQAConfig(
        workers=args.workers,
        sanitizer=SanitizerConfig(seed=args.seed),
    )
    svqa = SVQA(scenes, build_commonsense_kg(), config)
    questions = list(_SANITIZE_QUESTIONS) * args.repeat
    try:
        svqa.build()
        svqa.answer_many(questions)
        assert svqa.sanitizer is not None
        report = svqa.sanitizer.report()
    finally:
        svqa.release_sanitizer()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 1 if report.findings else 0


def _cmd_parse(args: argparse.Namespace) -> int:
    try:
        graph = generate_query_graph(args.question)
    except QueryError as exc:
        print(f"parse failed: {exc}", file=sys.stderr)
        return 1
    print(describe_query_graph(graph))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SVQA reproduction command-line interface",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ask = commands.add_parser("ask", help="answer a question over the "
                                          "movie scenario")
    ask.add_argument("question", nargs="?", default=None)
    ask.add_argument("--json", action="store_true",
                     help="emit the stable Answer.to_dict() JSON "
                          "payload (the same shape POST /ask returns)")
    ask.set_defaults(handler=_cmd_ask)

    serve = commands.add_parser(
        "serve",
        help="long-lived QA server: POST /ask, GET /healthz, "
             "GET /metrics",
    )
    serve.add_argument("--scenario", choices=("movie", "mvqa"),
                       default="movie",
                       help="corpus built once at startup")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8030,
                       help="0 picks an ephemeral port")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for chaos faults")
    serve.add_argument("--workers", type=_positive_int, default=1,
                       help="batch-executor worker threads")
    serve.add_argument("--max-batch", type=_positive_int, default=8,
                       help="micro-batch size cap")
    serve.add_argument("--batch-wait", type=_non_negative_float,
                       default=0.0,
                       help="micro-batch coalescing window in wall "
                            "seconds (0 = inline, deterministic)")
    serve.add_argument("--rate", type=_positive_float, default=10.0,
                       help="token-bucket refill per client per "
                            "simulated second")
    serve.add_argument("--burst", type=_positive_int, default=20,
                       help="token-bucket capacity per client")
    serve.add_argument("--deadline-ms", type=_positive_float,
                       default=None,
                       help="default per-request deadline in simulated "
                            "milliseconds when no Deadline-Ms header "
                            "is sent")
    serve.add_argument("--snapshot", default=None, metavar="PATH",
                       help="durable store directory (repro snapshot) "
                            "to warm-start from: recover snapshot+WAL "
                            "instead of re-running the vision "
                            "pipeline; unrecoverable stores fall back "
                            "to a cold rebuild")
    serve.add_argument("--chaos", type=_unit_rate, default=None,
                       metavar="RATE",
                       help="serve under fault injection at this "
                            "per-site rate")
    serve.set_defaults(handler=_cmd_serve)

    snapshot = commands.add_parser(
        "snapshot",
        help="build a scenario's merged graph and write its durable "
             "checksummed snapshot (for repro serve --snapshot)",
    )
    snapshot.add_argument("--out", required=True, metavar="DIR",
                          help="durable store directory to write")
    snapshot.add_argument("--scenario", choices=("movie", "mvqa"),
                          default="movie",
                          help="corpus to build and snapshot")
    snapshot.add_argument("--seed", type=int, default=0,
                          help="pipeline seed (must match the serving "
                               "seed for byte-identical answers)")
    snapshot.add_argument("--workers", type=_positive_int, default=1,
                          help="build-time worker threads")
    snapshot.set_defaults(handler=_cmd_snapshot)

    recover = commands.add_parser(
        "recover",
        help="recover a durable store (snapshot + WAL replay) and "
             "print the attributed verdict",
    )
    recover.add_argument("--store", required=True, metavar="DIR",
                         help="durable store directory to recover")
    recover.set_defaults(handler=_cmd_recover)

    torture = commands.add_parser(
        "store-torture",
        help="crash-torture the durable store: damage snapshot+WAL at "
             "every record boundary and verify every recovery",
    )
    torture.add_argument("--seed", type=int, default=0,
                         help="seed for the scripted mutation history")
    torture.add_argument("--json", action="store_true",
                         help="emit the full per-case report as JSON")
    torture.set_defaults(handler=_cmd_store_torture)

    mvqa = commands.add_parser("mvqa", help="evaluate SVQA on MVQA")
    mvqa.add_argument("--fast", action="store_true")
    mvqa.add_argument("--workers", type=_positive_int, default=1,
                      help="worker threads for batch answering")
    mvqa.set_defaults(handler=_cmd_mvqa)

    bench = commands.add_parser(
        "bench", help="concurrent batch benchmark + executor stats"
    )
    bench.add_argument("--fast", action="store_true")
    bench.add_argument("--workers", type=_positive_int, default=4,
                       help="worker threads for batch answering")
    bench.add_argument("--chaos", type=_unit_rate, default=None,
                       metavar="RATE",
                       help="run the batch under fault injection at "
                            "this per-site rate")
    bench.add_argument("--seed", type=int, default=0,
                       help="fault-injection seed for --chaos")
    bench.add_argument("--explain", action="store_true",
                       help="print one definition line per reported "
                            "metric (from the shared glossary)")
    bench.set_defaults(handler=_cmd_bench)

    profile = commands.add_parser(
        "profile",
        help="MVQA suite with tracing: per-stage simulated-time "
             "breakdown + deterministic artifacts",
    )
    profile.add_argument("--fast", action="store_true")
    profile.add_argument("--seed", type=int, default=5,
                         help="dataset seed (same seed => "
                              "byte-identical artifacts)")
    profile.add_argument("--workers", type=_positive_int, default=1,
                         help="worker threads (keep 1 for "
                              "byte-identical snapshots)")
    profile.add_argument("--snapshot", default=None, metavar="PATH",
                         help="write the metric registry snapshot "
                              "as deterministic JSON")
    profile.add_argument("--spans", default=None, metavar="PATH",
                         help="write the span export as JSON Lines")
    profile.add_argument("--baseline", default=None, metavar="PATH",
                         help="write the BENCH_baseline.json payload")
    profile.add_argument("--check-ceiling", default=None, metavar="PATH",
                         help="compare this run's SimClock charge "
                              "counts against a recorded baseline and "
                              "fail if vertex_match, edge_scan, or "
                              "embed_score exceeds its ceiling")
    profile.set_defaults(handler=_cmd_profile)

    trace = commands.add_parser(
        "trace",
        help="answer one movie-scenario question and print its span "
             "tree",
    )
    trace.add_argument("question", nargs="?", default=None)
    trace.add_argument("--build", action="store_true",
                       help="also print the offline build phase's "
                            "trace")
    trace.set_defaults(handler=_cmd_trace)

    chaos = commands.add_parser(
        "chaos",
        help="fault-injection sweep over MVQA (graceful degradation)",
    )
    chaos.add_argument("--fast", action="store_true")
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-injection seed (same seed => "
                            "byte-identical report)")
    chaos.add_argument("--rates", default="0.0,0.05,0.1,0.2",
                       help="comma list of per-site fault rates")
    chaos.add_argument("--deadline", type=float, default=None,
                       help="per-query simulated-seconds budget")
    chaos.add_argument("--workers", type=_positive_int, default=1,
                       help="worker threads for batch answering")
    chaos.add_argument("--dump", default=None, metavar="PATH",
                       help="write every answer as JSON Lines using "
                            "the stable Answer.to_dict() payload")
    chaos.set_defaults(handler=_cmd_chaos)

    parse_cmd = commands.add_parser("parse", help="show a question's "
                                                  "query graph")
    parse_cmd.add_argument("question")
    parse_cmd.set_defaults(handler=_cmd_parse)

    lint_queries = commands.add_parser(
        "lint-queries",
        help="semantic-validate query graphs (defaults to the 100 "
             "MVQA questions)",
    )
    lint_queries.add_argument("question", nargs="*", default=None,
                              help="ad hoc questions to lint instead "
                                   "of the MVQA sweep")
    lint_queries.add_argument("--fast", action="store_true",
                              help="build the reduced MVQA pool")
    lint_queries.add_argument("--strict-parse", action="store_true",
                              help="treat parse rejections (the "
                                   "expected Fig. 8(a) failures) as "
                                   "lint errors")
    lint_queries.add_argument("--json", action="store_true",
                              help="emit the findings as JSON "
                                   "(stable key order, for CI "
                                   "annotation)")
    lint_queries.set_defaults(handler=_cmd_lint_queries)

    lint_code = commands.add_parser(
        "lint-code",
        help="run the repo-invariant linter (RP001-RP011) over the "
             "source tree",
    )
    lint_code.add_argument("paths", nargs="*", default=None,
                           help="files or directories to lint "
                                "(default: the repro package)")
    lint_code.add_argument("--json", action="store_true",
                           help="emit the findings as JSON (stable "
                                "key order, for CI annotation)")
    lint_code.set_defaults(handler=_cmd_lint_code)

    sanitize = commands.add_parser(
        "sanitize",
        help="run the stress workload under the runtime lock/race "
             "sanitizer and print a deterministic findings report",
    )
    sanitize.add_argument("--seed", type=int, default=7,
                          help="workload seed (also labels the "
                               "report; default 7)")
    sanitize.add_argument("--workers", type=int, default=2,
                          help="worker threads for the batch run "
                               "(default 2)")
    sanitize.add_argument("--scenes", type=int, default=6,
                          help="synthetic scenes in the pool "
                               "(default 6)")
    sanitize.add_argument("--repeat", type=int, default=2,
                          help="times the question battery is "
                               "repeated (default 2)")
    sanitize.add_argument("--json", action="store_true",
                          help="emit the report as JSON")
    sanitize.set_defaults(handler=_cmd_sanitize)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
