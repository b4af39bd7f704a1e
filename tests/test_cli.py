"""Tests for the command-line interface."""

import ast
import json
import re
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent

#: where a verb counts as documented: the user's, the operator's, CI's
#: and the developer's entry points
VERB_DOCS = ("README.md", "docs/OPERATIONS.md",
             ".github/workflows/ci.yml", "Makefile")


def registered_verbs():
    """Every subcommand ``cli.main`` registers (``add_parser``'s
    first argument)."""
    tree = ast.parse((REPO_ROOT / "src" / "repro" / "cli.py")
                     .read_text("utf-8"))
    main_def = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "main")
    return sorted(node.args[0].value for node in ast.walk(main_def)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", "") == "add_parser")


def test_every_verb_is_named_in_the_docs_ci_or_makefile():
    """A verb stays only if a reader can find it: each is named as
    ``repro <verb>`` in README, OPERATIONS.md, CI or the Makefile."""
    text = "\n".join((REPO_ROOT / name).read_text("utf-8")
                     for name in VERB_DOCS)
    verbs = registered_verbs()
    assert {"ask", "parse", "serve"} <= set(verbs)  # the scan finds them
    unnamed = [verb for verb in verbs
               if not re.search(rf"repro {re.escape(verb)}(?![\w-])", text)]
    assert unnamed == [], f"CLI verbs named nowhere: {unnamed}"


class TestParseCommand:
    def test_parse_prints_query_graph(self, capsys):
        code = main(["parse", "Is there a dog near the fence?"])
        out = capsys.readouterr().out
        assert code == 0
        assert "v0" in out

    def test_parse_failure_exits_nonzero(self, capsys):
        code = main(["parse", "canis canis canis"])
        assert code == 1
        assert "parse failed" in capsys.readouterr().err


class TestAskCommand:
    def test_flagship_default(self, capsys):
        code = main(["ask"])
        out = capsys.readouterr().out
        assert code == 0
        assert "A: robe" in out

    def test_custom_question(self, capsys):
        code = main(["ask", "Is there a woman standing on the grass?"])
        out = capsys.readouterr().out
        assert code == 0
        assert "A: " in out

    def test_unparseable_question_degrades_like_serve(self, capsys):
        """Bugfix: a question the grammar rejects gets the same
        degraded ``unknown`` payload ``POST /ask`` returns, not an
        error exit."""
        code = main(["ask", "--json", "canis canis canis"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["answer"] == "unknown"
        assert payload["meta"]["degraded"] is True
        assert any(event["site"] == "parse.question"
                   for event in payload["meta"]["fault_events"])


class TestBenchCommand:
    def test_bench_reports_latency_and_stats(self, capsys):
        code = main(["bench", "--fast", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Concurrent batch execution" in out
        assert "Makespan" in out
        assert "scope hit rate" in out
        assert "constraint applications" in out

    def test_bench_leads_with_measured_makespan(self, capsys):
        """Bugfix: the measured makespan is the headline figure; the
        retired bin-packing model only appears as a labeled estimate
        outside the measured table."""
        code = main(["bench", "--fast", "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        header = next(line for line in out.splitlines()
                      if "Makespan (s)" in line)
        # measured makespan column precedes everything else after
        # Workers, and the old Estimate column is out of the table
        assert header.index("Makespan (s)") < header.index("Sim total")
        assert "Estimate (s)" not in header
        assert "Analytical estimate (bin-packing fallback model):" in out


class TestProfileCommand:
    def test_profile_prints_stage_breakdown(self, capsys):
        code = main(["profile", "--fast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Per-stage simulated-time breakdown" in out
        assert "query_graph" in out
        assert "executor.execute" in out
        assert "overall accuracy:" in out

    def test_profile_artifacts_are_byte_identical(self, capsys,
                                                  tmp_path):
        """Acceptance: two same-seed runs produce byte-identical
        metric snapshots (what the CI observability job diffs)."""
        snap1 = tmp_path / "snap-1.json"
        snap2 = tmp_path / "snap-2.json"
        base1 = tmp_path / "base-1.json"
        base2 = tmp_path / "base-2.json"
        spans = tmp_path / "spans.jsonl"
        assert main(["profile", "--fast", "--snapshot", str(snap1),
                     "--baseline", str(base1),
                     "--spans", str(spans)]) == 0
        assert main(["profile", "--fast", "--snapshot", str(snap2),
                     "--baseline", str(base2)]) == 0
        capsys.readouterr()
        assert snap1.read_bytes() == snap2.read_bytes()
        assert base1.read_bytes() == base2.read_bytes()
        assert spans.stat().st_size > 0


class TestTraceCommand:
    def test_trace_prints_span_tree(self, capsys):
        code = main(["trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert "A: robe" in out
        assert "question" in out
        assert "executor.execute" in out
        assert "sim-ms" in out

    def test_trace_with_build_phase(self, capsys):
        code = main(["trace", "--build",
                     "Is there a woman standing on the grass?"])
        out = capsys.readouterr().out
        assert code == 0
        assert "aggregate.merge" in out


class TestArgumentErrors:
    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["serve", "--rate", "-1"],
        ["serve", "--rate", "0"],
        ["serve", "--burst", "0"],
        ["serve", "--scenario", "imagenet"],
        ["serve", "--max-batch", "0"],
        ["serve", "--batch-wait", "-0.5"],
        ["serve", "--deadline-ms", "0"],
        ["serve", "--workers", "banana"],
        ["serve", "--chaos", "1.5"],
    ])
    def test_serve_rejects_bad_arguments(self, argv, capsys):
        # bad serve flags must exit 2 at argparse time, never boot
        # the server with a config the admission layer would reject
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error" in capsys.readouterr().err
