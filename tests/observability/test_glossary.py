"""Anti-drift tests for the shared metric/bench glossary.

Three artifacts describe the same metric families — the registering
source code, :mod:`tests.observability.glossary`, and the operator
runbook ``docs/OPERATIONS.md`` — and these tests hold them together:
a family added in code without a glossary entry, or a glossary entry
missing from the runbook, fails here instead of silently drifting.
"""

import ast
import re
from pathlib import Path

from repro.core.stats import ExecutorStats
from repro.observability import BENCH_GLOSSARY, explain_lines
from tests.observability.glossary import METRIC_GLOSSARY

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"
OPERATIONS = REPO_ROOT / "docs" / "OPERATIONS.md"
ADMISSION = SRC_ROOT / "serve" / "admission.py"


def registered_families():
    """Every ``svqa_*`` string literal in the package source."""
    families = set()
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) \
                    and node.value.startswith("svqa_"):
                families.add(node.value)
    return families


def admission_reasons():
    """Every ``reason`` an ``AdmissionDecision`` is built with in
    :mod:`repro.serve.admission` (the ``svqa_admission_total``
    ``outcome`` label values)."""
    tree = ast.parse(ADMISSION.read_text(encoding="utf-8"))
    reasons = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) == "AdmissionDecision":
            args = node.args[1:2] + [kw.value for kw in node.keywords
                                     if kw.arg == "reason"]
            for arg in args:
                assert isinstance(arg, ast.Constant), ast.dump(arg)
                reasons.add(arg.value)
    return reasons


def outcome_list(text):
    """``admitted/rate-limited`` or ``outcomes `a` / `b``` as a set."""
    words = text.replace("outcomes", "").split("/")
    return {word.strip(" `") for word in words if word.strip(" `")}


class TestMetricGlossary:
    def test_every_registered_family_has_a_definition(self):
        missing = registered_families() - set(METRIC_GLOSSARY)
        assert not missing, (
            f"metric families registered in code but absent from "
            f"METRIC_GLOSSARY: {sorted(missing)}"
        )

    def test_every_definition_is_registered_somewhere(self):
        orphaned = set(METRIC_GLOSSARY) - registered_families()
        assert not orphaned, (
            f"METRIC_GLOSSARY entries no code registers: "
            f"{sorted(orphaned)}"
        )

    def test_operations_runbook_covers_every_family(self):
        text = OPERATIONS.read_text(encoding="utf-8")
        missing = [name for name in METRIC_GLOSSARY if name not in text]
        assert not missing, (
            f"docs/OPERATIONS.md does not mention: {missing}"
        )

    def test_runbook_names_only_glossary_families(self):
        """The reverse direction: a family deleted from the code and
        the glossary must not linger in the runbook either."""
        text = OPERATIONS.read_text(encoding="utf-8")
        named = set(re.findall(r"\bsvqa_[a-z0-9_]+", text))
        stale = named - set(METRIC_GLOSSARY)
        assert not stale, (
            f"docs/OPERATIONS.md names families no code registers: "
            f"{sorted(stale)}"
        )

    def test_stale_scope_drops_mean_write_retirement(self):
        """The family keeps its name, but counts entries retired by a
        write that could change them, not an epoch-wide flush: the
        glossary, the bench row behind ``--explain``, the runbook row
        and the exposition's ``# HELP`` line say the same."""
        name = "svqa_stale_scope_drops_total"
        definition = METRIC_GLOSSARY[name]
        row = next(line for line in
                   OPERATIONS.read_text(encoding="utf-8").splitlines()
                   if line.startswith(f"| `{name}`"))
        assert row.rstrip(" |").endswith(definition)
        help_line = next(
            line for line in
            ExecutorStats().registry.to_prometheus().splitlines()
            if line.startswith(f"# HELP {name} "))
        for text in (definition, BENCH_GLOSSARY["stale scope drops"],
                     row, help_line):
            assert "write" in text and "epoch" not in text, text

    def test_admission_outcomes_match_the_controller(self):
        """The documented ``outcome`` values of ``svqa_admission_total``
        are exactly the reasons ``AdmissionController`` returns, so an
        operator's ``outcome="..."`` query never selects nothing."""
        reasons = admission_reasons()
        assert "admitted" in reasons and len(reasons) > 1
        definition = METRIC_GLOSSARY["svqa_admission_total"]
        glossed = re.search(r"\(([^)]*)\)", definition)
        assert glossed is not None, definition
        assert outcome_list(glossed.group(1)) == reasons
        text = OPERATIONS.read_text(encoding="utf-8")
        documented = set(re.findall(
            r'svqa_admission_total\{outcome="([^"]+)"\}', text))
        for group in re.findall(r"svqa_admission_total`[^(\n]*\(([^)]*)\)",
                                text):
            documented |= outcome_list(group)
        assert documented == reasons

    def test_definitions_are_one_line_and_nonempty(self):
        for name, definition in {**METRIC_GLOSSARY,
                                 **BENCH_GLOSSARY}.items():
            assert definition.strip(), f"empty definition for {name}"
            assert "\n" not in definition, \
                f"multi-line definition for {name}"


class TestExplainOutput:
    def test_explain_lines_cover_the_bench_glossary(self):
        lines = explain_lines()
        assert len(lines) == len(BENCH_GLOSSARY)
        joined = "\n".join(lines)
        for name in BENCH_GLOSSARY:
            assert re.search(rf"^\s+{re.escape(name)}\s\s+", joined,
                             re.MULTILINE), f"{name} not rendered"
