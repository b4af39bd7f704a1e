"""Tests for the shared diagnostic model."""

from repro.analysis import (
    Diagnostic,
    DiagnosticReport,
    Location,
    Severity,
)
from tests.analysis.helpers import by_rule


def diag(rule_id="QG001", severity=Severity.ERROR, **loc):
    return Diagnostic(rule_id, severity, Location(**loc),
                      f"finding from {rule_id}")


class TestSeverity:
    def test_ordering_lets_max_pick_worst(self):
        assert max(Severity.INFO, Severity.ERROR,
                   Severity.WARNING) is Severity.ERROR

    def test_str_is_the_name(self):
        assert str(Severity.WARNING) == "WARNING"


class TestLocation:
    def test_code_location_renders_file_line_column(self):
        loc = Location(file="src/x.py", line=12, column=4)
        assert str(loc) == "src/x.py:12:4"

    def test_graph_location_renders_vertex_and_edge(self):
        assert str(Location(vertex=2)) == "v2"
        assert str(Location(edge=(0, 3))) == "edge v0->v3"

    def test_empty_location_is_graph_wide(self):
        assert str(Location()) == "<graph>"


class TestDiagnostic:
    def test_render_includes_rule_severity_and_hint(self):
        d = Diagnostic("RP001", Severity.ERROR,
                       Location(file="a.py", line=3),
                       "wall-clock read", hint="use SimClock")
        text = d.render()
        assert "a.py:3" in text
        assert "ERROR" in text
        assert "[RP001]" in text
        assert "hint: use SimClock" in text

    def test_render_omits_empty_hint(self):
        assert "hint" not in diag().render()


class TestDiagnosticReport:
    def test_counts_and_gate(self):
        report = DiagnosticReport()
        report.add(diag(severity=Severity.ERROR))
        report.add(diag("QG008", Severity.WARNING))
        report.add(diag("QG008", Severity.WARNING))
        assert report.count(Severity.ERROR) == 1
        assert report.count(Severity.WARNING) == 2
        assert len(report.errors) == 1
        assert len(report.warnings) == 2
        assert report.has_errors
        assert len(report) == 3

    def test_empty_report_does_not_gate(self):
        assert not DiagnosticReport().has_errors

    def test_extend_accepts_report_and_list(self):
        report = DiagnosticReport()
        other = DiagnosticReport([diag()])
        report.extend(other)
        report.extend([diag("QG002")])
        assert len(report) == 2

    def test_by_rule_and_rule_ids(self):
        report = DiagnosticReport(
            [diag("QG002"), diag("QG001"), diag("QG002")]
        )
        assert len(by_rule(report, "QG002")) == 2
        assert report.rule_ids() == ["QG002", "QG001"]

    def test_sorted_puts_errors_first(self):
        report = DiagnosticReport([
            diag("QG008", Severity.WARNING, vertex=0),
            diag("QG001", Severity.ERROR, vertex=5),
        ])
        ordered = report.sorted()
        assert [d.rule_id for d in ordered] == ["QG001", "QG008"]

    def test_summary_tallies_by_severity(self):
        report = DiagnosticReport([diag(), diag("X", Severity.WARNING)])
        assert report.summary() == "1 error(s), 1 warning(s), 0 note(s)"


class TestJsonSerialization:
    def test_location_round_trips(self):
        loc = Location(file="src/x.py", line=3, column=7,
                       vertex=2, edge=(1, 4))
        assert Location.from_dict(loc.to_dict()) == loc
        assert Location.from_dict(Location().to_dict()) == Location()

    def test_diagnostic_round_trips(self):
        original = diag("QG003", Severity.WARNING, file="src/x.py",
                        line=9)
        rebuilt = Diagnostic.from_dict(original.to_dict())
        assert rebuilt == original

    def test_report_round_trips(self):
        report = DiagnosticReport([
            diag("QG001", Severity.ERROR, vertex=1),
            diag("QG008", Severity.WARNING, file="src/x.py", line=2),
            diag("QG009", Severity.INFO),
        ])
        data = report.to_dict()
        assert data["errors"] == 1
        assert data["warnings"] == 1
        assert data["notes"] == 1
        rebuilt = DiagnosticReport.from_dict(data)
        assert list(rebuilt) == list(report)

    def test_to_json_key_order_is_stable(self):
        report = DiagnosticReport([diag(file="src/x.py", line=1)])
        first = report.to_json()
        second = DiagnosticReport.from_dict(report.to_dict()).to_json()
        assert first == second
        assert first.index('"errors"') < first.index('"warnings"')
        assert first.index('"warnings"') < first.index('"diagnostics"')

    def test_empty_report_to_json(self):
        import json

        data = json.loads(DiagnosticReport().to_json())
        assert data == {"errors": 0, "warnings": 0, "notes": 0,
                        "diagnostics": []}
