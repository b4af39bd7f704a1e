"""Tests for RP006: fault-site discipline (resilience registry)."""

import textwrap

from repro.analysis import RuleBinding
from repro.analysis.code_rules import FaultSiteDisciplineRule
from tests.analysis.helpers import lint_source


def lint(source, path="src/repro/core/fixture.py"):
    return lint_source(textwrap.dedent(source), path,
                       bindings=(RuleBinding(FaultSiteDisciplineRule()),))


class TestSilentSwallow:
    def test_except_exception_pass_fires(self):
        report = lint(
            """
            def load():
                try:
                    risky()
                except Exception:
                    pass
            """
        )
        assert [d.rule_id for d in report] == ["RP006"]

    def test_bare_except_continue_fires(self):
        report = lint(
            """
            def drain(items):
                for item in items:
                    try:
                        handle(item)
                    except:
                        continue
            """
        )
        assert [d.rule_id for d in report] == ["RP006"]

    def test_handled_exception_is_fine(self):
        report = lint(
            """
            def load(events):
                try:
                    risky()
                except Exception as exc:
                    events.append(str(exc))
            """
        )
        assert len(report) == 0

    def test_specific_exception_pass_is_fine(self):
        # narrow catches express intent; RP006 only bans the blanket ones
        report = lint(
            """
            def load():
                try:
                    risky()
                except KeyError:
                    pass
            """
        )
        assert len(report) == 0


class TestFaultSiteLiterals:
    def test_unregistered_site_in_guard_call_fires(self):
        report = lint(
            """
            def guarded(self):
                return self.resilience.call("executor.mtach", "k",
                                            lambda: 1)
            """
        )
        assert [d.rule_id for d in report] == ["RP006"]
        assert "executor.mtach" in next(iter(report)).message

    def test_registered_site_is_fine(self):
        report = lint(
            """
            def guarded(self):
                return self.resilience.call("executor.match", "k",
                                            lambda: 1)
            """
        )
        assert len(report) == 0

    def test_injector_check_is_also_guarded(self):
        report = lint(
            """
            def probe(injector):
                injector.check("cache.scpoe", "k")
            """
        )
        assert [d.rule_id for d in report] == ["RP006"]

    def test_unrelated_receivers_are_ignored(self):
        # .call on non-resilience receivers is not a guard call
        report = lint(
            """
            def invoke(rpc):
                return rpc.call("some.random.method", 1)
            """
        )
        assert len(report) == 0

    def test_dynamic_site_names_are_ignored(self):
        report = lint(
            """
            def guarded(self, site):
                return self.resilience.call(site, "k", lambda: 1)
            """
        )
        assert len(report) == 0


class TestRepoIsClean:
    def test_package_source_has_no_rp006_errors(self, source_lint_report):
        assert not [d for d in source_lint_report if d.rule_id == "RP006"]
