"""Shared fixtures for the code-linter rule tests."""

import ast

from repro.analysis import CodeRule, DiagnosticReport


def lint_source(source, path, bindings):
    """Run the per-file rules of ``bindings`` over one module's source
    (the per-file half of :func:`repro.analysis.lint_paths`)."""
    tree = ast.parse(source, filename=path)
    report = DiagnosticReport()
    for binding in bindings:
        if isinstance(binding.rule, CodeRule) and binding.applies_to(path):
            report.extend(binding.rule.check(tree, path))
    return report


def by_rule(report, rule_id):
    """The report's diagnostics of one rule, in report order."""
    return [d for d in report.diagnostics if d.rule_id == rule_id]
