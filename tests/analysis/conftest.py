"""Shared fixtures for the static-analysis tests."""

import pytest

from repro.analysis import default_source_root, lint_paths


@pytest.fixture(scope="session")
def source_lint_report():
    """One lint of the shipped package source under the default rule
    bindings, shared by every test that checks the real tree is clean
    (parsing and analysing all of ``src/`` takes seconds)."""
    return lint_paths([default_source_root()])
