"""Executor integration: validation runs before Algorithm 3.

``ExecutorConfig.validation`` plumbs layer-1 static analysis into
``Executor.execute``: ``warn`` records counts and proceeds,
``strict`` fail-fasts with :class:`QueryValidationError`, ``off``
skips the validator entirely.
"""

import pytest

from repro.core import (
    ExecutorConfig,
    ExecutorStats,
    QueryGraphExecutor,
    QuestionType,
    generate_query_graph,
)
from repro.analysis.query_validator import validate_query_graph
from repro.core.executor import ExecutorMemo
from repro.core.spoc import DependencyKind, QueryGraph, SPOC, Term
from repro.errors import QueryValidationError

from tests.core.test_executor import make_merged


def broken_graph():
    """A graph whose wiring is cyclic (QG002 ERROR)."""
    main = SPOC(subject=Term("dog", "dog"), predicate="be",
                object=Term("grass", "grass"), is_main=True,
                question_type=QuestionType.JUDGMENT)
    cond = SPOC(subject=Term("dog", "dog"), predicate="be",
                object=Term("fence", "fence"), depth=1)
    return QueryGraph(
        vertices=[main, cond],
        edges=[(0, 1, DependencyKind.S2S),
               (1, 0, DependencyKind.S2S)],
    )


class TestValidationModes:
    def test_unknown_mode_is_rejected_at_construction(self):
        with pytest.raises(ValueError):
            QueryGraphExecutor(
                make_merged(),
                config=ExecutorConfig(validation="paranoid"),
            )

    def test_strict_mode_rejects_broken_graph(self):
        executor = QueryGraphExecutor(
            make_merged(), config=ExecutorConfig(validation="strict")
        )
        with pytest.raises(QueryValidationError) as info:
            executor.execute(broken_graph())
        assert info.value.diagnostics is not None
        assert info.value.diagnostics.has_errors

    def test_strict_mode_passes_clean_graph(self):
        executor = QueryGraphExecutor(
            make_merged(), config=ExecutorConfig(validation="strict")
        )
        graph = generate_query_graph("Is there a dog near the fence?")
        answer = executor.execute(graph)
        assert answer.value in ("yes", "no")

    def test_warn_mode_records_stats_and_proceeds(self):
        stats = ExecutorStats()
        executor = QueryGraphExecutor(
            make_merged(), stats=stats,
            config=ExecutorConfig(validation="warn"),
        )
        graph = generate_query_graph(
            "How many dogs are standing on the grass?"
        )
        executor.execute(graph)
        report = stats.snapshot()
        assert report.graphs_validated == 1
        assert report.validation_errors == 0

    def test_warn_mode_counts_errors_without_raising(self):
        stats = ExecutorStats()
        executor = QueryGraphExecutor(
            make_merged(), stats=stats,
            config=ExecutorConfig(validation="warn"),
        )
        report = executor.validate(broken_graph())
        assert report.has_errors
        snapshot = stats.snapshot()
        assert snapshot.graphs_validated == 1
        assert snapshot.validation_errors >= 1

    def test_off_mode_skips_validation(self):
        stats = ExecutorStats()
        executor = QueryGraphExecutor(
            make_merged(), stats=stats,
            config=ExecutorConfig(validation="off"),
        )
        graph = generate_query_graph("Is there a dog near the fence?")
        executor.execute(graph)
        assert stats.snapshot().graphs_validated == 0


class TestMemoisedValidation:
    """Executors sharing one ``ExecutorMemo`` validate each distinct
    graph once, yet count, report and (in strict mode) raise on every
    ask."""

    def test_every_ask_is_counted_with_the_same_numbers(self):
        stats = ExecutorStats()
        memo = ExecutorMemo()
        first, second = (QueryGraphExecutor(make_merged(), stats=stats,
                                            memo=memo)
                         for _ in range(2))
        reports = [executor.validate(broken_graph())
                   for executor in (first, second, first)]
        assert memo.sizes()[1] == 1
        assert len({len(r.errors) for r in reports}) == 1
        snapshot = stats.snapshot()
        assert snapshot.graphs_validated == 3
        assert snapshot.validation_errors == 3 * len(reports[0].errors)

    def test_a_caller_cannot_change_the_next_report(self):
        executor = QueryGraphExecutor(make_merged())
        report = executor.validate(broken_graph())
        fresh = validate_query_graph(broken_graph())
        assert report.diagnostics == fresh.diagnostics
        assert fresh.diagnostics
        report.diagnostics.clear()
        assert executor.validate(broken_graph()).diagnostics == \
            fresh.diagnostics

    def test_strict_mode_raises_on_every_ask(self):
        executor = QueryGraphExecutor(
            make_merged(), config=ExecutorConfig(validation="strict"))
        for _ in range(3):
            with pytest.raises(QueryValidationError):
                executor.execute(broken_graph())
