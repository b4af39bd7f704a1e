"""Executor integration: validation runs before Algorithm 3.

Every ``Executor.execute`` passes its graph through layer-1 static
analysis first: the diagnostics are counted and execution proceeds,
a graph carrying ERROR diagnostics included.
"""

from repro.core import (
    ExecutorStats,
    QueryGraphExecutor,
    QuestionType,
    generate_query_graph,
)
from repro.analysis.query_validator import validate_query_graph
from repro.core import executor as executor_module
from repro.core.executor import DIAGNOSTICS_CAPACITY
from repro.core.spoc import DependencyKind, QueryGraph, SPOC, Term
from repro.memo import Memo

from tests.core.test_executor import make_merged


def broken_graph(ground="grass"):
    """A graph whose wiring is cyclic (QG002 ERROR)."""
    main = SPOC(subject=Term("dog", "dog"), predicate="be",
                object=Term(ground, ground), is_main=True,
                question_type=QuestionType.JUDGMENT)
    cond = SPOC(subject=Term("dog", "dog"), predicate="be",
                object=Term("fence", "fence"), depth=1)
    return QueryGraph(
        vertices=[main, cond],
        edges=[(0, 1, DependencyKind.S2S),
               (1, 0, DependencyKind.S2S)],
    )


class TestValidationModes:
    def test_warn_mode_records_stats_and_proceeds(self):
        stats = ExecutorStats()
        executor = QueryGraphExecutor(make_merged(), stats=stats)
        graph = generate_query_graph(
            "How many dogs are standing on the grass?"
        )
        executor.execute(graph)
        report = stats.snapshot()
        assert report.graphs_validated == 1
        assert report.validation_errors == 0

    def test_warn_mode_counts_errors_without_raising(self):
        stats = ExecutorStats()
        executor = QueryGraphExecutor(make_merged(), stats=stats)
        report = executor.validate(broken_graph())
        assert report.has_errors
        snapshot = stats.snapshot()
        assert snapshot.graphs_validated == 1
        assert snapshot.validation_errors >= 1


def diagnostics_memo(monkeypatch, capacity=DIAGNOSTICS_CAPACITY):
    """A fresh process-wide diagnostics memo for one test."""
    memo = Memo(capacity, "core.diagnostics")
    monkeypatch.setattr(executor_module, "_DIAGNOSTICS", memo)
    return memo


class TestMemoisedValidation:
    """Executors share one process-wide diagnostics memo: each
    distinct graph is validated once, yet counted and reported on
    every ask."""

    def test_every_ask_is_counted_with_the_same_numbers(self,
                                                        monkeypatch):
        stats = ExecutorStats()
        memo = diagnostics_memo(monkeypatch)
        first, second = (QueryGraphExecutor(make_merged(), stats=stats)
                         for _ in range(2))
        reports = [executor.validate(broken_graph())
                   for executor in (first, second, first)]
        assert len(memo) == 1
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

    def test_more_graphs_than_its_capacity(self, monkeypatch):
        """Distinct graphs beyond a small capacity keep the memo within
        it, and every report equals a fresh validator run."""
        memo = diagnostics_memo(monkeypatch, capacity=4)
        executor = QueryGraphExecutor(make_merged())
        for i in range(12):
            graph = broken_graph(ground=f"ground{i}")
            want = validate_query_graph(graph).diagnostics
            assert want
            assert executor.validate(graph).diagnostics == want
            assert len(memo) <= 4
        assert len(memo) == 4
