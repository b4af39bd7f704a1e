"""Tests for the repo-invariant linter (layer 2).

Each ``RP###`` rule must fire on a fixture seeded with its violation
and stay silent on the real package source (the repo itself is the
negative fixture — ``repro lint-code`` gates CI on it).
"""

import textwrap

from repro.analysis import (
    RuleBinding,
    default_bindings,
    lint_paths,
)
from repro.analysis.code_rules import (
    LockDisciplineRule,
    MutableDefaultRule,
    OrderedIterationRule,
    SeededRngRule,
    WallClockRule,
)
from tests.analysis.helpers import by_rule, lint_source


def lint_fixture(source, rule, path="src/repro/core/fixture.py"):
    """Lint one fixture under a single unrestricted rule binding."""
    return lint_source(textwrap.dedent(source), path,
                       bindings=(RuleBinding(rule),))


class TestWallClockRule:
    def test_time_time_fires(self):
        report = lint_fixture(
            """
            import time

            def stamp():
                return time.time()
            """,
            WallClockRule(),
        )
        assert [d.rule_id for d in report] == ["RP001"]
        assert "time.time" in report.diagnostics[0].message

    def test_aliased_perf_counter_fires(self):
        report = lint_fixture(
            """
            from time import perf_counter as pc

            def stamp():
                return pc()
            """,
            WallClockRule(),
        )
        assert len(by_rule(report, "RP001")) == 1

    def test_datetime_now_fires(self):
        report = lint_fixture(
            """
            import datetime

            def today():
                return datetime.datetime.now()
            """,
            WallClockRule(),
        )
        assert len(by_rule(report, "RP001")) == 1

    def test_simclock_use_is_clean(self):
        report = lint_fixture(
            """
            def run(clock):
                clock.charge("pos_tag")
                return clock.elapsed
            """,
            WallClockRule(),
        )
        assert len(report) == 0


class TestSeededRngRule:
    def test_unseeded_default_rng_fires(self):
        report = lint_fixture(
            """
            import numpy as np

            def make():
                return np.random.default_rng()
            """,
            SeededRngRule(),
        )
        assert len(by_rule(report, "RP002")) == 1

    def test_seeded_default_rng_is_clean(self):
        report = lint_fixture(
            """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
            """,
            SeededRngRule(),
        )
        assert len(report) == 0

    def test_global_numpy_rng_fires(self):
        report = lint_fixture(
            """
            import numpy as np

            def sample():
                return np.random.randint(0, 10)
            """,
            SeededRngRule(),
        )
        assert len(by_rule(report, "RP002")) == 1

    def test_stdlib_global_random_fires(self):
        report = lint_fixture(
            """
            import random

            def flip():
                return random.random()
            """,
            SeededRngRule(),
        )
        assert len(by_rule(report, "RP002")) == 1


class TestLockDisciplineRule:
    def test_unguarded_mutation_fires(self):
        report = lint_fixture(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    self._count += 1
            """,
            LockDisciplineRule(),
        )
        assert len(by_rule(report, "RP003")) == 1
        assert "Counter.bump" in report.diagnostics[0].message

    def test_guarded_mutation_is_clean(self):
        report = lint_fixture(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1
            """,
            LockDisciplineRule(),
        )
        assert len(report) == 0

    def test_unguarded_container_mutator_fires(self):
        report = lint_fixture(
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def register(self, item):
                    self._items.append(item)
            """,
            LockDisciplineRule(),
        )
        assert len(by_rule(report, "RP003")) == 1

    def test_private_helper_is_exempt(self):
        report = lint_fixture(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def _bump_locked(self):
                    self._count += 1
            """,
            LockDisciplineRule(),
        )
        assert len(report) == 0

    def test_class_without_lock_is_exempt(self):
        report = lint_fixture(
            """
            class Plain:
                def __init__(self):
                    self._count = 0

                def bump(self):
                    self._count += 1
            """,
            LockDisciplineRule(),
        )
        assert len(report) == 0


class TestOrderedIterationRule:
    def test_bare_set_literal_iteration_fires(self):
        report = lint_fixture(
            """
            def order(a, b):
                for item in {a, b}:
                    yield item
            """,
            OrderedIterationRule(),
        )
        assert len(by_rule(report, "RP004")) == 1

    def test_set_call_in_comprehension_fires(self):
        report = lint_fixture(
            """
            def order(items):
                return [x for x in set(items)]
            """,
            OrderedIterationRule(),
        )
        assert len(by_rule(report, "RP004")) == 1

    def test_sorted_set_is_clean(self):
        report = lint_fixture(
            """
            def order(items):
                for item in sorted(set(items)):
                    yield item
            """,
            OrderedIterationRule(),
        )
        assert len(report) == 0


class TestMutableDefaultRule:
    def test_list_default_fires(self):
        report = lint_fixture(
            """
            def collect(into=[]):
                return into
            """,
            MutableDefaultRule(),
        )
        assert len(by_rule(report, "RP005")) == 1

    def test_dict_call_default_fires(self):
        report = lint_fixture(
            """
            def collect(into=dict()):
                return into
            """,
            MutableDefaultRule(),
        )
        assert len(by_rule(report, "RP005")) == 1

    def test_none_default_is_clean(self):
        report = lint_fixture(
            """
            def collect(into=None):
                return into or []
            """,
            MutableDefaultRule(),
        )
        assert len(report) == 0


class TestBindings:
    def test_allowlist_exempts_file(self):
        binding = RuleBinding(WallClockRule(),
                              allow=("repro/simtime.py",))
        assert not binding.applies_to("src/repro/simtime.py")
        assert binding.applies_to("src/repro/core/executor.py")

    def test_path_scope_restricts_rule(self):
        binding = RuleBinding(LockDisciplineRule(),
                              paths=("repro/core/cache.py",))
        assert binding.applies_to("src/repro/core/cache.py")
        assert not binding.applies_to("src/repro/core/answer.py")

    def test_default_bindings_cover_all_rules(self):
        ids = {b.rule.rule_id for b in default_bindings()}
        assert ids == {"RP001", "RP002", "RP003", "RP004", "RP005",
                       "RP006", "RP007"}


class TestSyntaxError:
    def test_unparseable_source_reports_rp000(self, tmp_path):
        broken = tmp_path / "x.py"
        broken.write_text("def broken(:\n")
        report = lint_paths([broken])
        assert [d.rule_id for d in report] == ["RP000"]
        assert report.has_errors


class TestRealRepository:
    def test_package_source_is_clean(self, source_lint_report):
        """The acceptance gate: zero diagnostics on the shipped tree."""
        report = source_lint_report
        assert len(report) == 0, report.render()
