"""Project rules RP008-RP011 over the concurrency fixtures.

Each rule must fire exactly at the planted sites in
``tests/analysis/fixtures/`` and stay silent on the clean fixture and
on the shipped source tree (post-triage).
"""

import ast
from pathlib import Path

from repro.analysis.code_linter import (
    LOCK_MODULES,
    RuleBinding,
    default_bindings,
    default_project_bindings,
    default_source_root,
    lint_paths,
)
from repro.analysis.code_rules import LockDisciplineRule
from repro.analysis.concurrency import (
    BlockingUnderLockRule,
    DispatchUnderLockRule,
    LockOrderAnalysis,
    LockOrderInversionRule,
    LockPublicationRule,
)
from tests.analysis.helpers import by_rule

FIXTURES = Path(__file__).parent / "fixtures"


def _analyze(*names: str) -> LockOrderAnalysis:
    trees = {}
    for name in names:
        path = FIXTURES / name
        trees[str(path)] = ast.parse(path.read_text())
    return LockOrderAnalysis(trees)


def _lines(diagnostics) -> list[int]:
    return sorted(d.location.line for d in diagnostics)


class TestLockOrderInversionRule:
    def test_inversion_fixture_fires_once(self):
        analysis = _analyze("lock_inversion.py")
        found = LockOrderInversionRule().check_project(analysis)
        assert len(found) == 1
        assert found[0].rule_id == "RP008"
        assert "AccountA._lock" in found[0].message
        assert "AccountB._lock" in found[0].message

    def test_clean_fixture_is_silent(self):
        analysis = _analyze("clean_module.py")
        assert LockOrderInversionRule().check_project(analysis) == []


class TestBlockingUnderLockRule:
    def test_all_four_blocking_sites_fire(self):
        analysis = _analyze("blocking_under_lock.py")
        found = BlockingUnderLockRule().check_project(analysis)
        assert [d.rule_id for d in found] == ["RP009"] * 4
        messages = " ".join(d.message for d in found)
        assert ".result(" in messages
        assert ".get(" in messages
        assert ".wait(" in messages
        assert ".join(" in messages

    def test_condition_wait_on_own_lock_is_exempt(self):
        # clean_module.Tidy.await_version waits on a Condition built
        # over the very lock it holds -- the one legitimate shape
        analysis = _analyze("clean_module.py")
        assert BlockingUnderLockRule().check_project(analysis) == []


class TestDispatchUnderLockRule:
    def test_callback_invocations_under_lock_fire(self):
        analysis = _analyze("callback_under_lock.py")
        found = DispatchUnderLockRule().check_project(analysis)
        assert len(found) == 2
        assert {d.rule_id for d in found} == {"RP010"}

    def test_callback_after_release_is_silent(self):
        analysis = _analyze("clean_module.py")
        assert DispatchUnderLockRule().check_project(analysis) == []


class TestLockPublicationRule:
    def test_return_argument_and_foreign_acquire_fire(self):
        analysis = _analyze("callback_under_lock.py")
        found = LockPublicationRule().check_project(analysis)
        assert len(found) == 3
        assert {d.rule_id for d in found} == {"RP011"}

    def test_condition_alias_is_not_publication(self):
        # threading.Condition(self._lock) in __init__ is the sanctioned
        # way to share a lock with its own condition variable
        analysis = _analyze("clean_module.py")
        assert LockPublicationRule().check_project(analysis) == []

    def test_clock_attribute_is_not_a_lock(self):
        # "clock" contains "lock" as a substring; the name heuristic
        # must match word segments only, so Scheduler.clock — stored in
        # __init__ and handed to a callback — stays publishable
        analysis = _analyze("clean_module.py")
        klass = next(k for m in analysis.modules.values()
                     for k in m.classes.values()
                     if k.name == "Scheduler")
        assert "clock" not in klass.locks
        assert "blocked" not in klass.locks
        assert LockPublicationRule().check_project(analysis) == []


class TestFixturesThroughLinter:
    def test_lint_paths_reports_every_planted_site(self):
        bindings = [RuleBinding(rule()) for rule in (
            LockOrderInversionRule, BlockingUnderLockRule,
            DispatchUnderLockRule, LockPublicationRule)]
        report = lint_paths([FIXTURES], bindings=[],
                            project_bindings=bindings)
        found = {rid: by_rule(report, rid)
                   for rid in ("RP008", "RP009", "RP010", "RP011")}
        assert len(found["RP008"]) == 1
        assert len(found["RP009"]) == 4
        assert len(found["RP010"]) == 2
        assert len(found["RP011"]) == 3
        clean = str(FIXTURES / "clean_module.py")
        assert all(d.location.file != clean for d in report)


class TestDefaultProjectBindings:
    def test_bindings_cover_rp008_to_rp011(self):
        ids = {b.rule.rule_id for b in default_project_bindings()}
        assert ids == {"RP008", "RP009", "RP010", "RP011"}

    def test_lock_modules_exist_on_disk(self):
        root = default_source_root().parent
        for module in LOCK_MODULES:
            assert (root / module).is_file(), module

    def test_lock_modules_are_the_modules_that_make_locks(self):
        """``LOCK_MODULES`` names exactly the ``src/`` modules that make
        a lock (a ``wrap_lock`` call or a ``SharedLock``), apart from
        the seam itself, and RP003 governs none outside it."""
        package = default_source_root()
        making = set()
        for path in sorted(package.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Call) and getattr(
                        node.func, "id", getattr(node.func, "attr", None)
                ) in ("wrap_lock", "SharedLock"):
                    making.add(path.relative_to(package.parent).as_posix())
        making.discard("repro/locks.py")
        assert making == set(LOCK_MODULES)
        (discipline,) = [binding for binding in default_bindings()
                         if isinstance(binding.rule, LockDisciplineRule)]
        assert set(discipline.paths) <= making


class TestRealRepositoryPostTriage:
    def test_shipped_tree_has_zero_project_findings(self,
                                                    source_lint_report):
        """Satellite 1 acceptance: every finding fixed or allowlisted."""
        report = source_lint_report
        concurrency = [d for d in report
                       if d.rule_id in ("RP008", "RP009", "RP010", "RP011")]
        assert concurrency == [], report.render()
