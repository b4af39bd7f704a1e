"""Tests for RP007: candidate-index discipline, epoch-free cache keys
and writes through the retiring cache API."""

import textwrap

from repro.analysis import RuleBinding
from repro.analysis.code_rules import CandidateIndexDisciplineRule
from tests.analysis.helpers import lint_source


def lint(source, path="src/repro/core/fixture.py"):
    return lint_source(textwrap.dedent(source), path,
                       bindings=(RuleBinding(CandidateIndexDisciplineRule()),))


class TestIndexMutation:
    def test_direct_add_label_fires(self):
        report = lint(
            """
            def sneak(graph, label):
                graph.candidate_index.add_label(label)
            """
        )
        assert [d.rule_id for d in report] == ["RP007"]
        assert "add_label" in next(iter(report)).message

    def test_direct_remove_label_fires(self):
        report = lint(
            """
            def sneak(self, label):
                self.graph.candidate_index.remove_label(label)
            """
        )
        assert [d.rule_id for d in report] == ["RP007"]

    def test_lookup_is_fine(self):
        report = lint(
            """
            def probe(self, label):
                return self.graph.candidate_index.match(label, 0.34)
            """
        )
        assert len(report) == 0

    def test_unrelated_add_label_is_fine(self):
        # only candidate-index receivers are in scope for the rule
        report = lint(
            """
            def annotate(store, label):
                store.add_label(label)
            """
        )
        assert len(report) == 0

    def test_allowlisted_module_is_exempt(self):
        bindings = (RuleBinding(
            CandidateIndexDisciplineRule(),
            allow=("repro/graph/model.py",),
        ),)
        report = lint_source(
            "self.candidate_index.add_label(label)\n",
            "src/repro/graph/model.py", bindings=bindings,
        )
        assert len(report) == 0


class TestEpochTaggedKeys:
    """Cache keys name what was asked, never an epoch: the cache
    retires an entry by the writes that touch what it read."""

    def test_label_only_scope_key_is_fine(self):
        report = lint(
            """
            def key_for(label):
                return ("scope", label.lower())
            """
        )
        assert len(report) == 0

    def test_constant_second_element_is_fine(self):
        report = lint(
            """
            def key_for(owner, head):
                return ("scope-poss", 7, owner, head)
            """
        )
        assert len(report) == 0

    def test_bare_kind_tag_is_fine(self):
        report = lint('key = ("path",)\n')
        assert len(report) == 0

    def test_epoch_name_fires(self):
        report = lint(
            """
            def key_for(self, label):
                epoch = self.graph.epoch
                return ("scope", epoch, label.lower())
            """
        )
        assert [d.rule_id for d in report] == ["RP007"]
        assert "epoch" in next(iter(report)).message

    def test_epoch_call_fires(self):
        report = lint(
            """
            def key_for(self, a, b):
                return ("path", a, b, self._observe_epoch())
            """
        )
        assert [d.rule_id for d in report] == ["RP007"]

    def test_planner_node_keys_carry_no_epoch_either(self):
        # the batch planner (the §V-B scheduler) keys nodes outside
        # the executor and the cache; the rule holds there too
        report = lint(
            """
            def node_key(term, epoch):
                return ("scope", epoch, term.head.lower())
            """,
            path="src/repro/core/scheduler.py",
        )
        assert [d.rule_id for d in report] == ["RP007"]

    def test_epoch_in_neighborhood_key_fires(self):
        report = lint(
            """
            def nbr_key(graph, head):
                return ("nbr", graph.epoch, "out", head)
            """
        )
        assert [d.rule_id for d in report] == ["RP007"]
        assert "'nbr'" in next(iter(report)).message

    def test_neighborhood_key_without_epoch_is_fine(self):
        report = lint('key = ("nbr", "out", head.lower())\n')
        assert len(report) == 0

    def test_unrelated_tuples_are_fine(self):
        report = lint(
            """
            POINT = ("x", "y")
            ROW = ("scoped", 1)
            NEAR = ("nbrs", epoch, "out", "dog")
            """
        )
        assert len(report) == 0


class TestRetiringStoreWrites:
    def test_raw_scope_store_put_fires(self):
        report = lint(
            """
            def sneak(self, key, value):
                self.cache.scope.put(key, value)
            """
        )
        assert [d.rule_id for d in report] == ["RP007"]
        assert "retiring cache API" in next(iter(report)).message

    def test_raw_path_store_put_fires(self):
        report = lint("cache.path.put(key, pairs)\n")
        assert [d.rule_id for d in report] == ["RP007"]

    def test_raw_neighborhood_store_put_fires(self):
        for store in ("nbr", "kind"):
            report = lint(f"self.cache.{store}.put(key, (ids, edges))\n",
                          path="src/repro/core/executor.py")
            assert [d.rule_id for d in report] == ["RP007"]
            assert f"{store}_get_or_compute" in next(iter(report)).hint

    def test_cache_api_is_fine(self):
        report = lint(
            """
            def store(self, key, compute, stamp):
                self.cache.scope_get_or_compute(key, compute, stamp)
                self.cache.path_get_or_compute(key, compute, stamp)
                self.cache.nbr_get_or_compute(key, compute, stamp)
                self.cache.kind_get_or_compute(key, compute, stamp)
            """
        )
        assert len(report) == 0

    def test_the_cache_module_owns_its_stores(self):
        report = lint("self.scope.put(key, (value, deps))\n",
                      path="src/repro/core/cache.py")
        assert len(report) == 0


class TestRepoIsClean:
    def test_package_source_passes_rp007(self, source_lint_report):
        # the shared report runs the default bindings, RP007 included
        assert not [d for d in source_lint_report if d.rule_id == "RP007"]
