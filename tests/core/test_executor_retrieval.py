"""Executor-side tests for the embedding score memo and the two
satellite bugfixes that rode along with it.

* ``_apply_constraint`` used to group pairs by case-sensitive label
  and hard-code its ``0.5`` cosine floor — the mixed-case regression
  here fails on the old code;
* ``_be_pairs`` used to call ``edges_between`` twice per matched
  identity pair (it now reads each paired object's in-edges once);
* through the score memo, answers must stay byte-identical to the
  linear-scan oracle (:class:`tests.core.oracles.LinearScores`) while
  its ``embed_score`` charges split into ``fresh + probes``.
"""

from repro.core import (
    ExecutorConfig,
    ExecutorStats,
    QueryGraphExecutor,
    QuestionType,
    SPOC,
    Term,
    generate_query_graph,
)
from repro.simtime import SimClock
from tests.core.oracles import LinearScores
from tests.core.test_executor import make_merged

QUESTIONS = [
    "Is there a dog near the fence?",
    "How many dogs are standing on the grass?",
    "Is there a cat near the grass?",
    "What kind of animal is standing on the grass?",
    "Is there a fence near the grass?",
]


def counting_spoc(constraint, answer_role="subject"):
    return SPOC(
        subject=Term(text="dog", head="dog"), predicate="standing on",
        object=Term(text="grass", head="grass"), clause_index=0,
        depth=0, is_main=True, question_type=QuestionType.COUNTING,
        answer_role=answer_role, constraint=constraint,
        source_text="constraint test",
    )


class TestConstraintBugfixes:
    def make_mixed_case_pairs(self, executor):
        """Relation pairs whose subject labels differ only by case —
        semantically one group, one per distinct image."""
        from repro.graph import RelationPair

        graph = executor.graph
        grass = next(v for v in graph.vertices()
                     if v.label == "grass" and
                     v.props.get("kind") == "instance")
        pairs = []
        for offset, label in enumerate(["Dog", "dog", "dog"]):
            v = graph.add_vertex(label, {"kind": "instance",
                                         "image_id": 100 + offset})
            edge = graph.add_edge(v.id, grass.id, "standing on",
                                  {"image_id": 100 + offset})
            pairs.append(RelationPair(v, edge, grass))
        return pairs

    def test_mixed_case_labels_group_together(self):
        """Regression: the old code grouped by raw label, so "Dog"
        and "dog" split into two groups and "most" kept only the
        lowercase majority."""
        executor = QueryGraphExecutor(make_merged())
        pairs = self.make_mixed_case_pairs(executor)
        assert len(pairs) == 3
        kept = executor._apply_constraint(counting_spoc("most"), pairs)
        # one case-folded group of three distinct images: everything
        # survives "most frequently"; the old case-sensitive grouping
        # dropped the capitalized pair
        assert len(kept) == 3

    def test_threshold_lifted_to_config(self):
        executor = QueryGraphExecutor(
            make_merged(),
            config=ExecutorConfig(constraint_threshold=2.0),
        )
        pairs = self.make_mixed_case_pairs(executor)
        # an unreachable floor disables constraint filtering entirely
        assert executor._apply_constraint(counting_spoc("most"),
                                          pairs) == pairs

    def test_default_threshold_unchanged(self):
        assert ExecutorConfig().constraint_threshold == 0.5


class TestBePairsSingleScan:
    def test_each_paired_object_is_scanned_once(self):
        executor = QueryGraphExecutor(make_merged())
        graph = executor.graph
        a, b, c = (graph.add_vertex("sofa", {"kind": "instance",
                                             "image_id": 50})
                   for _ in range(3))
        graph.add_edge(a.id, b.id, "next to", {"image_id": 50})
        calls = []
        real = graph.in_edges

        def counted(vertex_id):
            calls.append(vertex_id)
            return real(vertex_id)

        graph.in_edges = counted
        sofas = (a.id, b.id, c.id)
        try:
            pairs = executor._be_pairs(sofas, sofas)
        finally:
            graph.in_edges = real
        # a pairs with b over their edge; b and c with a, virtually
        assert [(p.subject.id, p.edge.label, p.object.id)
                for p in pairs] == [(a.id, "next to", b.id),
                                    (b.id, "be", a.id), (c.id, "be", a.id)]
        # the old code scanned edges_between twice per pair (once to
        # test, once to index), then once; now each paired object's
        # in-edges are read once, however many subjects pair with it
        assert sorted(calls) == [a.id, b.id]


def run_questions(scores=None):
    """Run :data:`QUESTIONS` through the score memo, or through
    ``scores`` (the linear-scan oracle) in its place."""
    executor = QueryGraphExecutor(
        make_merged(), clock=SimClock(), stats=ExecutorStats(),
    )
    if scores is not None:
        executor._score_memo = scores
    answers = [executor.execute(generate_query_graph(q))
               for q in QUESTIONS]
    return executor, answers


class TestRetrievalParity:
    def test_answers_byte_identical_on_and_off(self):
        _, plain = run_questions(LinearScores())
        _, tiered = run_questions()
        assert [(a.value, a.sources()) for a in plain] == \
            [(a.value, a.sources()) for a in tiered]

    def test_charges_split_into_fresh_and_probes(self):
        off, _ = run_questions(LinearScores())
        on, _ = run_questions()
        baseline = off.clock.counts["embed_score"]
        fresh = on.clock.counts.get("embed_score", 0)
        probes = on.clock.counts.get("ann_probe", 0)
        # every score the scan charged is now either a first compute
        # or a memo probe — nothing is dropped or double-charged
        assert fresh + probes == baseline
        assert probes > 0
        assert fresh < baseline
        assert off.clock.counts.get("ann_probe", 0) == 0

    def test_stats_record_sites_and_outcomes(self):
        on, _ = run_questions()
        report = on.stats.snapshot()
        assert report.retrieval_ann_fresh > 0
        assert report.retrieval_ann_probes > 0
        assert report.retrieval_ann_fresh + \
            report.retrieval_ann_probes == \
            on.clock.counts["embed_score"] + \
            on.clock.counts["ann_probe"]
