"""Optimized multi-query scheduling (§V-B).

Before executing N query graphs, every vertex's SPOC is normalized to a
reuse key; a frequency table over all N graphs assigns each key a
frequency ratio, each graph scores the sum of its vertices' ratios, and
the graphs run in descending score order.  Graphs whose vertices are
shared by many other graphs therefore run first, populating the
key-centric cache while their entries are still hot — which is what
makes the cache effective under a bounded pool (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.spoc import QueryGraph, SPOC


def vertex_key(spoc: SPOC) -> tuple[str, str, str, str]:
    """A SPOC's reuse key: normalized (subject, predicate, object,
    constraint)."""
    return (
        spoc.subject.head.lower() if spoc.subject else "",
        spoc.predicate.lower(),
        spoc.object.head.lower() if spoc.object else "",
        (spoc.constraint or "").lower(),
    )


@dataclass
class SchedulePlan:
    """The pre-analysis result: execution order + key frequencies."""

    order: list[int]                    # indices into the input list
    key_frequency: dict[tuple, int]
    graph_scores: list[float]


def schedule_queries(graphs: list[QueryGraph]) -> SchedulePlan:
    """Compute the descending frequency-ratio order of §V-B.

    >>> plan = schedule_queries([])
    >>> plan.order
    []
    """
    frequency: dict[tuple, int] = {}
    for graph in graphs:
        for spoc in graph.vertices:
            key = vertex_key(spoc)
            frequency[key] = frequency.get(key, 0) + 1

    total = sum(frequency.values()) or 1
    scores = []
    for graph in graphs:
        score = sum(
            frequency[vertex_key(spoc)] / total for spoc in graph.vertices
        )
        scores.append(score)

    # descending score; more vertices win ties (the paper's Example 6:
    # G1 is processed first because it "contains the most frequent
    # vertices and contains more vertices than G2").  The final `i`
    # tiebreaker makes the order fully deterministic — it doubles as
    # the submission order of the concurrent BatchExecutor, so equal-
    # score graphs must not reorder between runs
    order = sorted(
        range(len(graphs)),
        key=lambda i: (-scores[i], -len(graphs[i].vertices), i),
    )
    return SchedulePlan(order=order, key_frequency=frequency,
                        graph_scores=scores)
