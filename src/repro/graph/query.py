"""Relation retrieval over a graph: the ``getRelations`` step of
Algorithm 3, which finds the relation pairs ``(Sub - E_so - Obj)``
connecting two vertex sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.model import Edge, Graph, Vertex


@dataclass(frozen=True)
class RelationPair:
    """One ``subject --edge--> object`` match in the merged graph."""

    subject: Vertex
    edge: Edge
    object: Vertex

    @property
    def triple(self) -> tuple[str, str, str]:
        """The (subject-label, edge-label, object-label) triple."""
        return (self.subject.label, self.edge.label, self.object.label)


def relations_between(
    graph: Graph,
    subjects: list[Vertex],
    objects: list[Vertex],
    *,
    include_reverse: bool = False,
) -> list[RelationPair]:
    """All edges from any subject to any object (``getRelations``).

    Scans the out-edges of every subject against a membership map of
    the objects, so cost is O(total subject out-degree) — the mass the
    executor charges as ``edge_scan`` — not |S| x |O|.  Pairs come in
    subject order, then adjacency order.  With ``include_reverse``
    edges running object -> subject are also returned (reversed into
    subject/object order is NOT applied; the pair keeps the edge's true
    direction via ``edge.src``).
    """
    object_ids = {v.id: v for v in objects}
    subject_ids = {v.id: v for v in subjects}
    pairs = [
        RelationPair(subject_ids[edge.src], edge, object_ids[edge.dst])
        for edge in graph.out_edges_into(
            [v.id for v in subjects], object_ids)
    ]
    if include_reverse:
        # an object that is also a subject was covered above
        pairs.extend(
            RelationPair(object_ids[edge.src], edge, subject_ids[edge.dst])
            for edge in graph.out_edges_into(
                [v.id for v in objects if v.id not in subject_ids],
                subject_ids)
        )
    return pairs
