"""Induced subgraphs and the index-based subgraph view ``G[S(t, k)]``.

Definition 2 of the paper: given the k-hop vertex set ``S(t, k)`` of a
target vertex ``t``, ``G[S(t, k)]`` is the subgraph of ``G`` induced by
those vertices.  §III-B notes that SVQA "does not store a part of G
independently; instead, it adds an index to G to distinguish
G[S(t, k)]" — so the representation here is :class:`SubgraphView`, a
lightweight vertex-id index over the parent graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.model import Graph, Vertex
from repro.graph.traverse import k_hop_neighborhood


@dataclass
class SubgraphView:
    """An induced-subgraph *view*: an id set indexed over a parent graph.

    The view holds no copies — membership checks and iteration resolve
    against the parent, so the view stays consistent with label updates
    on the parent (though not with vertex removals, which callers of the
    aggregator never perform mid-merge).
    """

    parent: Graph
    vertex_ids: frozenset[int]
    anchor: int | None = None
    label_index: dict[str, list[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        """Build the per-view label index from the parent's labels."""
        index: dict[str, list[int]] = {}
        for vertex_id in self.vertex_ids:
            label = self.parent.vertex(vertex_id).label
            index.setdefault(label, []).append(vertex_id)
        self.label_index = index

    def find_vertices(self, label: str) -> list[Vertex]:
        """Vertices in the view carrying ``label`` (built-in index)."""
        return [self.parent.vertex(i) for i in self.label_index.get(label, ())]

    def __contains__(self, vertex_id: int) -> bool:
        """Whether ``vertex_id`` is part of the view."""
        return vertex_id in self.vertex_ids


def k_hop_subgraph(graph: Graph, target: int, k: int) -> SubgraphView:
    """``G[S(t, k)]`` — the induced subgraph of the k-hop set of ``target``.

    This is the ``subgraph(t, k, G)`` call of Algorithm 1, line 6.
    """
    vertex_ids = k_hop_neighborhood(graph, target, k, directed=False)
    return SubgraphView(graph, frozenset(vertex_ids), anchor=target)
