"""Graph traversal: the k-hop neighbourhood of Definition 1.

Implements Definition 1 of the paper — the *K-th order neighbours* of a
vertex ``t`` are the vertices reachable from ``t`` within ``K`` hops —
treating edges as undirected for reachability, which matches the
paper's Example 3 (both ``Fence -> Man`` and ``Man -> Fence`` directions
count as one hop between the two vertices).
"""

from __future__ import annotations

from collections import deque

from repro.graph.model import Graph


def k_hop_neighborhood(
    graph: Graph, start: int, k: int, directed: bool = False
) -> set[int]:
    """The set ``S(t, k)``: vertices within ``k`` hops of ``start``.

    Includes ``start`` itself (distance 0), matching the paper's
    Example 3 where ``S("Fence", 1)`` contains both "Fence" and "Man".
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    graph.vertex(start)
    distances = {start: 0}
    frontier = deque([start])
    while frontier:
        current = frontier.popleft()
        depth = distances[current]
        if depth == k:
            continue
        for nxt in _adjacent(graph, current, directed):
            if nxt not in distances:
                distances[nxt] = depth + 1
                frontier.append(nxt)
    return set(distances)


def _adjacent(graph: Graph, vertex_id: int, directed: bool) -> list[int]:
    """Adjacent vertex ids, deduplicated, insertion-ordered."""
    seen: dict[int, None] = {}
    for edge in graph.out_edges(vertex_id):
        seen.setdefault(edge.dst)
    if not directed:
        for edge in graph.in_edges(vertex_id):
            seen.setdefault(edge.src)
    return list(seen)
