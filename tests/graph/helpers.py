"""Shared checks for the graph tests."""

from repro.graph import Edge, Graph, SubgraphView, extensional_digest


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Extensional equality: same name, epoch, and vertex/edge sets
    (see :func:`repro.graph.extensional_digest`)."""
    return extensional_digest(a) == extensional_digest(b)


def induced_edges(view: SubgraphView) -> list[Edge]:
    """Edges of the view's parent with both endpoints inside the view."""
    return [edge
            for vertex_id in sorted(view.vertex_ids)
            for edge in view.parent.out_edges(vertex_id)
            if edge.dst in view.vertex_ids]
