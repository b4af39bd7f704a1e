"""Shared checks for the graph-store tests."""

from repro.graph import Graph, extensional_digest


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Extensional equality: same name, epoch, and vertex/edge sets
    (see :func:`repro.graph.extensional_digest`)."""
    return extensional_digest(a) == extensional_digest(b)
