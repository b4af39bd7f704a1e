"""Graph database substrate: directed labeled multigraphs with indexes,
k-hop subgraph views, durable persistence, and relation retrieval.
"""

from repro.graph.candidates import CandidateMatch, VertexCandidateIndex
from repro.graph.durable import (
    DurableStore,
    RecoveryReport,
    RecoveryResult,
    WriteAheadLog,
)
from repro.graph.model import (
    INSTANCE_OF,
    IS_A,
    TAXONOMY_LABELS,
    Edge,
    Graph,
    Vertex,
)
from repro.graph.query import RelationPair, relations_between
from repro.graph.store import (
    LoadedSnapshot,
    extensional_digest,
    read_snapshot,
    write_snapshot,
)
from repro.graph.subgraph import SubgraphView, k_hop_subgraph
from repro.graph.traverse import k_hop_neighborhood

__all__ = [
    "CandidateMatch",
    "DurableStore",
    "Edge",
    "Graph",
    "INSTANCE_OF",
    "IS_A",
    "LoadedSnapshot",
    "RecoveryReport",
    "RecoveryResult",
    "RelationPair",
    "SubgraphView",
    "TAXONOMY_LABELS",
    "Vertex",
    "VertexCandidateIndex",
    "WriteAheadLog",
    "extensional_digest",
    "k_hop_neighborhood",
    "k_hop_subgraph",
    "read_snapshot",
    "relations_between",
    "write_snapshot",
]
