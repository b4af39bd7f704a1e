"""Graph database substrate: directed labeled multigraphs with indexes,
traversal, induced subgraph views, persistence, and pattern matching.
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
from repro.graph.query import (
    RelationPair,
    relations_between,
    relations_from,
    relations_to,
    vertices_with_label,
)
from repro.graph.store import (
    GraphStats,
    LoadedSnapshot,
    extensional_digest,
    graph_stats,
    graphs_equal,
    load_graph,
    read_snapshot,
    save_graph,
    write_snapshot,
)
from repro.graph.subgraph import (
    SubgraphView,
    induced_subgraph_view,
    k_hop_subgraph,
    materialize,
)
from repro.graph.traverse import (
    bfs_order,
    connected_components,
    dfs_order,
    hop_distances,
    iter_paths,
    k_hop_neighborhood,
)

__all__ = [
    "CandidateMatch",
    "DurableStore",
    "Edge",
    "Graph",
    "GraphStats",
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
    "bfs_order",
    "connected_components",
    "dfs_order",
    "extensional_digest",
    "graph_stats",
    "graphs_equal",
    "hop_distances",
    "induced_subgraph_view",
    "iter_paths",
    "k_hop_neighborhood",
    "k_hop_subgraph",
    "load_graph",
    "materialize",
    "read_snapshot",
    "relations_between",
    "relations_from",
    "relations_to",
    "save_graph",
    "vertices_with_label",
    "write_snapshot",
]
