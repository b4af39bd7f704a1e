"""Directed labeled multigraph — the storage model used everywhere.

The paper defines ``G = (V, E, L)``: a directed graph whose vertices and
edges both carry labels (§II).  Scene graphs, the external knowledge
graph, the merged graph ``G_mg``, and the query graph ``G_q`` are all
instances of this model, so we implement it once with:

* stable integer vertex/edge ids,
* O(1) vertex lookup and adjacency access,
* a label index maintained incrementally (see :mod:`repro.graph.index`),
* a sparse taxonomy adjacency: the ``is a`` / ``instance of`` edges of
  the few vertices that have any, so the hypernym walks of
  ``matchVertex`` never scan relation edges,
* arbitrary per-vertex / per-edge properties (bounding boxes, image ids,
  SPOC payloads, ...),
* an ordered list of mutation observers (the WAL first, then derived
  views such as the executor's caches), each handed every applied
  op (see :mod:`repro.graph.observe`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Container, Iterable, Iterator, KeysView
from typing import Any, TYPE_CHECKING

from repro.errors import (
    DuplicateEdgeError,
    DuplicateVertexError,
    EdgeNotFoundError,
    VertexNotFoundError,
)
from repro.graph.candidates import VertexCandidateIndex
from repro.graph.index import LabelIndex
from repro.nlp.score_memo import ScoreMemo

if TYPE_CHECKING:
    from repro.graph.observe import GraphObserver


#: edge label linking an instance vertex to its concept
INSTANCE_OF = "instance of"
#: edge label of the hypernym hierarchy
IS_A = "is a"
#: the structural edge labels: the taxonomy adjacency holds exactly
#: these edges, and relation retrieval never returns them
TAXONOMY_LABELS = frozenset({IS_A, INSTANCE_OF})


@dataclass
class Vertex:
    """A labeled vertex with arbitrary properties.

    Attributes
    ----------
    id:
        Integer id, unique within its graph.
    label:
        The vertex label ``L(v)`` — for scene graphs the object class,
        for knowledge graphs the entity name.
    props:
        Free-form properties (e.g. ``image_id``, ``bbox``, ``source``).
    """

    id: int
    label: str
    props: dict[str, Any] = field(default_factory=dict)

    def __hash__(self) -> int:
        """Hash by id (labels and props are mutable)."""
        return hash(self.id)


@dataclass
class Edge:
    """A labeled directed edge ``src --label--> dst``."""

    id: int
    src: int
    dst: int
    label: str
    props: dict[str, Any] = field(default_factory=dict)

    def __hash__(self) -> int:
        """Hash by id (labels and props are mutable)."""
        return hash(self.id)


class Graph:
    """A directed labeled multigraph with incremental indexes.

    Vertices and edges are identified by dense integer ids assigned at
    insertion.  Multiple edges between the same vertex pair are allowed
    (a scene may assert both ``dog near man`` and ``dog in front of
    man``).

    Example
    -------
    >>> g = Graph(name="demo")
    >>> a = g.add_vertex("dog")
    >>> b = g.add_vertex("man")
    >>> e = g.add_edge(a.id, b.id, "in front of")
    >>> [g.vertex(edge.dst).label for edge in g.out_edges(a.id)]
    ['man']
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._vertices: dict[int, Vertex] = {}
        self._edges: dict[int, Edge] = {}
        self._out: dict[int, list[int]] = {}
        self._in: dict[int, list[int]] = {}
        # sparse: only vertices with a taxonomy edge on that side have
        # an entry, and an entry is never an empty list
        self._taxonomy_out: dict[int, list[int]] = {}
        self._taxonomy_in: dict[int, list[int]] = {}
        self._next_vertex_id = 0
        self._next_edge_id = 0
        self.vertex_labels = LabelIndex()
        self.edge_labels = LabelIndex()
        self.candidate_index = VertexCandidateIndex()
        self.score_memo = ScoreMemo()
        self._epoch = 0
        # every follower of the write stream, in notification order;
        # replaced, never mutated in place, so a mutator iterates a
        # stable list
        self._observers: list[GraphObserver] = []
        self._sink: GraphObserver | None = None

    def attach_mutation_sink(self, sink: GraphObserver) -> None:
        """Make ``sink`` (the durable store's WAL) the first observer.

        Every subsequent structural mutation is reported to each
        observer's ``record`` *after* it is applied and the epoch has
        been bumped, in application order, the sink first.  One sink
        at a time: attaching replaces any previous sink.
        """
        self.detach_mutation_sink()
        self._sink = sink
        self._observers = [sink, *self._observers]

    def detach_mutation_sink(self) -> None:
        """Stop reporting mutations to the sink (idempotent)."""
        if self._sink is not None:
            self.remove_observer(self._sink)
            self._sink = None

    def add_observer(self, observer: GraphObserver) -> None:
        """Report every subsequent mutation to ``observer`` too, after
        the sink and the observers added before it (idempotent)."""
        if all(o is not observer for o in self._observers):
            self._observers = [*self._observers, observer]

    def remove_observer(self, observer: GraphObserver) -> None:
        """Stop reporting mutations to ``observer`` (idempotent)."""
        self._observers = [o for o in self._observers
                           if o is not observer]

    def _notify(self, op: dict[str, Any]) -> None:
        for observer in self._observers:
            observer.record(op)

    def _restore_bookkeeping(
        self, epoch: int, next_vertex_id: int, next_edge_id: int
    ) -> None:
        """Restore loader-only counters after rebuilding from a store.

        Replaying a snapshot's records through the public mutators
        bumps the epoch once per record; the snapshot manifest carries
        the *original* graph's epoch and id watermarks, which must win
        so WAL replay and post-recovery ingestion continue the exact
        id/epoch sequence of the crashed process.  Only the store-v2
        loader calls this.
        """
        self._epoch = epoch
        self._next_vertex_id = max(self._next_vertex_id, next_vertex_id)
        self._next_edge_id = max(self._next_edge_id, next_edge_id)

    @property
    def epoch(self) -> int:
        """Monotone mutation counter: bumped by every structural
        mutation (vertex or edge).  The WAL checks its continuity;
        derived views compare it before and after a computation, so a
        value computed while a write landed is not kept.
        """
        return self._epoch

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_vertex(
        self,
        label: str,
        props: dict[str, Any] | None = None,
        vertex_id: int | None = None,
    ) -> Vertex:
        """Add a vertex; returns the new :class:`Vertex`.

        ``vertex_id`` may be supplied when loading from a store; it must
        not collide with an existing id.
        """
        if vertex_id is None:
            vertex_id = self._next_vertex_id
        if vertex_id in self._vertices:
            raise DuplicateVertexError(vertex_id)
        self._next_vertex_id = max(self._next_vertex_id, vertex_id + 1)
        vertex = Vertex(vertex_id, label, dict(props or {}))
        self._vertices[vertex_id] = vertex
        self._out[vertex_id] = []
        self._in[vertex_id] = []
        self._index_vertex_label(label, vertex_id)
        self._epoch += 1
        if self._observers:
            self._notify({
                "op": "add_vertex", "epoch": self._epoch,
                "id": vertex_id, "label": label, "props": vertex.props,
            })
        return vertex

    def add_edge(
        self,
        src: int,
        dst: int,
        label: str,
        props: dict[str, Any] | None = None,
        edge_id: int | None = None,
    ) -> Edge:
        """Add a directed edge from ``src`` to ``dst``.

        ``edge_id`` may be supplied when loading from a store or
        replaying a write-ahead log; it must not collide with an
        existing id.
        """
        if src not in self._vertices:
            raise VertexNotFoundError(src)
        if dst not in self._vertices:
            raise VertexNotFoundError(dst)
        if edge_id is None:
            edge_id = self._next_edge_id
        if edge_id in self._edges:
            raise DuplicateEdgeError(edge_id)
        self._next_edge_id = max(self._next_edge_id, edge_id + 1)
        edge = Edge(edge_id, src, dst, label, dict(props or {}))
        self._edges[edge.id] = edge
        self._out[src].append(edge.id)
        self._in[dst].append(edge.id)
        if label in TAXONOMY_LABELS:
            self._taxonomy_out.setdefault(src, []).append(edge.id)
            self._taxonomy_in.setdefault(dst, []).append(edge.id)
        self.edge_labels.add(label, edge.id)
        self._epoch += 1
        if self._observers:
            self._notify({
                "op": "add_edge", "epoch": self._epoch, "id": edge.id,
                "src": src, "dst": dst, "label": label,
                "props": edge.props,
            })
        return edge

    def remove_edge(self, edge_id: int) -> None:
        """Remove an edge by id."""
        edge = self._edges.pop(edge_id, None)
        if edge is None:
            raise EdgeNotFoundError(edge_id)
        self._out[edge.src].remove(edge_id)
        self._in[edge.dst].remove(edge_id)
        if edge.label in TAXONOMY_LABELS:
            _discard(self._taxonomy_out, edge.src, edge_id)
            _discard(self._taxonomy_in, edge.dst, edge_id)
        self.edge_labels.remove(edge.label, edge_id)
        if edge.label not in self.edge_labels:
            self.score_memo.forget(edge.label)
        self._epoch += 1
        if self._observers:
            self._notify({
                "op": "remove_edge", "epoch": self._epoch, "id": edge_id,
            })

    def remove_vertex(self, vertex_id: int) -> None:
        """Remove a vertex and every edge incident to it.

        Incident edges are removed through :meth:`remove_edge` *while
        the vertex is still present*, so every observer sees one
        ``remove_edge`` record per cascaded edge before the
        ``remove_vertex`` record and — crucially for WAL replay —
        every intermediate in-memory state equals the state reached by
        applying the logged op prefix up to that epoch.
        """
        vertex = self._vertices.get(vertex_id)
        if vertex is None:
            raise VertexNotFoundError(vertex_id)
        for edge_id in list(self._out[vertex_id]) + list(self._in[vertex_id]):
            if edge_id in self._edges:
                self.remove_edge(edge_id)
        del self._vertices[vertex_id]
        del self._out[vertex_id]
        del self._in[vertex_id]
        self._unindex_vertex_label(vertex.label, vertex_id)
        self._epoch += 1
        if self._observers:
            self._notify({
                "op": "remove_vertex", "epoch": self._epoch,
                "id": vertex_id,
            })

    def relabel_vertex(self, vertex_id: int, label: str) -> None:
        """Change a vertex label, keeping the label indexes consistent."""
        vertex = self.vertex(vertex_id)
        self._unindex_vertex_label(vertex.label, vertex_id)
        vertex.label = label
        self._index_vertex_label(label, vertex_id)
        self._epoch += 1
        if self._observers:
            self._notify({
                "op": "relabel_vertex", "epoch": self._epoch,
                "id": vertex_id, "label": label,
            })

    def _index_vertex_label(self, label: str, vertex_id: int) -> None:
        """Register a vertex label; the candidate index learns the
        label only when ``vertex_labels`` gains it."""
        self.vertex_labels.add(label, vertex_id)
        if self.vertex_labels.count(label) == 1:
            self.candidate_index.add_label(label)

    def _unindex_vertex_label(self, label: str, vertex_id: int) -> None:
        """Unregister a vertex label; the candidate index forgets the
        label only when ``vertex_labels`` loses it."""
        self.vertex_labels.remove(label, vertex_id)
        if label not in self.vertex_labels:
            self.candidate_index.remove_label(label)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def vertex(self, vertex_id: int) -> Vertex:
        """Return the vertex with the given id."""
        try:
            return self._vertices[vertex_id]
        except KeyError:
            raise VertexNotFoundError(vertex_id) from None

    def edge(self, edge_id: int) -> Edge:
        """Return the edge with the given id."""
        try:
            return self._edges[edge_id]
        except KeyError:
            raise EdgeNotFoundError(edge_id) from None

    def vertices_by_id(self, vertex_ids: Iterable[int]) -> list[Vertex]:
        """The vertices with the given ids, in the given order."""
        try:
            return list(map(self._vertices.__getitem__, vertex_ids))
        except KeyError as exc:
            raise VertexNotFoundError(exc.args[0]) from None

    def has_vertex(self, vertex_id: int) -> bool:
        """Whether ``vertex_id`` exists in the graph."""
        return vertex_id in self._vertices

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._vertices.values())

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges."""
        return iter(self._edges.values())

    def vertex_ids(self) -> Iterable[int]:
        """A view over every vertex id."""
        return self._vertices.keys()

    @property
    def vertex_count(self) -> int:
        """Number of vertices."""
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return len(self._edges)

    def out_edges(self, vertex_id: int) -> list[Edge]:
        """Edges leaving ``vertex_id``."""
        if vertex_id not in self._vertices:
            raise VertexNotFoundError(vertex_id)
        return [self._edges[e] for e in self._out[vertex_id]]

    def in_edges(self, vertex_id: int) -> list[Edge]:
        """Edges entering ``vertex_id``."""
        if vertex_id not in self._vertices:
            raise VertexNotFoundError(vertex_id)
        return [self._edges[e] for e in self._in[vertex_id]]

    def in_degree(self, vertex_id: int) -> int:
        """Number of edges entering ``vertex_id``."""
        if vertex_id not in self._vertices:
            raise VertexNotFoundError(vertex_id)
        return len(self._in[vertex_id])

    def out_degree_sum(self, vertex_ids: Iterable[int]) -> int:
        """Total out-degree of ``vertex_ids`` (duplicates count twice)."""
        return _degree_sum(self._out, vertex_ids)

    def in_degree_sum(self, vertex_ids: Iterable[int]) -> int:
        """Total in-degree of ``vertex_ids`` (duplicates count twice)."""
        return _degree_sum(self._in, vertex_ids)

    def out_edges_into(
        self, sources: Iterable[int], targets: Container[int]
    ) -> list[Edge]:
        """Every out-edge of ``sources`` whose ``dst`` is in ``targets``,
        in source order, then adjacency order: ``out_edges`` of each
        source filtered by destination, without building the
        unfiltered per-vertex lists."""
        edges = self._edges
        out = self._out
        try:
            return [edge for vertex_id in sources
                    for edge in map(edges.__getitem__, out[vertex_id])
                    if edge.dst in targets]
        except KeyError as exc:
            raise VertexNotFoundError(exc.args[0]) from None

    def taxonomy_out_edges(self, vertex_id: int) -> list[Edge]:
        """The ``is a`` / ``instance of`` edges leaving ``vertex_id``:
        ``out_edges`` filtered to :data:`TAXONOMY_LABELS`, same order."""
        return self._taxonomy_edges(self._taxonomy_out, vertex_id)

    def taxonomy_in_edges(self, vertex_id: int) -> list[Edge]:
        """The ``is a`` / ``instance of`` edges entering ``vertex_id``:
        ``in_edges`` filtered to :data:`TAXONOMY_LABELS`, same order."""
        return self._taxonomy_edges(self._taxonomy_in, vertex_id)

    def taxonomy_targets(self) -> KeysView[int]:
        """Ids of the vertices with at least one ``is a`` /
        ``instance of`` in-edge (a live, read-only view): the only
        vertices a downward taxonomy walk needs to visit."""
        return self._taxonomy_in.keys()

    def _taxonomy_edges(
        self, adjacency: dict[int, list[int]], vertex_id: int
    ) -> list[Edge]:
        edge_ids = adjacency.get(vertex_id)
        if edge_ids is None:
            if vertex_id not in self._vertices:
                raise VertexNotFoundError(vertex_id)
            return []
        return [self._edges[e] for e in edge_ids]

    def find_vertices(self, label: str) -> list[Vertex]:
        """All vertices carrying ``label`` (via the label index)."""
        return [self._vertices[i] for i in self.vertex_labels.ids(label)]

    def __contains__(self, vertex_id: int) -> bool:
        """Whether ``vertex_id`` exists in the graph."""
        return vertex_id in self._vertices

    def __repr__(self) -> str:
        """Compact summary: name plus vertex/edge counts."""
        return (
            f"Graph(name={self.name!r}, vertices={self.vertex_count}, "
            f"edges={self.edge_count})"
        )


def _discard(adjacency: dict[int, list[int]], vertex_id: int,
             edge_id: int) -> None:
    """Remove ``edge_id`` from a sparse adjacency, dropping the entry
    once it is empty."""
    edge_ids = adjacency[vertex_id]
    edge_ids.remove(edge_id)
    if not edge_ids:
        del adjacency[vertex_id]


def _degree_sum(adjacency: dict[int, list[int]],
                vertex_ids: Iterable[int]) -> int:
    try:
        return sum(map(len, map(adjacency.__getitem__, vertex_ids)))
    except KeyError as exc:
        raise VertexNotFoundError(exc.args[0]) from None
