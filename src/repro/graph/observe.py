"""The graph's mutation-observer seam and key-level retirement.

Every structural mutation of a :class:`~repro.graph.model.Graph` hands
one op record -- the dict the write-ahead log persists (``op``,
``epoch`` and the op's payload) -- to each of the graph's observers,
in order, after the mutation is applied and the epoch bumped: the WAL
first when a durable store is attached, then the derived views that
follow the write stream (the executor's key-centric cache and its
``kind of`` memo).

A derived value is retired only by the writes that can change it.
While a value is computed it records what it read as a :class:`Reads`;
a :class:`ReadIndex` keeps the items of those records per field, so an
op that touches none of them is dismissed without a scan:

=====================  ===============================================
op                     retires the values that read ...
=====================  ===============================================
``add_vertex`` L       the id list of label L; when L is new to the
                       graph, every candidate lookup whose predicate
                       accepts L
``relabel_vertex``     the vertex (its presence, label or taxonomy
v -> L                 in-edges), plus the id list of L or the
                       accepting lookups, as for ``add_vertex``
``remove_vertex`` v    the vertex (the edge cascade is reported op by
                       op before it)
``add_edge`` s -> d    a taxonomy label: the taxonomy in-edges of d or
                       the taxonomy out-edges of s; any other label:
                       the out-edges of s (only those into d, for a
                       read ``between`` two sets) or the in-edges of d
``remove_edge`` e      the edge
=====================  ===============================================

A value may depend on another value's reads (a possessive scope on
its owner's lookup): it is registered under a tuple of :class:`Reads`,
and a :class:`Reads` stays registered while any value registered under
it does.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Hashable
from typing import Any, Protocol

from repro.graph.candidates import label_accepts
from repro.graph.model import TAXONOMY_LABELS


class GraphObserver(Protocol):
    """Anything that follows a graph's mutations."""

    def record(self, op: dict[str, Any]) -> None:
        """One applied mutation, in application order."""


#: the :class:`Reads` fields that hold indexable items
_FIELDS = ("labels", "held", "tax_in", "tax_out", "out_of", "into",
           "edges")

_EMPTY: frozenset = frozenset()


class Reads:
    """What one derived value read from the graph.

    * ``labels`` -- labels whose vertex-id lists were read;
    * ``probes`` -- candidate-index lookups, as ``(query, ld_threshold,
      include_synonyms)``;
    * ``held`` -- vertices whose presence or label was read;
    * ``tax_in`` / ``tax_out`` -- vertices whose taxonomy in- / out-
      edges were read;
    * ``out_of`` / ``into`` -- vertices whose other out- / in-edges
      were read; with ``between`` set, only the edges from ``out_of``
      into ``into`` were read (a new edge matters only if it joins
      the two, so ``into`` is tested, not indexed);
    * ``edges`` -- ids of the edges read.

    The collections are held, not copied (a value's own id lists can
    serve): the caller hands over collections it no longer changes.
    """

    __slots__ = ("labels", "probes", "held", "tax_in", "tax_out",
                 "out_of", "into", "between", "edges")

    def __init__(
        self, *,
        labels: Collection[str] = _EMPTY,
        probes: Collection[tuple[str, float, bool]] = (),
        held: Collection[int] = _EMPTY,
        tax_in: Collection[int] = _EMPTY,
        tax_out: Collection[int] = _EMPTY,
        out_of: Collection[int] = _EMPTY,
        into: Collection[int] = _EMPTY,
        between: bool = False,
        edges: Collection[int] = _EMPTY,
    ) -> None:
        self.labels = labels
        self.probes = probes
        self.held = held
        self.tax_in = tax_in
        self.tax_out = tax_out
        self.out_of = out_of
        self.into = into
        self.between = between
        self.edges = edges


class ReadIndex:
    """Registered values by what they read; not thread-safe (its
    owner serialises registration and retirement under one lock).

    A read is indexed when the first op after its registration arrives,
    so a graph that is never written indexes nothing.  Per
    :class:`Reads` field, the index keeps each indexed read's items as
    a frozenset and a set of every item some read holds, so an op that
    touches nothing registered -- most ops -- is dismissed with one
    lookup per item it writes.  Unregistering leaves the items in that
    set until it is rebuilt (when stale items outnumber live ones), so
    a hit there is confirmed by testing that field's reads one by one.
    """

    def __init__(self) -> None:
        # field -> the indexed reads with items in it, and a superset
        # of their items
        self._reads: dict[str, dict[Reads, frozenset[Hashable]]] = {
            name: {} for name in _FIELDS}
        self._items: dict[str, set[Hashable]] = {
            name: set() for name in _FIELDS}
        self._live: dict[str, int] = dict.fromkeys(_FIELDS, 0)
        self._stale: dict[str, int] = dict.fromkeys(_FIELDS, 0)
        self._pending: dict[Reads, None] = {}
        self._probing: dict[Reads, None] = {}
        self._owners: dict[Reads, set[Hashable]] = {}
        self._deps: dict[Hashable, tuple[Reads, ...]] = {}

    def __len__(self) -> int:
        """Registered values."""
        return len(self._deps)

    def add(self, key: Hashable, deps: tuple[Reads, ...]) -> None:
        """Register the value ``key`` as depending on ``deps``
        (replacing any earlier registration of ``key``)."""
        self.discard(key)
        for reads in deps:
            owners = self._owners.get(reads)
            if owners is None:
                owners = self._owners[reads] = set()
                self._pending[reads] = None
            owners.add(key)
        self._deps[key] = deps

    def discard(self, key: Hashable) -> None:
        """Forget ``key`` (a no-op when it is not registered)."""
        for reads in self._deps.pop(key, ()):
            owners = self._owners.get(reads)
            if owners is None:
                continue
            owners.discard(key)
            if not owners:
                del self._owners[reads]
                if self._pending.pop(reads, 0) is not None:
                    self._unlink(reads)

    def _link(self, reads: Reads) -> None:
        if reads.probes:
            self._probing[reads] = None
        for name in _FIELDS:
            items = getattr(reads, name)
            # a ``between`` read is found through its sources and then
            # checked against its targets
            if not items or (name == "into" and reads.between):
                continue
            held = frozenset(items)
            self._reads[name][reads] = held
            self._items[name].update(held)
            self._live[name] += len(held)

    def _unlink(self, reads: Reads) -> None:
        self._probing.pop(reads, None)
        for name in _FIELDS:
            indexed = self._reads[name]
            held = indexed.pop(reads, None)
            if held is None:
                continue
            self._live[name] -= len(held)
            self._stale[name] += len(held)
            if self._stale[name] > self._live[name] + 1024:
                self._items[name] = set().union(*indexed.values())
                self._stale[name] = 0

    def affected(self, op: dict[str, Any],
                 label_is_new: Callable[[str], bool]) -> set[Hashable]:
        """The registered values ``op`` can change (see the module
        table).  ``label_is_new(label)`` says whether an added or
        relabeled vertex's label has no other vertex in the graph."""
        for reads in self._pending:
            self._link(reads)
        self._pending.clear()
        hit: list[Reads] = []
        for name, item in _touched(op):
            if item in self._items[name]:
                hit += [reads for reads, items in self._reads[name].items()
                        if item in items]
        if hit and op["op"] == "add_edge":
            dst = op["dst"]
            hit = [reads for reads in hit
                   if not reads.between or dst in reads.into]
        if self._probing and op["op"] in ("add_vertex", "relabel_vertex"):
            label = op["label"]
            if label_is_new(label):
                hit += [
                    reads for reads in self._probing
                    if any(label_accepts(query, label, threshold, synonyms)
                           for query, threshold, synonyms in reads.probes)]
        keys: set[Hashable] = set()
        for reads in hit:
            keys.update(self._owners[reads])
        return keys


def _touched(op: dict[str, Any]) -> list[tuple[str, Hashable]]:
    """The ``(Reads field, item)`` pairs an op writes."""
    kind = op["op"]
    if kind == "add_edge":
        if op["label"] in TAXONOMY_LABELS:
            return [("tax_in", op["dst"]), ("tax_out", op["src"])]
        return [("out_of", op["src"]), ("into", op["dst"])]
    if kind == "remove_edge":
        return [("edges", op["id"])]
    if kind == "remove_vertex":
        return [("held", op["id"])]
    if kind == "relabel_vertex":
        return [("held", op["id"]), ("labels", op["label"])]
    if kind == "add_vertex":
        return [("labels", op["label"])]
    return []
