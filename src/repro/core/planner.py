"""Cost-based multi-query planning: whole-plan sharing across a batch.

The key-centric cache (§V-B) memoizes per-item scope and path results,
but every scheduled query still *executes* its plan independently: two
queries whose SPOC chains touch the same subject neighborhood each scan
that neighborhood once (the path key includes the object side, so a
shared subject with different objects is a cache miss both times).  On
the seed bench this left ``edge_scan`` as the dominant charge by two
orders of magnitude.

This module pushes key-centric reuse from per-item memoization to
whole-plan sharing:

* **canonicalize** — every query graph becomes a :class:`QueryPlan` of
  plan nodes with canonical keys under the current graph epoch:
  ``scope`` nodes (one per statically-resolvable slot, keyed exactly
  like the scope store), ``path`` nodes (one per non-copular clause
  whose endpoints are both static, keyed exactly like the path store),
  and ``neighborhood`` nodes (``("nbr", epoch, direction, head)`` — the
  *full* non-structural edge set on one side of a static endpoint, from
  which any path request over that endpoint can be derived by
  membership filtering);
* **share** — nodes whose canonical key recurs across the batch are
  executed exactly once, in deterministic key order, on the main thread
  before the batch starts; results fan out to every consumer through a
  frozen :class:`PlanOverlay` that the executor consults inside its
  cache-miss closures (so derived results still land in the scope/path
  stores and stay single-flight under concurrency);
* **order** — queries are clustered by shared-key affinity (union-find
  over shared canonical keys) and clusters run back to back, largest
  shared mass first, which maximizes scope/path reuse while entries are
  hot in the bounded pool; within a cluster the §V-B frequency-ratio
  order is kept (the scheduler ablation, ``enable_scheduler=False``,
  keeps the input order instead and still shares).

Epoch interaction: every canonical key carries the *plan-time* graph
epoch at index 1, and the overlay is stamped with it (the executor's
cache keys name no epoch: its entries are retired by the writes that
touch them).  A mid-batch mutation bumps the epoch, and executors
consult the overlay only at its own epoch, so every overlay entry
becomes unreachable — a shared sub-plan result can never leak across
epochs.  Degraded slot resolution (resilience fallbacks)
is guarded the same way: a neighborhood entry records the vertex ids
it was computed from, and derivation only applies when the runtime
endpoint set matches exactly.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.scheduler import schedule_queries
from repro.core.spoc import QueryGraph, SPOC, Term

if TYPE_CHECKING:
    from repro.core.executor import QueryGraphExecutor, ScopeEntry
    from repro.core.stats import ExecutorStats
    from repro.graph import RelationPair
    from repro.graph.observe import Reads


#: how many uses a canonical node needs across the batch before the
#: share phase precomputes it (2 = any reuse)
SHARE_THRESHOLD = 2


#: the three plan-node kinds (also the ``kind`` label values of the
#: ``svqa_plan_*`` metric families); built from a list so RP007 does
#: not mistake the literal for a "scope"-tagged cache key
NODE_KINDS: tuple[str, ...] = tuple(["scope", "path", "neighborhood"])


@dataclass(frozen=True)
class PlanNode:
    """One canonical unit of plan work inside a query plan.

    ``key`` is the node's canonical identity: for ``scope`` and
    ``path`` nodes it is byte-for-byte the cache key the executor will
    present to the key-centric store, for ``neighborhood`` nodes it is
    the ``("nbr", epoch, direction, head)`` overlay key.  ``shareable``
    marks nodes the share phase knows how to precompute (possessive
    scopes, for example, are canonical but not precomputed).
    """

    kind: str
    key: tuple[Any, ...]
    shareable: bool = True


@dataclass
class QueryPlan:
    """One query graph, canonicalized into plan nodes.

    Requests whose keys depend on runtime bindings (slots fed by
    provider clauses) are unplannable statically and get no node.
    """

    index: int
    vertices: int
    score: float
    nodes: list[PlanNode]

    def signature(self) -> tuple[Any, ...]:
        """A canonical, comparable identity for determinism tests."""
        return (self.vertices, tuple((n.kind, n.key) for n in self.nodes))


@dataclass(frozen=True)
class SharedNode:
    """A canonical node used by enough plans to execute exactly once."""

    node: PlanNode
    uses: int
    consumers: tuple[int, ...]


@dataclass
class PlanForest:
    """The batch-wide sharing structure over a list of query plans."""

    epoch: int
    plans: list[QueryPlan]
    shared: dict[tuple[Any, ...], SharedNode]

    def shared_by_kind(self, kind: str) -> list[SharedNode]:
        """Shared nodes of one kind, in deterministic key order."""
        return [self.shared[key] for key in sorted(self.shared)
                if self.shared[key].node.kind == kind]

    def node_counts(self) -> dict[str, int]:
        """Total canonical nodes discovered, by kind."""
        counts = dict.fromkeys(NODE_KINDS, 0)
        for plan in self.plans:
            for node in plan.nodes:
                counts[node.kind] += 1
        return counts

    def shared_counts(self) -> dict[str, int]:
        """Shared (precomputed) nodes, by kind."""
        counts = dict.fromkeys(NODE_KINDS, 0)
        for shared in self.shared.values():
            counts[shared.node.kind] += 1
        return counts

    def fanout_uses(self) -> int:
        """Total uses served by shared nodes across the batch."""
        return sum(s.uses for s in self.shared.values())

    def signature(self) -> tuple[Any, ...]:
        """Canonical identity of the whole forest (determinism tests)."""
        return (
            self.epoch,
            tuple(plan.signature() for plan in self.plans),
            tuple(sorted(
                (key, s.uses, s.consumers) for key, s in self.shared.items()
            )),
        )


def _term_scope_node(term: Term, epoch: int) -> PlanNode:
    """The scope node a static term slot will request."""
    if term.owner is not None:
        return PlanNode(
            kind="scope",
            key=("scope-poss", epoch, term.owner.lower(),
                 term.head.lower()),
            shareable=False,
        )
    return PlanNode(kind="scope", key=("scope", epoch, term.head.lower()))


def _static_slot_key(term: Term | None) -> tuple[str, ...]:
    """The executor's ``_slot_key`` for an unbound slot."""
    if term is None:
        return ("*",)
    return (term.head.lower(), term.owner.lower() if term.owner else "")


def canonicalize(graph: QueryGraph, epoch: int,
                 index: int = 0, score: float = 0.0) -> QueryPlan:
    """Canonicalize one query graph into a :class:`QueryPlan`.

    A slot is *static* when no dependency edge feeds it (its
    ``consumer_slot`` never names it), so its cache key is known before
    execution.  Copular ("be") clauses retrieve no relation pairs and
    therefore contribute no path or neighborhood nodes.
    """
    dynamic: list[set[str]] = [set() for _ in graph.vertices]
    for _, dst, kind in graph.edges:
        dynamic[dst].add(kind.consumer_slot)

    nodes: list[PlanNode] = []
    for i, spoc in enumerate(graph.vertices):
        subject_static = "subject" not in dynamic[i]
        object_static = "object" not in dynamic[i]
        for slot, static in (("subject", subject_static),
                             ("object", object_static)):
            term = spoc.slot(slot)
            if static and term is not None:
                nodes.append(_term_scope_node(term, epoch))
        if spoc.predicate == "be" or not (subject_static and object_static):
            continue
        path_key = (
            "path",
            epoch,
            _static_slot_key(spoc.subject),
            _static_slot_key(spoc.object),
        )
        nodes.append(PlanNode(kind="path", key=path_key, shareable=False))
        nbr_key = _neighborhood_key(spoc, epoch)
        if nbr_key is not None:
            nodes.append(PlanNode(kind="neighborhood", key=nbr_key))
    return QueryPlan(
        index=index,
        vertices=len(graph.vertices),
        score=score,
        nodes=nodes,
    )


def _neighborhood_key(spoc: SPOC, epoch: int) -> tuple[Any, ...] | None:
    """The derivable-neighborhood key of a static non-copular clause.

    Mirrors the executor's branch choice in ``_relation_pairs``: a
    present subject scans subject out-edges, an absent subject scans
    object in-edges.  Possessive endpoints are excluded — their scope
    sets depend on embedding scoring the share phase does not replay.
    """
    if spoc.subject is not None:
        if spoc.subject.owner is not None:
            return None
        return ("nbr", epoch, "out", spoc.subject.head.lower())
    if spoc.object is not None:
        if spoc.object.owner is not None:
            return None
        return ("nbr", epoch, "in", spoc.object.head.lower())
    return None


def build_plans(graphs: list[QueryGraph], epoch: int) -> list[QueryPlan]:
    """Canonicalize a batch, scoring each plan by §V-B frequency ratio."""
    schedule = schedule_queries(graphs)
    return [
        canonicalize(graph, epoch, index=i, score=schedule.graph_scores[i])
        for i, graph in enumerate(graphs)
    ]


def build_forest(plans: list[QueryPlan], epoch: int,
                 threshold: int = SHARE_THRESHOLD,
                 kinds: Collection[str] = NODE_KINDS,
                 ) -> PlanForest:
    """Detect structurally shared sub-plans across the batch.

    A shareable node of one of ``kinds`` whose canonical key is used
    at least ``threshold`` times (across all plans, repeated uses
    within one plan included — each use is a store request) becomes a
    :class:`SharedNode` the share phase executes exactly once.
    Sharing is cross-query reuse, so ``answer_many`` leaves out the
    kind whose cache the configuration disables (``scope`` with the
    scope store, ``neighborhood`` with the path store): a cache-off
    ablation must not be quietly served from the plan overlay.
    """
    if threshold < 2:
        raise ValueError(f"share_threshold must be >= 2, got {threshold}")
    uses: dict[tuple[Any, ...], int] = {}
    consumers: dict[tuple[Any, ...], list[int]] = {}
    nodes: dict[tuple[Any, ...], PlanNode] = {}
    for plan in plans:
        for node in plan.nodes:
            if not node.shareable or node.kind not in kinds:
                continue
            uses[node.key] = uses.get(node.key, 0) + 1
            nodes[node.key] = node
            plan_consumers = consumers.setdefault(node.key, [])
            if not plan_consumers or plan_consumers[-1] != plan.index:
                plan_consumers.append(plan.index)
    shared = {
        key: SharedNode(node=nodes[key], uses=count,
                        consumers=tuple(consumers[key]))
        for key, count in uses.items() if count >= threshold
    }
    return PlanForest(epoch=epoch, plans=plans, shared=shared)


def plan_order(plans: list[QueryPlan], forest: PlanForest) -> list[int]:
    """Choose the batch execution order (positions into ``plans``).

    Plans are clustered by shared-key affinity (union-find over the
    forest's shared canonical keys) and clusters run back to back in
    descending shared-use weight, so every consumer of a shared scope
    or neighborhood executes while those entries — and the exact path
    entries derived from them — are still hot in the bounded pool.
    Within a cluster (and for the weight-0 tail) the §V-B
    frequency-ratio order is kept, with the input index as the final
    deterministic tiebreak.
    """
    member_key = {
        plan.index: (-plan.score, -plan.vertices, plan.index)
        for plan in plans
    }
    parent = {plan.index: plan.index for plan in plans}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for shared in forest.shared.values():
        first = shared.consumers[0]
        for other in shared.consumers[1:]:
            union(first, other)

    weight: dict[int, int] = {}
    for shared in forest.shared.values():
        root = find(shared.consumers[0])
        weight[root] = weight.get(root, 0) + shared.uses

    clusters: dict[int, list[int]] = {}
    for plan in plans:
        clusters.setdefault(find(plan.index), []).append(plan.index)
    ranked = sorted(
        clusters.items(),
        key=lambda item: (-weight.get(item[0], 0),
                          min(member_key[i] for i in item[1])),
    )
    order: list[int] = []
    for _, members in ranked:
        order.extend(sorted(members, key=lambda i: member_key[i]))
    return order


class PlanOverlay:
    """Per-batch fan-out store for shared sub-plan results.

    Written only by the share phase (single-threaded, before the batch
    starts) and frozen before any worker runs, so executors read it
    without locks; the thread-pool fork provides the happens-before
    edge.  The overlay is stamped with the plan-time graph epoch, and
    every key carries it at index 1; executors consult the overlay
    only while the graph is still at that epoch, so after a mid-batch
    write stale shared results are unreachable, not merely retired.
    """

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        self._scope: dict[tuple[Any, ...],
                          tuple[ScopeEntry, tuple[Reads, ...]]] = {}
        self._nbr: dict[tuple[Any, ...],
                        tuple[tuple[int, ...], list[RelationPair]]] = {}
        self._frozen = False

    def _check_writable(self) -> None:
        if self._frozen:
            raise RuntimeError("PlanOverlay is frozen")

    def put_scope(self, key: tuple[Any, ...], value: ScopeEntry,
                  deps: tuple[Reads, ...] = ()) -> None:
        """Record one shared scope result and the reads behind it
        (share phase only)."""
        self._check_writable()
        self._scope[key] = (value, deps)

    def put_neighborhood(
        self, key: tuple[Any, ...], source_ids: tuple[int, ...],
        pairs: list[RelationPair],
    ) -> None:
        """Record one shared neighborhood with its source vertex ids."""
        self._check_writable()
        self._nbr[key] = (source_ids, pairs)

    def freeze(self) -> None:
        """Make the overlay read-only (called before the batch runs)."""
        self._frozen = True

    def scope(
        self, cache_key: tuple[Any, ...]
    ) -> tuple[ScopeEntry, tuple[Reads, ...]] | None:
        """The shared ``(value, deps)`` scope entry for a scope-store
        key (which names no epoch), if any."""
        return self._scope.get(
            (cache_key[0], self.epoch, *cache_key[1:]))

    def neighborhood(
        self, key: tuple[Any, ...]
    ) -> tuple[tuple[int, ...], list[RelationPair]] | None:
        """The shared ``(source_ids, pairs)`` neighborhood, if any."""
        return self._nbr.get(key)

    @property
    def size(self) -> int:
        """Entries held (scope + neighborhood)."""
        return len(self._scope) + len(self._nbr)


@dataclass(frozen=True)
class ShareReport:
    """What the share phase executed and charged."""

    shared_scopes: int
    shared_neighborhoods: int
    charged_seconds: float


def execute_shared(
    forest: PlanForest,
    executor: QueryGraphExecutor,
    overlay: PlanOverlay,
    stats: ExecutorStats | None = None,
) -> ShareReport:
    """Execute every shared node exactly once, fanning results out.

    Runs on the main thread before the batch starts, in sorted
    canonical-key order (deterministic), charging the executor's clock
    with the same costs an uncached request would have paid.  Scope
    results are also written through to the key-centric scope store, so
    consumer queries observe ordinary warm hits; neighborhoods live
    only in the overlay (they are supersets of path-store entries, not
    path entries themselves) and the executor derives exact path
    results from them inside its miss closures.
    """
    start = executor.clock.snapshot() if executor.clock is not None \
        else None
    # the share phase stores into the scope store only if no write
    # lands while it runs
    stamp = executor.cache.stamp()
    scope_values: dict[str, tuple[ScopeEntry, tuple[Reads, ...]]] = {}

    def scope_for(label: str) -> tuple[ScopeEntry, tuple[Reads, ...]]:
        if label not in scope_values:
            key, value, deps = executor.plan_scope_entry(label)
            scope_values[label] = (value, deps)
            executor.cache.put_scope(key, value, deps, stamp)
        return scope_values[label]

    shared_scopes = 0
    for shared in forest.shared_by_kind("scope"):
        label = str(shared.node.key[2])
        overlay.put_scope(shared.node.key, *scope_for(label))
        shared_scopes += 1
        if stats is not None:
            stats.record_plan_shared("scope")

    shared_neighborhoods = 0
    for shared in forest.shared_by_kind("neighborhood"):
        direction = str(shared.node.key[2])
        label = str(shared.node.key[3])
        ids = scope_for(label)[0].ids
        vertices = executor.graph.vertices_by_id(ids)
        pairs = executor.plan_neighborhood(direction, vertices)
        overlay.put_neighborhood(shared.node.key, tuple(ids), pairs)
        shared_neighborhoods += 1
        if stats is not None:
            stats.record_plan_shared("neighborhood")

    charged = start.interval if start is not None else 0.0
    return ShareReport(
        shared_scopes=shared_scopes,
        shared_neighborhoods=shared_neighborhoods,
        charged_seconds=charged,
    )


@dataclass
class PlannedBatch:
    """Everything ``answer_many`` decided for one planned batch."""

    forest: PlanForest
    order: list[int]        # submission order, as input indices
    share: ShareReport


def render_forest(forest: PlanForest, limit: int = 12) -> str:
    """A deterministic text rendering of the shared-sub-plan forest."""
    nodes = forest.node_counts()
    shared = forest.shared_counts()
    lines = [
        f"plan forest: {len(forest.plans)} queries, epoch {forest.epoch}",
        f"  canonical nodes: {nodes['scope']} scope, "
        f"{nodes['path']} path, {nodes['neighborhood']} neighborhood",
        f"  shared nodes: {shared['scope']} scope, "
        f"{shared['neighborhood']} neighborhood "
        f"({forest.fanout_uses()} fan-out uses)",
    ]
    ranked = sorted(
        forest.shared.values(),
        key=lambda s: (-s.uses, s.node.key),
    )
    for shared_node in ranked[:limit]:
        key = shared_node.node.key
        if shared_node.node.kind == "neighborhood":
            what = f"neighborhood {key[2]} '{key[3]}'"
        else:
            what = f"scope '{key[2]}'"
        lines.append(
            f"    {what}: uses={shared_node.uses} "
            f"consumers={len(shared_node.consumers)}"
        )
    if len(ranked) > limit:
        lines.append(f"    ... and {len(ranked) - limit} more shared nodes")
    return "\n".join(lines)
