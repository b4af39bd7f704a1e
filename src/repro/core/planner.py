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
  plan nodes with canonical keys: ``scope`` nodes (one per
  statically-resolvable slot, keyed exactly like the scope store),
  ``path`` nodes (one per non-copular clause whose endpoints are both
  static, keyed exactly like the path store), and ``neighborhood``
  nodes (``("nbr", direction, head)``, keyed exactly like the
  neighborhood store — the *full* non-structural edge set on one side
  of a static endpoint, from which any path request over that endpoint
  can be derived by membership filtering);
* **share** — nodes whose canonical key recurs across the batch are
  executed exactly once, in deterministic key order, on the main thread
  before the batch starts; scopes land in the scope store and
  neighborhoods in the neighborhood store of the session's
  key-centric cache, where the executor's cache-miss closures find
  them (so derived results still land in the path store and stay
  single-flight under concurrency);
* **order** — queries are clustered by shared-key affinity (union-find
  over shared canonical keys) and clusters run back to back, largest
  shared mass first, which maximizes scope/path reuse while entries are
  hot in the bounded pool; within a cluster the §V-B frequency-ratio
  order is kept (the scheduler ablation, ``enable_scheduler=False``,
  keeps the input order instead and still shares).

Epoch interaction: no key names an epoch.  A shared result is a cache
entry like any other, stored with the reads it made, so a graph write
retires exactly the scopes and neighborhoods it touches
(:mod:`repro.graph.observe`), mid-batch or between batches, and what it
leaves stays valid for later batches.  A neighborhood also records the
vertex ids it was computed from, and derivation applies only when the
runtime endpoint set matches them exactly: that covers a label whose
vertices changed without touching the stored edges, and degraded slot
resolution (resilience fallbacks).
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.scheduler import schedule_queries
from repro.core.spoc import QueryGraph, SPOC, Term
from repro.graph.observe import Reads

if TYPE_CHECKING:
    from repro.core.executor import QueryGraphExecutor, ScopeEntry
    from repro.core.stats import ExecutorStats


#: the three plan-node kinds (also the ``kind`` label values of the
#: ``svqa_plan_*`` metric families)
NODE_KINDS: tuple[str, ...] = ("scope", "path", "neighborhood")


@dataclass(frozen=True)
class PlanNode:
    """One canonical unit of plan work inside a query plan.

    ``key`` is the node's canonical identity: byte-for-byte the key
    the executor presents to the key-centric cache's scope, path or
    neighborhood store.  ``shareable``
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
            tuple(plan.signature() for plan in self.plans),
            tuple(sorted(
                (key, s.uses, s.consumers) for key, s in self.shared.items()
            )),
        )


def _term_scope_node(term: Term) -> PlanNode:
    """The scope node a static term slot will request."""
    if term.owner is not None:
        return PlanNode(
            kind="scope",
            key=("scope-poss", term.owner.lower(), term.head.lower()),
            shareable=False,
        )
    return PlanNode(kind="scope", key=("scope", term.head.lower()))


def _static_slot_key(term: Term | None) -> tuple[str, ...]:
    """The executor's ``_slot_key`` for an unbound slot."""
    if term is None:
        return ("*",)
    return (term.head.lower(), term.owner.lower() if term.owner else "")


def canonicalize(graph: QueryGraph, index: int = 0,
                 score: float = 0.0) -> QueryPlan:
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
                nodes.append(_term_scope_node(term))
        if spoc.predicate == "be" or not (subject_static and object_static):
            continue
        path_key = (
            "path",
            _static_slot_key(spoc.subject),
            _static_slot_key(spoc.object),
        )
        nodes.append(PlanNode(kind="path", key=path_key, shareable=False))
        nbr_key = _neighborhood_key(spoc)
        if nbr_key is not None:
            nodes.append(PlanNode(kind="neighborhood", key=nbr_key))
    return QueryPlan(
        index=index,
        vertices=len(graph.vertices),
        score=score,
        nodes=nodes,
    )


def _neighborhood_key(spoc: SPOC) -> tuple[Any, ...] | None:
    """The derivable-neighborhood key of a static non-copular clause.

    Mirrors the executor's branch choice in ``_relation_pairs``: a
    present subject scans subject out-edges, an absent subject scans
    object in-edges.  Possessive endpoints are excluded — their scope
    sets depend on embedding scoring the share phase does not replay.
    """
    if spoc.subject is not None:
        if spoc.subject.owner is not None:
            return None
        return ("nbr", "out", spoc.subject.head.lower())
    if spoc.object is not None:
        if spoc.object.owner is not None:
            return None
        return ("nbr", "in", spoc.object.head.lower())
    return None


def build_plans(graphs: list[QueryGraph]) -> list[QueryPlan]:
    """Canonicalize a batch, scoring each plan by §V-B frequency ratio."""
    schedule = schedule_queries(graphs)
    return [
        canonicalize(graph, index=i, score=schedule.graph_scores[i])
        for i, graph in enumerate(graphs)
    ]


def build_forest(plans: list[QueryPlan],
                 kinds: Collection[str] = NODE_KINDS) -> PlanForest:
    """Detect structurally shared sub-plans across the batch.

    A shareable node of one of ``kinds`` whose canonical key is used
    at least twice (across all plans, repeated uses within one plan
    included — each use is a store request) becomes a
    :class:`SharedNode` the share phase executes exactly once.
    Sharing is cross-query reuse, so ``answer_many`` leaves out the
    kind whose cache the configuration disables (``scope`` with the
    scope store, ``neighborhood`` with the path store): a cache-off
    ablation must not pay for results no store would keep.
    """
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
        for key, count in uses.items() if count >= 2
    }
    return PlanForest(plans=plans, shared=shared)


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


@dataclass(frozen=True)
class ShareReport:
    """What the share phase executed and charged."""

    shared_scopes: int
    shared_neighborhoods: int
    charged_seconds: float


def execute_shared(
    forest: PlanForest,
    executor: QueryGraphExecutor,
    stats: ExecutorStats | None = None,
) -> ShareReport:
    """Execute every shared node exactly once, fanning results out.

    Runs on the main thread before the batch starts, in sorted
    canonical-key order (deterministic), charging the executor's clock
    with the same costs an uncached request would have paid.  Scope
    results go to the key-centric scope store, so consumer queries
    observe ordinary warm hits; neighborhoods go to its neighborhood
    store with the vertex ids they were computed from (they are
    supersets of path-store entries, not path entries themselves), and
    the executor derives exact path results from them inside its miss
    closures.
    """
    start = executor.clock.snapshot() if executor.clock is not None \
        else None
    # the share phase stores only if no write lands while it runs
    stamp = executor.cache.stamp()
    scopes: dict[str, ScopeEntry] = {}

    def scope_for(label: str) -> ScopeEntry:
        if label not in scopes:
            key, value, deps = executor.plan_scope_entry(label)
            scopes[label] = value
            executor.cache.put_scope(key, value, deps, stamp)
        return scopes[label]

    shared_scopes = 0
    for shared in forest.shared_by_kind("scope"):
        scope_for(str(shared.node.key[1]))
        shared_scopes += 1
        if stats is not None:
            stats.record_plan_shared("scope")

    shared_neighborhoods = 0
    for shared in forest.shared_by_kind("neighborhood"):
        _, direction, label = shared.node.key
        ids = tuple(scope_for(label).ids)
        pairs = executor.plan_neighborhood(
            direction, executor.graph.vertices_by_id(ids))
        edges = [pair.edge.id for pair in pairs]
        reads = Reads(out_of=ids, edges=edges) if direction == "out" \
            else Reads(into=ids, edges=edges)
        executor.cache.put_nbr(shared.node.key, (ids, pairs), (reads,),
                               stamp)
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
        f"plan forest: {len(forest.plans)} queries",
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
            what = f"neighborhood {key[1]} '{key[2]}'"
        else:
            what = f"scope '{key[1]}'"
        lines.append(
            f"    {what}: uses={shared_node.uses} "
            f"consumers={len(shared_node.consumers)}"
        )
    if len(ranked) > limit:
        lines.append(f"    ... and {len(ranked) - limit} more shared nodes")
    return "\n".join(lines)
