"""Data Aggregator: Algorithm 1 — merging scene graphs into ``G_mg``.

Every image's scene graph contributes *instance* vertices (one per
detection, labeled with the detected category) and intra-image relation
edges.  Instances are then linked to the knowledge graph's *concept*
vertices by ``instance of`` edges.

The linking is accelerated exactly as Algorithm 1 prescribes: the
categories that occur frequently across scene graphs (count > ``c'``)
get their k-hop KG subgraphs ``G[S(t, k)]`` extracted up front into a
cache list ``G_N``; the attach stage resolves each scene-graph vertex
against those cached subgraphs first and only falls back to a direct
KG lookup ("query from storage") for rare labels.  Subgraphs are
*views* (indexes over ``G``), not copies — matching the paper's note
that extraction "adds an index to G" rather than storing parts
independently.

Named-entity *annotations* (image metadata identifying, e.g., that the
man in image 7 is "Harry Potter") additionally link instances to KG
entity vertices — the movie scenario of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph import INSTANCE_OF, Graph, SubgraphView, k_hop_subgraph
from repro.observability.spans import Tracer, maybe_span
from repro.resilience.manager import ResilienceManager
from repro.simtime import SimClock
from repro.vision.scene_graph import SceneGraphResult


@dataclass
class MergeStats:
    """What the aggregation did — backs the §III-B coverage claims."""

    category_counts: dict[str, int]
    cached_categories: list[str]
    cached_type_fraction: float    # ~58% in the paper
    covered_vertex_fraction: float  # ~82% in the paper
    cache_links: int
    storage_links: int
    created_concepts: int

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (the durable store's ``merged_meta``)."""
        return {
            "category_counts": dict(self.category_counts),
            "cached_categories": list(self.cached_categories),
            "cached_type_fraction": self.cached_type_fraction,
            "covered_vertex_fraction": self.covered_vertex_fraction,
            "cache_links": self.cache_links,
            "storage_links": self.storage_links,
            "created_concepts": self.created_concepts,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> MergeStats:
        """Inverse of :meth:`to_dict`; raises ``KeyError`` on holes."""
        return cls(
            category_counts=dict(data["category_counts"]),  # type: ignore[call-overload]
            cached_categories=list(data["cached_categories"]),  # type: ignore[call-overload]
            cached_type_fraction=float(data["cached_type_fraction"]),  # type: ignore[arg-type]
            covered_vertex_fraction=float(data["covered_vertex_fraction"]),  # type: ignore[arg-type]
            cache_links=int(data["cache_links"]),  # type: ignore[call-overload]
            storage_links=int(data["storage_links"]),  # type: ignore[call-overload]
            created_concepts=int(data["created_concepts"]),  # type: ignore[call-overload]
        )


@dataclass
class MergedGraph:
    """``G_mg``: the KG with all scene graphs attached.

    ``skipped_images`` lists image ids the resilience layer dropped
    (detector failed permanently upstream, or the merge of that scene
    graph exhausted its retries) — the graph is then *partial* and
    answers touching those images degrade rather than crash.
    """

    graph: Graph
    stats: MergeStats
    instance_ids: list[int] = field(default_factory=list)
    skipped_images: list[int] = field(default_factory=list)

    def meta_dict(self) -> dict[str, object]:
        """The non-graph bookkeeping, JSON-ready.

        Written into the durable store's ``merged_meta`` snapshot
        record so a warm-started server can reconstruct the full
        :class:`MergedGraph` without re-running the vision pipeline.
        """
        return {
            "stats": self.stats.to_dict(),
            "instance_ids": list(self.instance_ids),
            "skipped_images": list(self.skipped_images),
        }

    @classmethod
    def from_snapshot(
        cls, graph: Graph, meta: dict[str, object]
    ) -> MergedGraph:
        """Rebuild a :class:`MergedGraph` from a recovered graph plus
        the snapshot's ``merged_meta`` record (inverse of
        :meth:`meta_dict`); raises ``KeyError`` on missing fields."""
        return cls(
            graph=graph,
            stats=MergeStats.from_dict(meta["stats"]),  # type: ignore[arg-type]
            instance_ids=list(meta["instance_ids"]),  # type: ignore[call-overload]
            skipped_images=list(meta["skipped_images"]),  # type: ignore[call-overload]
        )


@dataclass
class AggregatorConfig:
    """Algorithm 1 parameters (§III-B: k=2, c'=5 in MVQA)."""

    frequency_threshold: int = 5  # c'
    subgraph_hops: int = 2        # k
    use_cache: bool = True


@dataclass
class _AttachTallies:
    """Mutable counters shared across per-image attach calls."""

    cache_links: int = 0
    storage_links: int = 0
    created: int = 0
    covered_vertices: int = 0
    total_vertices: int = 0


class DataAggregator:
    """Builds the merged graph from scene graphs + a knowledge graph."""

    def __init__(
        self,
        kg: Graph,
        config: AggregatorConfig | None = None,
        clock: SimClock | None = None,
        resilience: ResilienceManager | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.kg = kg
        self.config = config or AggregatorConfig()
        self.clock = clock if clock is not None else SimClock()
        self.resilience = resilience or ResilienceManager()
        self.tracer = tracer

    def merge(
        self,
        scene_graphs: list[SceneGraphResult],
        annotations: dict[tuple[int, str], str] | None = None,
        skipped_images: list[int] | None = None,
    ) -> MergedGraph:
        """Algorithm 1: align all scene graphs with the KG.

        ``annotations`` maps ``(image_id, detected_label)`` to an entity
        name — external identity metadata for the movie scenario.
        ``skipped_images`` carries image ids already dropped upstream
        (SGG); images whose merge fails permanently under the
        resilience manager join the list, and the result is *partial*.
        """
        annotations = annotations or {}
        skipped: list[int] = list(skipped_images or [])
        graph = _copy_graph(self.kg, name="merged-graph")
        concept_by_label = {
            v.label: v.id for v in graph.vertices()
        }

        # ----- Initial stage (lines 1-7): category stats + subgraph cache
        category_counts = _count_categories(scene_graphs)
        cache: list[SubgraphView] = []
        cached_categories: list[str] = []
        if self.config.use_cache:
            for category, count in sorted(category_counts.items(),
                                          key=lambda kv: -kv[1]):
                if count <= self.config.frequency_threshold:
                    continue
                anchor = concept_by_label.get(category)
                if anchor is None:
                    continue
                self.clock.charge("subgraph_extract")
                cache.append(k_hop_subgraph(graph, anchor,
                                            self.config.subgraph_hops))
                cached_categories.append(category)

        cached_vertex_labels: set[str] = set()
        for view in cache:
            cached_vertex_labels.update(view.label_index)

        # ----- Attach stage (lines 8-16): link every scene-graph vertex
        tallies = _AttachTallies()
        instance_ids: list[int] = []

        for scene_graph in scene_graphs:
            with maybe_span(self.tracer, "aggregate.merge",
                            image=scene_graph.image_id):
                # fault checks happen before the attach closure runs,
                # so a skipped image never leaves half-merged vertices
                # behind
                self.resilience.call(
                    "aggregator.merge", scene_graph.image_id,
                    lambda sg=scene_graph: self._attach_scene_graph(
                        graph, sg, annotations, cache,
                        cached_vertex_labels, concept_by_label,
                        instance_ids, tallies,
                    ),
                    clock=self.clock,
                    fallback=lambda sg=scene_graph:
                        skipped.append(sg.image_id),
                )

        type_fraction = (
            len(cached_categories) / len(category_counts)
            if category_counts else 0.0
        )
        vertex_fraction = (
            tallies.covered_vertices / tallies.total_vertices
            if tallies.total_vertices else 0.0
        )
        stats = MergeStats(
            category_counts=category_counts,
            cached_categories=cached_categories,
            cached_type_fraction=type_fraction,
            covered_vertex_fraction=vertex_fraction,
            cache_links=tallies.cache_links,
            storage_links=tallies.storage_links,
            created_concepts=tallies.created,
        )
        return MergedGraph(graph=graph, stats=stats,
                           instance_ids=instance_ids,
                           skipped_images=sorted(set(skipped)))

    def _attach_scene_graph(
        self,
        graph: Graph,
        scene_graph: SceneGraphResult,
        annotations: dict[tuple[int, str], str],
        cache: list[SubgraphView],
        cached_vertex_labels: set[str],
        concept_by_label: dict[str, int],
        instance_ids: list[int],
        tallies: _AttachTallies,
    ) -> None:
        """Attach one image's scene graph (the loop body of lines 8-16)."""
        local: dict[int, int] = {}
        for detection in scene_graph.detections:
            tallies.total_vertices += 1
            name = annotations.get(
                (scene_graph.image_id, detection.label)
            )
            label = name if name is not None else detection.label
            instance = graph.add_vertex(label, {
                "kind": "instance",
                "image_id": scene_graph.image_id,
                "det_index": detection.index,
                "category": detection.label,
            })
            instance_ids.append(instance.id)
            local[detection.index] = instance.id

            concept_id = self._resolve_concept(
                graph, cache, concept_by_label, detection.label
            )
            if concept_id is None:
                # not even storage knows this label: create a fresh
                # concept so the merged graph stays connected
                concept_id = graph.add_vertex(
                    detection.label, {"kind": "concept"}
                ).id
                concept_by_label[detection.label] = concept_id
                tallies.created += 1
            elif detection.label in cached_vertex_labels:
                tallies.cache_links += 1
                tallies.covered_vertices += 1
            else:
                tallies.storage_links += 1
            self.clock.charge("merge_link")
            graph.add_edge(instance.id, concept_id, INSTANCE_OF)

            if name is not None:
                entity_id = concept_by_label.get(name)
                if entity_id is None:
                    entity_id = graph.add_vertex(
                        name, {"kind": "entity"}
                    ).id
                    concept_by_label[name] = entity_id
                    tallies.created += 1
                graph.add_edge(instance.id, entity_id, INSTANCE_OF)

        for relation in scene_graph.relations:
            if relation.src in local and relation.dst in local:
                graph.add_edge(
                    local[relation.src], local[relation.dst],
                    relation.predicate,
                    {"image_id": scene_graph.image_id,
                     "score": relation.score},
                )

    def _resolve_concept(
        self,
        graph: Graph,
        cache: list[SubgraphView],
        concept_by_label: dict[str, int],
        label: str,
    ) -> int | None:
        """Find the concept vertex for ``label``: cache first, then
        storage (lines 9-14)."""
        for view in cache:
            matches = view.find_vertices(label)
            if matches:
                self.clock.charge("cache_hit")
                return matches[0].id
        self.clock.charge("kg_lookup")
        return concept_by_label.get(label)


def _count_categories(
    scene_graphs: list[SceneGraphResult]
) -> dict[str, int]:
    counts: dict[str, int] = {}
    for scene_graph in scene_graphs:
        for detection in scene_graph.detections:
            counts[detection.label] = counts.get(detection.label, 0) + 1
    return counts


def _copy_graph(source: Graph, name: str) -> Graph:
    copy = Graph(name=name)
    for vertex in source.vertices():
        copy.add_vertex(vertex.label, vertex.props, vertex_id=vertex.id)
    for edge in source.edges():
        copy.add_edge(edge.src, edge.dst, edge.label, edge.props)
    return copy
