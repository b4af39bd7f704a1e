"""Unit tests for the Data Aggregator (Algorithm 1)."""

import pytest

from repro.core import AggregatorConfig, DataAggregator
from repro.dataset.kg import build_commonsense_kg, build_movie_kg
from repro.graph import INSTANCE_OF
from repro.simtime import SimClock
from repro.synth import SceneGenerator
from repro.vision import MOTIFNET, RelationPredictor, SGGPipeline, SimulatedDetector


@pytest.fixture(scope="module")
def scene_graphs():
    scenes = SceneGenerator(seed=13).generate_pool(30)
    pipeline = SGGPipeline(SimulatedDetector(), RelationPredictor(MOTIFNET))
    return pipeline.run_many(scenes)


class TestMerge:
    def test_instances_added(self, scene_graphs):
        kg = build_commonsense_kg()
        merged = DataAggregator(kg).merge(scene_graphs)
        assert merged.graph.vertex_count > kg.vertex_count
        assert len(merged.instance_ids) == sum(
            len(sg.detections) for sg in scene_graphs
        )

    def test_every_instance_linked_to_concept(self, scene_graphs):
        merged = DataAggregator(build_commonsense_kg()).merge(scene_graphs)
        for instance_id in merged.instance_ids:
            edges = [e for e in merged.graph.out_edges(instance_id)
                     if e.label == INSTANCE_OF]
            assert edges, f"instance {instance_id} not linked"

    def test_scene_relations_become_edges(self, scene_graphs):
        merged = DataAggregator(build_commonsense_kg()).merge(scene_graphs)
        scene_edges = [
            e for e in merged.graph.edges()
            if e.props.get("image_id") is not None
        ]
        assert len(scene_edges) == sum(
            len(sg.relations) for sg in scene_graphs
        )

    def test_kg_untouched(self, scene_graphs):
        kg = build_commonsense_kg()
        before = kg.vertex_count
        DataAggregator(kg).merge(scene_graphs)
        assert kg.vertex_count == before

    def test_merge_deterministic(self, scene_graphs):
        a = DataAggregator(build_commonsense_kg()).merge(scene_graphs)
        b = DataAggregator(build_commonsense_kg()).merge(scene_graphs)
        assert a.graph.vertex_count == b.graph.vertex_count
        assert a.graph.edge_count == b.graph.edge_count


class TestCache:
    def test_cache_equals_direct_merge(self, scene_graphs):
        """Cache-assisted merging must produce the same graph."""
        cached = DataAggregator(
            build_commonsense_kg(), AggregatorConfig(use_cache=True)
        ).merge(scene_graphs)
        direct = DataAggregator(
            build_commonsense_kg(), AggregatorConfig(use_cache=False)
        ).merge(scene_graphs)
        assert cached.graph.vertex_count == direct.graph.vertex_count
        assert cached.graph.edge_count == direct.graph.edge_count

    def test_cache_reduces_storage_lookups(self, scene_graphs):
        clock_cached = SimClock()
        DataAggregator(build_commonsense_kg(), clock=clock_cached).merge(
            scene_graphs
        )
        clock_direct = SimClock()
        DataAggregator(
            build_commonsense_kg(), AggregatorConfig(use_cache=False),
            clock=clock_direct,
        ).merge(scene_graphs)
        cached_lookups = clock_cached.counts.get("kg_lookup", 0)
        direct_lookups = clock_direct.counts.get("kg_lookup", 0)
        assert cached_lookups < direct_lookups

    def test_coverage_stats(self, scene_graphs):
        merged = DataAggregator(build_commonsense_kg()).merge(scene_graphs)
        stats = merged.stats
        assert 0.0 <= stats.cached_type_fraction <= 1.0
        assert 0.0 <= stats.covered_vertex_fraction <= 1.0
        assert stats.cache_links + stats.storage_links + \
            stats.created_concepts >= 0

    def test_threshold_controls_cache_size(self, scene_graphs):
        low = DataAggregator(
            build_commonsense_kg(),
            AggregatorConfig(frequency_threshold=1),
        ).merge(scene_graphs)
        high = DataAggregator(
            build_commonsense_kg(),
            AggregatorConfig(frequency_threshold=50),
        ).merge(scene_graphs)
        assert len(low.stats.cached_categories) >= \
            len(high.stats.cached_categories)


class TestAnnotations:
    def test_named_instances_link_to_entities(self, scene_graphs):
        kg = build_movie_kg()
        image_id = scene_graphs[0].image_id
        label = scene_graphs[0].detections[0].label
        merged = DataAggregator(kg).merge(
            scene_graphs, annotations={(image_id, label): "Harry Potter"}
        )
        harrys = merged.graph.find_vertices("Harry Potter")
        kinds = {v.props.get("kind") for v in harrys}
        assert "instance" in kinds and "entity" in kinds

    def test_edge_labels_exposed(self, scene_graphs):
        merged = DataAggregator(build_commonsense_kg()).merge(scene_graphs)
        assert INSTANCE_OF in merged.graph.edge_labels
