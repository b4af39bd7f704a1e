"""Unit tests for the SGG pipeline and mR@K metrics."""

import pytest

from repro.simtime import SimClock
from repro.synth import RELATIONS, SceneGenerator
from repro.vision import (
    MOTIFNET,
    VTRANSE,
    RelationPredictor,
    SGGConfig,
    SGGPipeline,
    SimulatedDetector,
    mean_recall_at,
)
from repro.vision import scene_graph as sgg_module


@pytest.fixture(scope="module")
def scenes():
    return SceneGenerator(seed=21).generate_pool(40)


@pytest.fixture(scope="module")
def pipeline():
    return SGGPipeline(SimulatedDetector(), RelationPredictor(MOTIFNET))


class TestPipeline:
    def test_produces_scene_graph(self, scenes, pipeline):
        result = pipeline.run(scenes[0])
        assert result.image_id == scenes[0].image_id
        assert result.detections
        assert result.relations

    def test_relations_reference_detections(self, scenes, pipeline):
        result = pipeline.run(scenes[0])
        n = len(result.detections)
        for relation in result.relations:
            assert 0 <= relation.src < n
            assert 0 <= relation.dst < n
            assert relation.predicate in RELATIONS

    def test_kept_relations_bounded(self, scenes, pipeline, monkeypatch):
        monkeypatch.setattr(sgg_module, "KEEP_PER_DETECTION", 1.0)
        monkeypatch.setattr(sgg_module, "MIN_KEEP", 2)
        pipe = SGGPipeline(SimulatedDetector(),
                           RelationPredictor(MOTIFNET))
        result = pipe.run(scenes[1])
        assert len(result.relations) <= max(2, len(result.detections))

    def test_ranked_triples_sorted(self, scenes, pipeline):
        result = pipeline.run(scenes[2])
        scores = [t.score for t in result.ranked_triples]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic(self, scenes, pipeline):
        a = pipeline.run(scenes[3])
        b = pipeline.run(scenes[3])
        assert [(t.src, t.dst, t.predicate) for t in a.relations] == \
            [(t.src, t.dst, t.predicate) for t in b.relations]

    def test_clock_charged(self, scenes):
        clock = SimClock()
        pipe = SGGPipeline(SimulatedDetector(),
                           RelationPredictor(MOTIFNET), clock=clock)
        pipe.run(scenes[0])
        assert clock.elapsed > 0
        assert clock.counts["detector_forward"] == 1

    def test_run_many(self, scenes, pipeline):
        results = pipeline.run_many(scenes[:5])
        assert len(results) == 5


class TestMeanRecall:
    def test_mr_in_unit_interval(self, scenes, pipeline):
        results = pipeline.run_many(scenes)
        mr = mean_recall_at(results, scenes)
        for value in mr.values():
            assert 0.0 <= value <= 1.0

    def test_mr_monotone_in_k(self, scenes, pipeline):
        results = pipeline.run_many(scenes)
        mr = mean_recall_at(results, scenes, ks=(10, 20, 50))
        assert mr[10] <= mr[20] <= mr[50]

    def test_tde_beats_original(self, scenes):
        detector = SimulatedDetector()
        predictor = RelationPredictor(MOTIFNET)
        with_tde = SGGPipeline(detector, predictor,
                               SGGConfig(use_tde=True)).run_many(scenes)
        without = SGGPipeline(detector, predictor,
                              SGGConfig(use_tde=False)).run_many(scenes)
        mr_tde = mean_recall_at(with_tde, scenes, ks=(50,))[50]
        mr_orig = mean_recall_at(without, scenes, ks=(50,))[50]
        assert mr_tde > mr_orig

    def test_motifs_beats_vtranse(self, scenes):
        detector = SimulatedDetector()
        motifs = SGGPipeline(detector, RelationPredictor(MOTIFNET),
                             SGGConfig(use_tde=False)).run_many(scenes)
        vtranse = SGGPipeline(detector, RelationPredictor(VTRANSE),
                              SGGConfig(use_tde=False)).run_many(scenes)
        mr_motifs = mean_recall_at(motifs, scenes, ks=(50,))[50]
        mr_vtranse = mean_recall_at(vtranse, scenes, ks=(50,))[50]
        assert mr_motifs > mr_vtranse

    def test_length_mismatch_raises(self, scenes, pipeline):
        results = pipeline.run_many(scenes[:3])
        with pytest.raises(ValueError):
            mean_recall_at(results, scenes)
