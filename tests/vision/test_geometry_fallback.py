"""Tests for the TDE geometry fallback in the SGG pipeline.

Pairs without a direct visual effect (ubiquitous predicates have no
appearance signal) must still receive a geometry-derived spatial edge —
otherwise the merged graph would lose its near/on edges and judgment
questions would starve.
"""

import pytest

from repro.synth import (
    Box,
    SceneObject,
    SceneRelation,
    SyntheticScene,
    UBIQUITOUS_RELATIONS,
)
from repro.vision import (
    MOTIFNET,
    DetectorConfig,
    RelationPredictor,
    SGGConfig,
    SGGPipeline,
    SimulatedDetector,
)
from repro.vision.scene_graph import GEOMETRY_FALLBACK_SCORE, KEEP_MIN_SCORE


@pytest.fixture
def near_only_scene():
    """Two objects related only by the (signal-free) 'near' predicate."""
    objects = [
        SceneObject(0, "dog", Box(20, 40, 20, 20), 0.4),
        SceneObject(1, "cat", Box(42, 41, 18, 18), 0.4),
    ]
    return SyntheticScene(0, objects, [SceneRelation(0, 1, "near")])


def make_pipeline(use_tde=True):
    detector = SimulatedDetector(DetectorConfig(label_noise=0.0,
                                                miss_rate=0.0))
    return SGGPipeline(detector, RelationPredictor(MOTIFNET),
                       SGGConfig(use_tde=use_tde))


class TestFallback:
    def test_spatial_edge_survives_tde(self, near_only_scene):
        result = make_pipeline(use_tde=True).run(near_only_scene)
        predicates = {r.predicate for r in result.relations}
        spatial = UBIQUITOUS_RELATIONS | {"next to", "behind",
                                          "in front of"}
        assert predicates & spatial

    def test_fallback_score_below_confident_tde(self):
        assert GEOMETRY_FALLBACK_SCORE < 0.3
        assert GEOMETRY_FALLBACK_SCORE >= KEEP_MIN_SCORE

    def test_semantic_pair_not_replaced(self):
        # a pair WITH visual evidence keeps its TDE prediction
        objects = [
            SceneObject(0, "dog", Box(20, 40, 24, 24), 0.3),
            SceneObject(1, "frisbee", Box(40, 46, 8, 8), 0.25),
        ]
        scene = SyntheticScene(0, objects,
                               [SceneRelation(0, 1, "catching")])
        result = make_pipeline(use_tde=True).run(scene)
        dog_frisbee = [
            r for r in result.relations
            if result.detections[r.src].label == "dog"
            and result.detections[r.dst].label == "frisbee"
        ]
        assert dog_frisbee
        assert dog_frisbee[0].predicate == "catching"
        assert dog_frisbee[0].score > GEOMETRY_FALLBACK_SCORE

    def test_biased_path_has_no_fallback_edges(self, near_only_scene):
        result = make_pipeline(use_tde=False).run(near_only_scene)
        assert all(r.score != GEOMETRY_FALLBACK_SCORE
                   for r in result.relations)
