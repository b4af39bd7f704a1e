"""Unit tests for relation prediction and TDE debiasing.

Per-pair scores come from :mod:`tests.vision.oracles`, which
``test_vision_oracle`` proves byte-equal to the per-image matrix path.
"""

import numpy as np
import pytest

from repro.synth import (
    Box,
    RELATIONS,
    SceneObject,
    SceneRelation,
    SyntheticScene,
    relation_index,
)
from repro.vision import (
    DetectorConfig,
    MOTIFNET,
    RelationPredictor,
    SimulatedDetector,
    VTRANSE,
)
from repro.vision import detector as detector_module
from tests.vision.oracles import (
    pair_logits,
    pair_probabilities,
    predict_relation,
    tde_scores,
)


@pytest.fixture
def catch_scene():
    """A dog catching a frisbee on grass — semantic relation present."""
    objects = [
        SceneObject(0, "grass", Box(0, 60, 128, 68), 0.9),
        SceneObject(1, "dog", Box(30, 50, 26, 26), 0.3),
        SceneObject(2, "frisbee", Box(52, 58, 8, 8), 0.25),
    ]
    relations = [
        SceneRelation(1, 0, "standing on"),
        SceneRelation(1, 2, "catching"),
    ]
    return SyntheticScene(3, objects, relations)


@pytest.fixture
def detections(catch_scene, monkeypatch):
    monkeypatch.setattr(detector_module, "BOX_JITTER", 0.0)
    detector = SimulatedDetector(DetectorConfig(label_noise=0.0,
                                                miss_rate=0.0))
    return detector.detect(catch_scene.render(), 3)


def by_label(detections, label):
    return next(d for d in detections if d.label == label)


class TestPrediction:
    def test_probabilities_normalized(self, detections):
        predictor = RelationPredictor(MOTIFNET)
        dog = by_label(detections, "dog")
        frisbee = by_label(detections, "frisbee")
        probs = pair_probabilities(predictor, dog, frisbee, 3)
        assert probs.shape == (len(RELATIONS),)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()

    def test_deterministic(self, detections):
        predictor = RelationPredictor(MOTIFNET)
        dog = by_label(detections, "dog")
        frisbee = by_label(detections, "frisbee")
        a = pair_probabilities(predictor, dog, frisbee, 3)
        b = pair_probabilities(predictor, dog, frisbee, 3)
        assert np.allclose(a, b)

    def test_masked_pass_removes_evidence(self, detections):
        predictor = RelationPredictor(MOTIFNET)
        dog = by_label(detections, "dog")
        frisbee = by_label(detections, "frisbee")
        factual = pair_logits(predictor, dog, frisbee, 3, masked=False)
        masked = pair_logits(predictor, dog, frisbee, 3, masked=True)
        catching = relation_index("catching")
        assert factual[catching] > masked[catching]


class TestTDE:
    def test_tde_recovers_semantic_relation(self, detections):
        predictor = RelationPredictor(MOTIFNET)
        dog = by_label(detections, "dog")
        frisbee = by_label(detections, "frisbee")
        best, _, _ = predict_relation(predictor, dog, frisbee, 3,
                                      use_tde=True)
        assert RELATIONS[best] == "catching"

    def test_tde_scores_shape(self, detections):
        predictor = RelationPredictor(MOTIFNET)
        dog = by_label(detections, "dog")
        grass = by_label(detections, "grass")
        scores = tde_scores(predictor, dog, grass, 3)
        assert scores.shape == (len(RELATIONS),)

    def test_biased_prediction_favors_head_classes(self, detections):
        # over many pair-noise draws the biased model must put more
        # probability mass on head predicates than the TDE pass leaves
        predictor = RelationPredictor(VTRANSE)
        dog = by_label(detections, "dog")
        frisbee = by_label(detections, "frisbee")
        head = [relation_index(p) for p in ("on", "near", "has")]
        biased_mass = sum(
            pair_probabilities(predictor, dog, frisbee, image_id)[head].sum()
            for image_id in range(30)
        )
        tde_mass = sum(
            np.clip(tde_scores(predictor, dog, frisbee, image_id), 0,
                    None)[head].sum()
            for image_id in range(30)
        )
        assert biased_mass > tde_mass

    def test_evidence_weight_ordering(self, detections):
        # Motifs extracts evidence better than VTransE on average
        dog = by_label(detections, "dog")
        frisbee = by_label(detections, "frisbee")
        catching = relation_index("catching")
        motifs_scores = np.mean([
            tde_scores(RelationPredictor(MOTIFNET), dog, frisbee, i)[catching]
            for i in range(40)
        ])
        vtranse_scores = np.mean([
            tde_scores(RelationPredictor(VTRANSE), dog, frisbee, i)[catching]
            for i in range(40)
        ])
        assert motifs_scores > vtranse_scores
