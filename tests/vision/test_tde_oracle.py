"""Differential test: the one-pass TDE against the two-pass original.

The reference below is the predictor as first written: each call
builds the pair's random stream, the bias + geometry term and the
noise from scratch, and the counterfactual pass runs the whole
predictor again on zero-masked feature maps.  The fused per-pair pass
(:mod:`tests.vision.oracles`, itself the oracle of the per-image
matrix path) shares those terms; every score it produces must be
bit-for-bit equal (``np.array_equal``) over every candidate pair of a
seeded scene set, for every relation model.
"""

import numpy as np
import pytest

from repro.synth import RELATIONS, SceneGenerator
from repro.vision import (
    MODELS,
    RelationPredictor,
    SimulatedDetector,
    candidate_pairs,
)
from repro.vision.relation import BIAS_WEIGHT, GEOMETRY_WEIGHT
from tests.vision import oracles


def two_pass_logits(predictor, subject, obj, image_id, masked):
    """Reference Eq. 1 / Eq. 2 logits: one full predictor run."""
    rng = predictor._pair_rng(subject, obj, image_id)
    logits = BIAS_WEIGHT * predictor._log_prior.copy()
    logits += GEOMETRY_WEIGHT * oracles.geometry_hint(subject, obj)
    subject_features = oracles.masked(subject.features) if masked \
        else subject.features
    object_features = oracles.masked(obj.features) if masked \
        else obj.features
    evidence = subject_features.subject_signal * \
        object_features.object_signal
    extraction = rng.random(len(RELATIONS)) < \
        predictor.spec.evidence_fidelity
    logits += predictor.spec.evidence_weight * evidence * extraction
    logits += rng.normal(0.0, predictor.spec.noise_scale, len(RELATIONS))
    return logits


def two_pass_probabilities(predictor, subject, obj, image_id, masked):
    logits = two_pass_logits(predictor, subject, obj, image_id, masked)
    logits -= logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()


def two_pass_tde(predictor, subject, obj, image_id):
    """Reference Eq. 3 scores: factual minus counterfactual pass."""
    return (two_pass_probabilities(predictor, subject, obj, image_id,
                                   masked=False)
            - two_pass_probabilities(predictor, subject, obj, image_id,
                                     masked=True))


@pytest.fixture(scope="module")
def scored_pairs():
    """Every candidate pair of a seeded scene set, with its image id."""
    detector = SimulatedDetector()
    pairs = []
    for scene in SceneGenerator(seed=13).generate_pool(12):
        detections = detector.detect(scene.render(), scene.image_id)
        for subject, obj in candidate_pairs(detections):
            pairs.append((scene.image_id, subject, obj))
    assert len(pairs) > 100
    return pairs


@pytest.mark.parametrize("model", sorted(MODELS))
class TestFusedPassMatchesTwoPasses:
    def test_tde_scores(self, model, scored_pairs):
        predictor = RelationPredictor(MODELS[model])
        for image_id, subject, obj in scored_pairs:
            assert np.array_equal(
                oracles.tde_scores(predictor, subject, obj, image_id),
                two_pass_tde(predictor, subject, obj, image_id),
            )

    def test_logits_and_probabilities_both_passes(self, model,
                                                  scored_pairs):
        predictor = RelationPredictor(MODELS[model], seed=3)
        for image_id, subject, obj in scored_pairs:
            for masked in (False, True):
                assert np.array_equal(
                    oracles.pair_logits(predictor, subject, obj, image_id,
                                        masked=masked),
                    two_pass_logits(predictor, subject, obj, image_id,
                                    masked),
                )
                assert np.array_equal(
                    oracles.pair_probabilities(predictor, subject, obj,
                                               image_id, masked=masked),
                    two_pass_probabilities(predictor, subject, obj,
                                           image_id, masked),
                )

    def test_predicted_relation_both_ablations(self, model, scored_pairs):
        predictor = RelationPredictor(MODELS[model])
        for image_id, subject, obj in scored_pairs:
            best, score, scores = oracles.predict_relation(
                predictor, subject, obj, image_id, use_tde=True)
            reference = two_pass_tde(predictor, subject, obj, image_id)
            assert best == int(np.argmax(reference))
            assert score == float(reference[best])
            biased = oracles.predict_relation(predictor, subject, obj,
                                              image_id, use_tde=False)[2]
            assert np.array_equal(
                biased,
                two_pass_probabilities(predictor, subject, obj,
                                       image_id, masked=False),
            )
