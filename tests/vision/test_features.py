"""Unit tests for feature-map extraction and the TDE mask.

They exercise the mask-based reference extraction and mask of
:mod:`tests.vision.oracles`; ``test_vision_oracle`` proves the
detector's run-sum features byte-equal to it.
"""

import numpy as np
import pytest

from repro.synth import (
    Box,
    SceneObject,
    SceneRelation,
    SyntheticScene,
    relation_index,
)
from repro.vision.features import APPEARANCE_DIM, FEATURE_DIM, GEOMETRY_DIM
from tests.vision.oracles import extract_features, masked


@pytest.fixture
def scene_raster():
    objects = [
        SceneObject(0, "grass", Box(0, 64, 128, 64), 0.9),
        SceneObject(1, "dog", Box(30, 55, 24, 24), 0.3),
        SceneObject(2, "frisbee", Box(48, 60, 8, 8), 0.2),
    ]
    relations = [SceneRelation(1, 2, "catching")]
    scene = SyntheticScene(0, objects, relations)
    return scene, scene.render()


def region_of(raster, index):
    return raster.instances == index


class TestExtraction:
    def test_feature_dimension(self, scene_raster):
        _, raster = scene_raster
        features = extract_features(raster, Box(30, 55, 24, 24),
                                    region_of(raster, 1))
        assert features.vector.shape == (FEATURE_DIM,)

    def test_geometry_normalized(self, scene_raster):
        _, raster = scene_raster
        box = Box(30, 55, 24, 24)
        features = extract_features(raster, box, region_of(raster, 1))
        geometry = features.vector[:GEOMETRY_DIM]
        assert np.all(geometry >= 0)
        assert np.all(geometry[:5] <= 1)

    def test_interaction_signal_present(self, scene_raster):
        _, raster = scene_raster
        dog = extract_features(raster, Box(30, 55, 24, 24),
                               region_of(raster, 1))
        frisbee = extract_features(raster, Box(48, 60, 8, 8),
                                   region_of(raster, 2))
        catching = relation_index("catching")
        assert dog.subject_signal[catching] > 0.5
        assert frisbee.object_signal[catching] > 0.5

    def test_occlusion_dilutes_signal(self, scene_raster):
        # the dog's region includes pixels stolen by the frisbee; its
        # pooled subject signal stays near 1 only for its own pixels
        _, raster = scene_raster
        mixed_mask = (raster.instances == 1) | (raster.instances == 2)
        mixed = extract_features(raster, Box(30, 55, 28, 24), mixed_mask)
        pure = extract_features(raster, Box(30, 55, 24, 24),
                                region_of(raster, 1))
        catching = relation_index("catching")
        assert mixed.subject_signal[catching] < \
            pure.subject_signal[catching] + 1e-9

    def test_empty_region(self, scene_raster):
        _, raster = scene_raster
        empty = np.zeros_like(raster.instances, dtype=bool)
        features = extract_features(raster, Box(0, 0, 4, 4), empty)
        assert np.all(features.subject_signal == 0)


class TestMask:
    def test_mask_zeroes_interaction_only(self, scene_raster):
        _, raster = scene_raster
        features = extract_features(raster, Box(30, 55, 24, 24),
                                    region_of(raster, 1))
        masked_features = masked(features)
        assert np.all(masked_features.subject_signal == 0)
        assert np.all(masked_features.object_signal == 0)
        # geometry and appearance, the parts before the signals, stay
        kept = GEOMETRY_DIM + APPEARANCE_DIM
        assert np.allclose(masked_features.vector[:kept],
                           features.vector[:kept])

    def test_mask_is_a_copy(self, scene_raster):
        _, raster = scene_raster
        features = extract_features(raster, Box(30, 55, 24, 24),
                                    region_of(raster, 1))
        masked(features)
        catching = relation_index("catching")
        assert features.subject_signal[catching] > 0.5


class TestUbiquitousSignals:
    def test_near_has_no_signal(self):
        objects = [
            SceneObject(0, "dog", Box(10, 10, 20, 20), 0.4),
            SceneObject(1, "cat", Box(40, 10, 18, 18), 0.4),
        ]
        scene = SyntheticScene(0, objects,
                               [SceneRelation(0, 1, "near")])
        raster = scene.render()
        near = relation_index("near")
        assert raster.subject_signals[0, near] == 0.0
        assert raster.object_signals[1, near] == 0.0

    def test_tail_spatial_has_signal(self):
        objects = [
            SceneObject(0, "dog", Box(10, 10, 20, 20), 0.2),
            SceneObject(1, "man", Box(32, 10, 20, 30), 0.6),
        ]
        scene = SyntheticScene(0, objects,
                               [SceneRelation(0, 1, "in front of")])
        raster = scene.render()
        k = relation_index("in front of")
        assert raster.subject_signals[0, k] == 1.0
