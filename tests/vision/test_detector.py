"""Unit tests for the simulated detector."""

import pytest

from repro.synth import Box, SceneGenerator, SceneObject, SceneRelation, SyntheticScene
from repro.synth.scene import iou
from repro.vision import DetectorConfig, SimulatedDetector
from repro.vision import detector as detector_module


def match_boxes(detected, truth, threshold=0.5):
    """Greedy IoU matching: detected index -> ground-truth index.

    Each ground-truth box is matched at most once; pairs are taken in
    descending IoU order, and pairs below ``threshold`` are ignored.
    """
    pairs = []
    for i, det in enumerate(detected):
        for j, gt in enumerate(truth):
            score = iou(det, gt)
            if score >= threshold:
                pairs.append((score, i, j))
    pairs.sort(key=lambda p: -p[0])
    matched = {}
    used_truth = set()
    for _, i, j in pairs:
        if i in matched or j in used_truth:
            continue
        matched[i] = j
        used_truth.add(j)
    return matched


@pytest.fixture
def simple_scene():
    objects = [
        SceneObject(0, "grass", Box(0, 64, 128, 64), 0.9),
        SceneObject(1, "dog", Box(30, 55, 24, 24), 0.3),
        SceneObject(2, "man", Box(80, 40, 22, 40), 0.4),
    ]
    relations = [SceneRelation(1, 0, "standing on")]
    return SyntheticScene(1, objects, relations)


class TestDetection:
    def test_detects_visible_objects(self, simple_scene):
        detector = SimulatedDetector(DetectorConfig(label_noise=0.0,
                                                    miss_rate=0.0))
        detections = detector.detect(simple_scene.render(), 1)
        labels = {d.label for d in detections}
        assert {"grass", "dog", "man"} <= labels

    def test_boxes_near_truth(self, simple_scene):
        detector = SimulatedDetector(DetectorConfig(label_noise=0.0,
                                                    miss_rate=0.0))
        detections = detector.detect(simple_scene.render(), 1)
        dog = next(d for d in detections if d.label == "dog")
        assert iou(dog.box, Box(30, 55, 24, 24)) > 0.4

    def test_deterministic_per_image(self, simple_scene):
        detector = SimulatedDetector()
        raster = simple_scene.render()
        first = detector.detect(raster, 1)
        second = detector.detect(raster, 1)
        assert [(d.label, d.box) for d in first] == \
            [(d.label, d.box) for d in second]

    def test_different_image_id_different_noise(self, simple_scene,
                                                 monkeypatch):
        monkeypatch.setattr(detector_module, "BOX_JITTER", 0.2)
        detector = SimulatedDetector()
        raster = simple_scene.render()
        first = detector.detect(raster, 1)
        second = detector.detect(raster, 2)
        assert [d.box for d in first] != [d.box for d in second]

    def test_tiny_object_missed(self, monkeypatch):
        objects = [
            SceneObject(0, "grass", Box(0, 0, 128, 128), 0.9),
            SceneObject(1, "frisbee", Box(60, 60, 3, 3), 0.2),
        ]
        scene = SyntheticScene(0, objects, [SceneRelation(1, 0, "on")])
        monkeypatch.setattr(detector_module, "MIN_AREA", 12)
        detector = SimulatedDetector(DetectorConfig(miss_rate=0.0))
        detections = detector.detect(scene.render(), 0)
        assert all(d.label != "frisbee" for d in detections)

    def test_occluded_object_depth_estimate(self, simple_scene):
        # grass is heavily occluded by dog+man -> larger depth estimate
        detector = SimulatedDetector(DetectorConfig(label_noise=0.0,
                                                    miss_rate=0.0))
        detections = detector.detect(simple_scene.render(), 1)
        dog = next(d for d in detections if d.label == "dog")
        assert 0.0 <= dog.depth_estimate <= 1.0

    def test_scores_in_range(self, simple_scene):
        detector = SimulatedDetector()
        for detection in detector.detect(simple_scene.render(), 1):
            assert 0.0 < detection.score < 1.0

    def test_label_noise_produces_confusions(self):
        # with extreme noise, some labels must flip to confusable classes
        scenes = SceneGenerator(seed=4).generate_pool(40)
        detector = SimulatedDetector(DetectorConfig(label_noise=0.9,
                                                    miss_rate=0.0))
        flips = 0
        for scene in scenes:
            detections = detector.detect(scene.render(), scene.image_id)
            truth_boxes = [o.box for o in scene.objects]
            matched = match_boxes([d.box for d in detections], truth_boxes,
                                  threshold=0.3)
            for det_index, truth_index in matched.items():
                if detections[det_index].label != \
                        scene.objects[truth_index].category:
                    flips += 1
        assert flips > 0


class TestMatchBoxes:
    def test_one_to_one(self):
        detected = [Box(0, 0, 10, 10), Box(50, 50, 10, 10)]
        truth = [Box(1, 1, 10, 10), Box(49, 49, 10, 10)]
        matched = match_boxes(detected, truth)
        assert matched == {0: 0, 1: 1}

    def test_below_threshold_unmatched(self):
        matched = match_boxes([Box(0, 0, 10, 10)], [Box(40, 40, 10, 10)])
        assert matched == {}

    def test_truth_used_once(self):
        detected = [Box(0, 0, 10, 10), Box(1, 1, 10, 10)]
        truth = [Box(0, 0, 10, 10)]
        matched = match_boxes(detected, truth)
        assert len(matched) == 1
