"""Differential tests: the vectorised vision build against its oracle.

The detector labels the whole raster from row runs and the relation
predictor scores an image's candidate pairs as one matrix; both must
reproduce :mod:`tests.vision.oracles` (``scipy.ndimage`` labelling,
mask-based features, per-pair scoring) byte for byte:

* every :class:`~repro.vision.detector.Detection` — box, label, score,
  depth estimate and ``features.vector.tobytes()`` — on a seeded scene
  pool and on hypothesis-generated rasters whose shapes stress the run
  joining (diagonal-only contact, U and ring shapes whose arms meet in
  a row below their start, same-label neighbours of different
  instances, 1-pixel regions, regions on the border);
* every :class:`~repro.vision.scene_graph.SceneGraphResult`, for all
  three relation models with TDE on and off.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.synth import RELATIONS, SceneGenerator
from repro.synth.scene import Raster
from repro.vision import (
    MODELS,
    DetectorConfig,
    RelationPredictor,
    SGGConfig,
    SGGPipeline,
    SimulatedDetector,
    candidate_pairs,
)
from repro.vision import detector as detector_module
from repro.vision.detector import _regions
from repro.vision.relation import spatial_predicates
from tests.vision import oracles

pytest.importorskip("scipy")

#: with :func:`noisy_detector`'s constants, keeps every region and
#: makes every random draw matter
NOISY = DetectorConfig(miss_rate=0.2, label_noise=0.5, seed=7)


@contextlib.contextmanager
def noisy_detector():
    """A detector under ``NOISY`` that keeps 1-pixel regions and jitters
    boxes by a tenth of their size."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detector_module, "MIN_AREA", 1)
        patch.setattr(detector_module, "BOX_JITTER", 0.1)
        yield SimulatedDetector(NOISY)


def detection_bytes(detections):
    return [(d.index, d.box, d.label, repr(d.score), repr(d.depth_estimate),
             d.features.vector.tobytes()) for d in detections]


def result_bytes(result):
    return (result.image_id, detection_bytes(result.detections),
            repr(result.relations), repr(result.ranked_triples),
            result.degraded)


def oracle_regions(raster):
    """``_regions`` rebuilt from one ndimage mask per region."""
    _, _, _, instance_pixels = _regions(raster)
    objects = instance_pixels.shape[1]
    rows = []
    for value, mask in oracles.connected_regions(raster.labels):
        box = oracles.region_box(mask)
        owners = raster.instances[mask]
        rows.append((value, (box.x, box.y, box.w, box.h), int(mask.sum()),
                     np.bincount(owners[owners >= 0],
                                 minlength=objects).tolist()))
    return rows


def run_regions(raster):
    labels, boxes, visible, instance_pixels = _regions(raster)
    return [(value, tuple(box), count, owners)
            for value, box, count, owners in zip(
                labels.tolist(), boxes.tolist(), visible.tolist(),
                instance_pixels.tolist())]


def make_raster(labels, instances, objects, seed=0):
    rng = np.random.default_rng(seed)
    shape = (objects, len(RELATIONS))
    return Raster(labels, instances,
                  (rng.random(shape) < 0.3).astype(np.float32),
                  (rng.random(shape) < 0.3).astype(np.float32))


def assert_matches_oracle(raster):
    assert run_regions(raster) == oracle_regions(raster)
    with noisy_detector() as detector:
        for image_id in (0, 5):
            assert detection_bytes(detector.detect(raster, image_id)) == \
                detection_bytes(oracles.detect(detector, raster, image_id))


def assert_scene_detections_match(detector, scenes):
    for scene in scenes:
        raster = scene.render()
        assert detection_bytes(detector.detect(raster, scene.image_id)) == \
            detection_bytes(oracles.detect(detector, raster, scene.image_id))


@pytest.fixture(scope="module")
def scenes():
    return SceneGenerator(seed=13).generate_pool(24)


class TestSeededScenes:
    def test_detections_byte_equal(self, scenes):
        assert_scene_detections_match(SimulatedDetector(), scenes)
        with noisy_detector() as detector:
            assert_scene_detections_match(detector, scenes)

    @pytest.mark.parametrize("use_tde", [True, False])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_scene_graphs_byte_equal(self, scenes, model, use_tde):
        pipeline = SGGPipeline(SimulatedDetector(),
                               RelationPredictor(MODELS[model], seed=2),
                               SGGConfig(use_tde=use_tde))
        results = pipeline.run_many(scenes)
        assert [result_bytes(r) for r in results] == \
            [result_bytes(oracles.run(pipeline, s)) for s in scenes]

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_logit_rows_equal_per_pair_logits(self, scenes, model):
        predictor = RelationPredictor(MODELS[model])
        detector = SimulatedDetector()
        for scene in scenes:
            detections = detector.detect(scene.render(), scene.image_id)
            pairs = candidate_pairs(detections)
            assert pairs == oracles.candidate_pairs(detections)
            if not pairs:
                continue
            factual, counterfactual = predictor.logits(
                pairs, spatial_predicates(pairs), scene.image_id)
            for row, (subject, obj) in enumerate(pairs):
                one_factual, one_counterfactual = \
                    oracles.factual_and_masked_logits(
                        predictor, subject, obj, scene.image_id)
                assert factual[row].tobytes() == one_factual.tobytes()
                assert counterfactual[row].tobytes() == \
                    one_counterfactual.tobytes()


def grid(rows, instance_rows=None):
    """A raster from digit rows ('.' = background); each label's pixels
    belong to object ``label - 1`` unless ``instance_rows`` says so."""
    labels = np.array([[0 if c == "." else int(c) for c in row]
                       for row in rows], dtype=np.int16)
    if instance_rows is None:
        instances = (labels - 1).astype(np.int16)
    else:
        instances = np.array([[-1 if c == "." else int(c) for c in row]
                              for row in instance_rows], dtype=np.int16)
    return make_raster(labels, instances, int(max(labels.max(),
                                                  instances.max() + 1, 1)))


SHAPES = {
    "diagonal-only contact": grid(["1.", ".1"]),
    "diagonal chain": grid(["1..", ".1.", "..1"]),
    "U": grid(["1.1", "1.1", "111"]),
    "U with long arms": grid(["1...1", "1.2.1", "1.2.1", "11111"]),
    "ring": grid(["1111", "1..1", "1.21", "1111"]),
    "comb": grid(["1.1.1.1", "1.1.1.1", "1111111"]),
    "same label, two instances": grid(["11", "11"], ["01", "01"]),
    "one pixel": grid(["...", ".1.", "..."]),
    "border": grid(["1..2", "...2", "3..2"]),
    "scan order within a label": grid(["2.1", "..1", "1.."]),
    "one column": grid(["1", "1", ".", "1"]),
    "one row": grid(["11.1.22"]),
    "empty": grid(["..", ".."]),
}


class TestShapes:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_regions_and_detections(self, name):
        assert_matches_oracle(SHAPES[name])


def shape_mask(kind, height, width, x, y, w, h):
    pad = 10
    canvas = np.zeros((height + 2 * pad, width + 2 * pad), dtype=bool)
    x, y = x + pad, y + pad
    if kind == "rect":
        canvas[y:y + h, x:x + w] = True
    elif kind == "ring":
        canvas[y:y + h, x:x + w] = True
        canvas[y + 1:y + h - 1, x + 1:x + w - 1] = False
    elif kind == "u":
        canvas[y:y + h, x] = True
        canvas[y:y + h, x + w - 1] = True
        canvas[y + h - 1, x:x + w] = True
    elif kind == "diagonal":
        canvas[y, x] = canvas[y + 1, x + 1] = True
    else:  # pixel
        canvas[y, x] = True
    return canvas[pad:pad + height, pad:pad + width]


@st.composite
def painted_rasters(draw):
    """Shapes painted over each other, possibly clipped by the border."""
    height = draw(st.integers(1, 16))
    width = draw(st.integers(1, 16))
    objects = draw(st.integers(1, 5))
    labels = np.zeros((height, width), dtype=np.int16)
    instances = np.full((height, width), -1, dtype=np.int16)
    for _ in range(draw(st.integers(0, 8))):
        mask = shape_mask(
            draw(st.sampled_from(["rect", "ring", "u", "diagonal",
                                  "pixel"])),
            height, width,
            draw(st.integers(-3, width)), draw(st.integers(-3, height)),
            draw(st.integers(1, 9)), draw(st.integers(1, 9)),
        )
        labels[mask] = draw(st.integers(1, 3))
        instances[mask] = draw(st.integers(0, objects - 1))
    return make_raster(labels, instances, objects,
                       seed=draw(st.integers(0, 2**16)))


@st.composite
def noise_rasters(draw):
    """Unstructured pixels from a small alphabet: many tiny regions."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    objects = draw(st.integers(1, 4))
    labels = draw(arrays(np.int16, shape, elements=st.integers(0, 3)))
    instances = draw(arrays(np.int16, shape,
                            elements=st.integers(-1, objects - 1)))
    return make_raster(labels, instances, objects,
                       seed=draw(st.integers(0, 2**16)))


class TestGeneratedRasters:
    @settings(max_examples=150, deadline=None)
    @given(painted_rasters())
    def test_painted_shapes(self, raster):
        assert_matches_oracle(raster)

    @settings(max_examples=100, deadline=None)
    @given(noise_rasters())
    def test_pixel_noise(self, raster):
        assert_matches_oracle(raster)
