"""Unit tests for scene model, geometry, and rendering."""

import pytest

from repro.errors import SceneError
from repro.synth import (
    Box,
    CANVAS,
    SceneObject,
    SceneRelation,
    SyntheticScene,
    complete_spatial_relations,
    iou,
    overlap_fraction,
    relation_index,
    spatial_relation,
)
from repro.synth.taxonomy import category_index


class TestBox:
    def test_derived_coordinates(self):
        box = Box(10, 20, 30, 40)
        assert box.x2 == 40
        assert box.y2 == 60
        assert box.area == 1200
        assert box.center == (25.0, 40.0)

    def test_clipping(self):
        box = Box(-5, 120, 30, 40).clipped()
        assert box.x == 0
        assert box.y2 <= CANVAS

    def test_iou_disjoint(self):
        assert iou(Box(0, 0, 10, 10), Box(50, 50, 10, 10)) == 0.0

    def test_iou_identical(self):
        box = Box(5, 5, 10, 10)
        assert iou(box, box) == pytest.approx(1.0)

    def test_iou_partial(self):
        a = Box(0, 0, 10, 10)
        b = Box(5, 0, 10, 10)
        assert iou(a, b) == pytest.approx(50 / 150)

    def test_overlap_fraction_directional(self):
        small = Box(0, 0, 10, 10)
        large = Box(0, 0, 100, 100)
        assert overlap_fraction(small, large) == pytest.approx(1.0)
        assert overlap_fraction(large, small) == pytest.approx(0.01)


class TestSceneValidation:
    def test_indices_must_be_dense(self):
        obj = SceneObject(1, "dog", Box(0, 0, 10, 10), 0.5)
        with pytest.raises(SceneError):
            SyntheticScene(0, [obj], [])

    def test_relation_endpoints_validated(self):
        obj = SceneObject(0, "dog", Box(0, 0, 10, 10), 0.5)
        with pytest.raises(SceneError):
            SyntheticScene(0, [obj], [SceneRelation(0, 5, "near")])

    def test_self_relation_rejected(self):
        obj = SceneObject(0, "dog", Box(0, 0, 10, 10), 0.5)
        with pytest.raises(SceneError):
            SyntheticScene(0, [obj], [SceneRelation(0, 0, "near")])

    def test_unknown_predicate_rejected(self):
        with pytest.raises(KeyError):
            SceneRelation(0, 1, "teleporting above")

    def test_unknown_category_rejected(self):
        with pytest.raises(KeyError):
            SceneObject(0, "dragon", Box(0, 0, 10, 10), 0.5)


class TestRendering:
    @pytest.fixture
    def scene(self):
        objects = [
            SceneObject(0, "grass", Box(0, 64, 128, 64), 0.9),
            SceneObject(1, "dog", Box(30, 60, 20, 20), 0.3),
            SceneObject(2, "frisbee", Box(45, 65, 6, 6), 0.2),
        ]
        relations = [
            SceneRelation(1, 0, "standing on"),
            SceneRelation(1, 2, "catching"),
        ]
        return SyntheticScene(7, objects, relations)

    def test_raster_shape(self, scene):
        raster = scene.render()
        assert raster.shape == (CANVAS, CANVAS)

    def test_closer_object_occludes(self, scene):
        raster = scene.render()
        # the frisbee (depth 0.2) paints over the dog (0.3)
        assert raster.labels[67, 47] == category_index("frisbee")
        assert raster.instances[67, 47] == 2

    def test_background_is_zero(self, scene):
        raster = scene.render()
        assert raster.labels[0, 0] == 0
        assert raster.instances[0, 0] == -1

    def test_interaction_signals(self, scene):
        raster = scene.render()
        catching = relation_index("catching")
        assert raster.subject_signals[1, catching] == 1.0
        assert raster.object_signals[2, catching] == 1.0
        assert raster.subject_signals[2, catching] == 0.0


class TestSpatialRelation:
    def make(self, index, category, box, depth):
        return SceneObject(index, category, box, depth)

    def test_on_top(self):
        surface = self.make(0, "grass", Box(0, 60, 100, 60), 0.9)
        dog = self.make(1, "dog", Box(20, 45, 20, 20), 0.3)
        assert spatial_relation(dog, surface) in {"on", "above"}

    def test_inside(self):
        car = self.make(0, "car", Box(20, 20, 60, 50), 0.6)
        cat = self.make(1, "cat", Box(40, 35, 12, 12), 0.4)
        assert spatial_relation(cat, car) == "in"

    def test_near_when_close(self):
        a = self.make(0, "dog", Box(10, 10, 20, 20), 0.4)
        b = self.make(1, "cat", Box(32, 12, 18, 18), 0.4)
        assert spatial_relation(a, b) in {"near", "next to"}

    def test_none_when_far(self):
        a = self.make(0, "dog", Box(0, 0, 10, 10), 0.4)
        b = self.make(1, "cat", Box(110, 110, 10, 10), 0.4)
        assert spatial_relation(a, b) is None

    def test_depth_gives_front_behind(self):
        front = self.make(0, "dog", Box(10, 10, 20, 20), 0.2)
        back = self.make(1, "man", Box(32, 10, 22, 30), 0.7)
        assert spatial_relation(front, back) == "in front of"
        assert spatial_relation(back, front) == "behind"

    def test_deterministic(self):
        a = self.make(0, "dog", Box(10, 10, 20, 20), 0.3)
        b = self.make(1, "man", Box(25, 5, 20, 35), 0.5)
        assert spatial_relation(a, b) == spatial_relation(a, b)


class TestCompleteSpatialRelations:
    def test_adds_spatial_edges(self):
        objects = [
            SceneObject(0, "dog", Box(20, 40, 20, 20), 0.3),
            SceneObject(1, "man", Box(45, 30, 20, 35), 0.5),
        ]
        relations = complete_spatial_relations(objects, [])
        assert relations, "expected at least one spatial relation"

    def test_does_not_override_asserted(self):
        objects = [
            SceneObject(0, "dog", Box(20, 40, 20, 20), 0.3),
            SceneObject(1, "frisbee", Box(36, 45, 6, 6), 0.25),
        ]
        asserted = [SceneRelation(0, 1, "catching")]
        relations = complete_spatial_relations(objects, asserted)
        pairs = [(r.src, r.dst) for r in relations]
        assert pairs.count((0, 1)) == 1
        assert relations[0].predicate == "catching"

    def test_per_object_cap(self):
        objects = [
            SceneObject(i, "dog", Box(10 + 6 * i, 40, 10, 10), 0.3)
            for i in range(6)
        ]
        relations = complete_spatial_relations(objects, [], max_per_object=2)
        outgoing = {}
        for r in relations:
            outgoing[r.src] = outgoing.get(r.src, 0) + 1
        assert all(v <= 2 for v in outgoing.values())
