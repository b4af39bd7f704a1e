"""Synthetic scenes: the COCO-image substitute.

A :class:`SyntheticScene` is a ground-truth scene *specification* —
objects with bounding boxes, depth order, and labeled ground-truth
relations — that can be **rendered** to a coarse label/instance raster.
The downstream detector (:mod:`repro.vision.detector`) consumes only
the raster, so detection is genuinely lossy: small objects vanish,
occluded objects shrink, adjacent same-category objects can merge.

Ground-truth relations come in two kinds:

* *spatial* relations, recomputed from box geometry by
  :func:`spatial_relation` (so geometry and labels never disagree);
* *semantic* relations (holding, wearing, riding, ...), asserted by the
  scene generator and additionally encoded into a per-object
  ``interaction`` signal that the renderer exposes as an extra raster
  channel — the stand-in for the visual appearance cues a trained
  relation head would pick up (a dog visibly biting a frisbee).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SceneError
from repro.synth.relations import RELATIONS, UBIQUITOUS_RELATIONS, relation_index
from repro.synth.taxonomy import category_by_name, category_index

CANVAS = 128  # scenes are CANVAS x CANVAS


@dataclass(frozen=True)
class Box:
    """An axis-aligned bounding box (x, y = top-left corner)."""

    x: int
    y: int
    w: int
    h: int

    @property
    def x2(self) -> int:
        return self.x + self.w

    @property
    def y2(self) -> int:
        return self.y + self.h

    @property
    def area(self) -> int:
        return self.w * self.h

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    def clipped(self, size: int = CANVAS) -> Box:
        """Clip to the canvas."""
        x = max(0, min(self.x, size - 1))
        y = max(0, min(self.y, size - 1))
        x2 = max(x + 1, min(self.x2, size))
        y2 = max(y + 1, min(self.y2, size))
        return Box(x, y, x2 - x, y2 - y)


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes."""
    ix = max(0, min(a.x2, b.x2) - max(a.x, b.x))
    iy = max(0, min(a.y2, b.y2) - max(a.y, b.y))
    inter = ix * iy
    if inter == 0:
        return 0.0
    return inter / (a.area + b.area - inter)


def overlap_fraction(a: Box, b: Box) -> float:
    """Fraction of ``a`` covered by ``b``."""
    ix = max(0, min(a.x2, b.x2) - max(a.x, b.x))
    iy = max(0, min(a.y2, b.y2) - max(a.y, b.y))
    return (ix * iy) / a.area if a.area else 0.0


def center_distance(a: Box, b: Box) -> float:
    (ax, ay), (bx, by) = a.center, b.center
    return float(np.hypot(ax - bx, ay - by))


@dataclass(frozen=True)
class SceneObject:
    """One ground-truth object in a scene."""

    index: int
    category: str
    box: Box
    depth: float  # 0 = closest to the camera, 1 = farthest
    attributes: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        category_by_name(self.category)  # validates the name


@dataclass(frozen=True)
class SceneRelation:
    """A ground-truth relation between two scene objects."""

    src: int
    dst: int
    predicate: str

    def __post_init__(self) -> None:
        relation_index(self.predicate)  # validates the predicate


@dataclass
class SyntheticScene:
    """A full scene: objects + relations + a caption."""

    image_id: int
    objects: list[SceneObject]
    relations: list[SceneRelation]
    caption: str = ""

    def __post_init__(self) -> None:
        indices = [o.index for o in self.objects]
        if sorted(indices) != list(range(len(indices))):
            raise SceneError(
                f"scene {self.image_id}: object indices must be 0..n-1"
            )
        for relation in self.relations:
            if relation.src >= len(indices) or relation.dst >= len(indices):
                raise SceneError(
                    f"scene {self.image_id}: relation endpoints out of range"
                )
            if relation.src == relation.dst:
                raise SceneError(
                    f"scene {self.image_id}: self-relation on object "
                    f"{relation.src}"
                )

    @property
    def categories(self) -> list[str]:
        return [o.category for o in self.objects]

    def object(self, index: int) -> SceneObject:
        return self.objects[index]

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self) -> Raster:
        """Paint the scene to label/instance rasters.

        Farther objects (higher depth) paint first, so closer objects
        occlude them — occlusion is real, not simulated noise.  The
        raster also carries per-object *interaction signals*: the
        appearance cues of a relation (a dog visibly biting a frisbee)
        that a trained relation head would recover from pixels.  The
        detector pools these over each detection's **visible** pixel
        mix, so occlusion and region merging corrupt them naturally.
        """
        labels = np.zeros((CANVAS, CANVAS), dtype=np.int16)
        instances = np.full((CANVAS, CANVAS), -1, dtype=np.int16)
        for obj in sorted(self.objects, key=lambda o: -o.depth):
            box = obj.box.clipped()
            labels[box.y:box.y2, box.x:box.x2] = category_index(obj.category)
            instances[box.y:box.y2, box.x:box.x2] = obj.index
        subject_signals, object_signals = self._interaction_signals()
        return Raster(labels, instances, subject_signals, object_signals)

    def _interaction_signals(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-object relation-participation signals.

        ``subject_signals[i, k]`` is 1 when object ``i`` acts as the
        subject of relation class ``k`` (``object_signals`` likewise for
        the object role).  This is the renderer's stand-in for the
        appearance evidence of an interaction; the TDE masked pass
        (Eq. 2) zeroes exactly these signals.

        Ubiquitous head predicates carry no appearance signal: "near"
        and "on" look like nothing in particular, which is precisely
        why trained models predict them from frequency bias.  Keeping
        them signal-free also prevents pair cross-talk (almost every
        object is near *something*, so a pooled per-object "near"
        signal would light up every pair).
        """
        n = len(self.objects)
        subject_signals = np.zeros((n, len(RELATIONS)), dtype=np.float32)
        object_signals = np.zeros((n, len(RELATIONS)), dtype=np.float32)
        for relation in self.relations:
            if relation.predicate in UBIQUITOUS_RELATIONS:
                continue
            k = relation_index(relation.predicate)
            subject_signals[relation.src, k] = 1.0
            object_signals[relation.dst, k] = 1.0
        return subject_signals, object_signals


@dataclass(frozen=True)
class Raster:
    """Rendered scene: label/instance rasters plus interaction signals."""

    labels: np.ndarray           # (H, W) int16 category index, 0 = background
    instances: np.ndarray        # (H, W) int16 object index, -1 = background
    subject_signals: np.ndarray  # (n_objects, |RELATIONS|) float32
    object_signals: np.ndarray   # (n_objects, |RELATIONS|) float32

    @property
    def shape(self) -> tuple[int, int]:
        return self.labels.shape  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# spatial ground truth from geometry
# ---------------------------------------------------------------------------

def spatial_relation(a: SceneObject, b: SceneObject) -> str | None:
    """The spatial predicate from ``a`` to ``b`` implied by geometry.

    Returns None when the objects are too far apart to relate.  The
    rules are deliberately simple and *deterministic*: the same
    function generates ground truth and powers the relation models'
    geometry evidence, so "the truth is recoverable from the pixels".
    """
    ab_overlap = overlap_fraction(a.box, b.box)
    distance = center_distance(a.box, b.box)
    scale = max(a.box.w, a.box.h, b.box.w, b.box.h)

    if ab_overlap > 0.55 and b.box.area > a.box.area:
        # a mostly inside b
        if abs(a.depth - b.depth) > 0.15:
            return "in"
        return "on"
    if ab_overlap > 0.05:
        (_, ay), (_, by) = a.box.center, b.box.center
        if a.box.y2 <= b.box.y + b.box.h * 0.55 and ay < by:
            return "above" if ab_overlap < 0.2 else "on"
        if ay > by and a.box.area < b.box.area:
            return "under"
        if a.depth + 0.1 < b.depth:
            return "in front of"
        if b.depth + 0.1 < a.depth:
            return "behind"
        return "near"
    if distance < scale * 1.1:
        if a.depth + 0.2 < b.depth:
            return "in front of"
        if b.depth + 0.2 < a.depth:
            return "behind"
        return "near" if distance < scale * 0.8 else "next to"
    return None


def complete_spatial_relations(
    objects: list[SceneObject],
    asserted: list[SceneRelation],
    max_per_object: int = 3,
) -> list[SceneRelation]:
    """Fill in spatial relations implied by geometry.

    Pairs already covered by an asserted (semantic) relation are left
    alone; each object contributes at most ``max_per_object`` outgoing
    spatial relations (nearest pairs first), keeping scene-graph
    density realistic.
    """
    covered = {(r.src, r.dst) for r in asserted}
    result = list(asserted)
    per_object: dict[int, int] = {}
    pairs = []
    for a in objects:
        for b in objects:
            if a.index == b.index:
                continue
            pairs.append((center_distance(a.box, b.box), a, b))
    pairs.sort(key=lambda p: p[0])
    for _, a, b in pairs:
        if (a.index, b.index) in covered:
            continue
        if per_object.get(a.index, 0) >= max_per_object:
            continue
        predicate = spatial_relation(a, b)
        if predicate is None:
            continue
        result.append(SceneRelation(a.index, b.index, predicate))
        covered.add((a.index, b.index))
        per_object[a.index] = per_object.get(a.index, 0) + 1
    return result
