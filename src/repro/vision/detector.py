"""Simulated object detector (the Mask R-CNN stand-in).

The detector sees only the rendered raster — not the scene spec — so
it exhibits the real failure modes of a detector:

* small or heavily occluded objects are missed (their visible region
  falls under :data:`MIN_AREA`);
* adjacent same-category objects can merge into one region (connected
  components run on the *label* raster, like class-wise segmentation);
* bounding boxes carry regression jitter;
* labels are corrupted through a confusion table — e.g. a (toy) bear
  recognized as a "bear" is exactly the Fig. 8(b) error.

All randomness is drawn from the detector's own seeded generator mixed
with the image id, so detection is deterministic per image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.synth.scene import Box, CANVAS, Raster
from repro.synth.taxonomy import category_names
from repro.vision.features import FeatureMap, region_features

#: plausible label-confusion pairs (both directions)
CONFUSIONS: dict[str, tuple[str, ...]] = {
    "dog": ("cat", "sheep"),
    "cat": ("dog",),
    "toy": ("bear", "dog"),
    "bear": ("dog", "toy"),
    "cow": ("horse", "sheep"),
    "sheep": ("cow", "dog"),
    "horse": ("cow", "zebra"),
    "zebra": ("horse",),
    "man": ("woman", "boy"),
    "woman": ("man", "girl"),
    "boy": ("girl", "man"),
    "girl": ("boy", "woman"),
    "car": ("truck", "bus"),
    "truck": ("car", "bus"),
    "bus": ("truck", "train"),
    "frisbee": ("ball",),
    "ball": ("frisbee", "apple"),
    "hat": ("helmet",),
    "helmet": ("hat",),
    "sofa": ("bed", "chair"),
    "bed": ("sofa",),
    "house": ("building",),
    "building": ("house", "station"),
    "grass": ("field",),
    "field": ("grass",),
}


@dataclass(frozen=True)
class Detection:
    """One detected object: ``v_i = (b_i, m_i, l_i)`` of §III-A."""

    index: int
    box: Box
    features: FeatureMap
    label: str
    score: float
    depth_estimate: float  # 0 = front (fully visible), 1 = hidden


#: regions with fewer visible pixels than this are missed
MIN_AREA = 12

#: standard deviation of box-coordinate noise, relative to box size
BOX_JITTER = 0.06


@dataclass
class DetectorConfig:
    """Noise knobs of the simulated detector."""

    label_noise: float = 0.05   # probability of a confusion-table flip
    miss_rate: float = 0.02     # extra probability of dropping a region
    seed: int = 0


class SimulatedDetector:
    """Region-based detector over rendered rasters."""

    def __init__(self, config: DetectorConfig | None = None) -> None:
        self.config = config or DetectorConfig()
        self._names = category_names()

    def detect(self, raster: Raster, image_id: int = 0) -> list[Detection]:
        """Detect objects in ``raster``; deterministic per image id."""
        rng = np.random.default_rng((self.config.seed << 32) ^ (image_id + 1))
        detections: list[Detection] = []
        label_values, boxes, visibles, instance_pixels = _regions(raster)
        for label_value, (x, y, w, h), visible, owners in zip(
                label_values.tolist(), boxes.tolist(), visibles.tolist(),
                instance_pixels):
            if visible < MIN_AREA:
                continue
            if rng.random() < self.config.miss_rate:
                continue
            box = self._jitter_box(Box(x, y, w, h), rng)
            category = self._names[label_value - 1]
            category = self._corrupt_label(category, visible, rng)
            features = region_features(raster, box, label_value, visible,
                                       owners)
            visibility = visible / max(1, box.area)
            score = min(max(0.5 + 0.5 * visibility
                            - self.config.label_noise, 0.05), 0.99)
            detections.append(Detection(
                index=len(detections),
                box=box,
                features=features,
                label=category,
                score=score,
                depth_estimate=min(max(1.0 - visibility, 0.0), 1.0),
            ))
        return detections

    def _jitter_box(self, box: Box, rng: np.random.Generator) -> Box:
        dx = rng.normal(0, BOX_JITTER * box.w)
        dy = rng.normal(0, BOX_JITTER * box.h)
        dw = rng.normal(0, BOX_JITTER * box.w)
        dh = rng.normal(0, BOX_JITTER * box.h)
        return Box(
            int(round(box.x + dx)),
            int(round(box.y + dy)),
            max(2, int(round(box.w + dw))),
            max(2, int(round(box.h + dh))),
        ).clipped(CANVAS)

    def _corrupt_label(
        self, category: str, visible: int, rng: np.random.Generator
    ) -> str:
        # small regions are harder to classify
        noise = self.config.label_noise * (2.0 if visible < 60 else 1.0)
        options = CONFUSIONS.get(category)
        if options and rng.random() < noise:
            return options[int(rng.integers(len(options)))]
        return category


def _regions(
    raster: Raster,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-region sums of the raster's 4-connected same-label regions.

    Returns ``(label_values, boxes, visible, instance_pixels)``: one
    row per region, boxes as ``(x, y, w, h)``, ``visible`` its pixel
    count and ``instance_pixels[r, i]`` how many of them show object
    ``i``.  Regions come in ``scipy.ndimage.label`` order — label value
    ascending, then the region's first pixel in raster scan order —
    which fixes the order of the detector's per-image random draws.

    The whole raster is labelled at once.  Identical consecutive rows
    join run for run, so each block of them is labelled as its first
    row, weighted by the block's height.  Every block row splits into
    runs of constant (label, instance); same-label runs that touch
    (side by side in a row, or overlapping columns in adjacent block
    rows) are joined, and the per-region sums are bincounts over runs.
    """
    height, width = raster.labels.shape
    new_row = np.ones(height, dtype=bool)
    new_row[1:] = ((raster.labels[1:] != raster.labels[:-1])
                   | (raster.instances[1:] != raster.instances[:-1])
                   ).any(axis=1)
    block_top = np.flatnonzero(new_row)
    block_height = np.diff(block_top, append=height)
    labels = raster.labels[block_top].ravel()
    instances = raster.instances[block_top].ravel()

    start = np.empty(labels.size, dtype=bool)
    start[0] = True
    np.not_equal(labels[1:], labels[:-1], out=start[1:])
    start[1:] |= instances[1:] != instances[:-1]
    start[::width] = True
    first = np.flatnonzero(start)            # each run's first pixel
    run_label = labels[first]

    # vertical contacts: an overlapping pair of same-label runs in
    # adjacent block rows first shares a column where one of them starts
    lower = np.concatenate([first[first >= width],
                            first[first < labels.size - width] + width])
    lower = lower[(labels[lower] == labels[lower - width])
                  & (labels[lower] != 0)]
    # horizontal contacts: neighbouring runs of one label in one row
    beside = np.flatnonzero((run_label[1:] == run_label[:-1])
                            & (run_label[1:] != 0)
                            & (first[1:] % width != 0))
    root = _components(
        len(first),
        np.concatenate([np.searchsorted(first, lower - width, "right") - 1,
                        beside]),
        np.concatenate([np.searchsorted(first, lower, "right") - 1,
                        beside + 1]),
    )

    runs = np.flatnonzero(run_label != 0)   # foreground runs
    # the root is a region's lowest run index, i.e. its first run in
    # raster scan order
    order_key = run_label[runs].astype(np.int64) * len(first) + root[runs]
    keys, region = np.unique(order_key, return_inverse=True)
    count = len(keys)
    label_values = keys // len(first)

    block = first[runs] // width
    column = first[runs] % width
    length = np.diff(first, append=labels.size)[runs]
    pixels = length * block_height[block]
    visible = np.bincount(region, weights=pixels,
                          minlength=count).astype(np.int64)
    y1 = block_top[first[keys % len(first)] // width]
    y2 = np.zeros(count, dtype=np.int64)
    np.maximum.at(y2, region, block_top[block] + block_height[block])
    x1 = np.full(count, width, dtype=np.int64)
    np.minimum.at(x1, region, column)
    x2 = np.zeros(count, dtype=np.int64)
    np.maximum.at(x2, region, column + length)
    boxes = np.stack([x1, y1, x2 - x1, y2 - y1], axis=1)

    objects = max(raster.subject_signals.shape[0],
                  int(instances.max()) + 1)
    instance = instances[first[runs]].astype(np.int64)
    owned = instance >= 0
    instance_pixels = np.bincount(
        region[owned] * objects + instance[owned], weights=pixels[owned],
        minlength=count * objects,
    ).astype(np.int64).reshape(count, objects)
    return label_values, boxes, visible, instance_pixels


def _components(count: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lowest node index of each node's connected component.

    Undirected edges ``a[k]``--``b[k]`` over nodes ``0..count-1``.
    Hook-and-shortcut: each round points the higher of two different
    roots at the lower, then jumps every node to its root, so
    ``parent[i] <= i`` always holds and no cycle can form.
    """
    parent = np.arange(count)
    while True:
        root_a, root_b = parent[a], parent[b]
        differ = root_a != root_b
        if not differ.any():
            return parent
        np.minimum.at(parent, np.maximum(root_a, root_b)[differ],
                      np.minimum(root_a, root_b)[differ])
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
