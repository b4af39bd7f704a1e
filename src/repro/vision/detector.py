"""Simulated object detector (the Mask R-CNN stand-in).

The detector sees only the rendered raster — not the scene spec — so
it exhibits the real failure modes of a detector:

* small or heavily occluded objects are missed (their visible region
  falls under ``min_area``);
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
from repro.vision.features import FeatureMap, extract_features

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


@dataclass
class DetectorConfig:
    """Noise knobs of the simulated detector."""

    min_area: int = 12          # visible pixels below this are missed
    box_jitter: float = 0.06    # stddev of box-coordinate noise, rel. size
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
        for label_value, mask in _connected_regions(raster.labels):
            visible = int(mask.sum())
            if visible < self.config.min_area:
                continue
            if rng.random() < self.config.miss_rate:
                continue
            box = _region_box(mask)
            box = self._jitter_box(box, rng)
            category = self._names[label_value - 1]
            category = self._corrupt_label(category, visible, rng)
            features = extract_features(raster, box, mask)
            visibility = visible / max(1, box.area)
            score = float(np.clip(0.5 + 0.5 * visibility
                                  - self.config.label_noise, 0.05, 0.99))
            detections.append(Detection(
                index=len(detections),
                box=box,
                features=features,
                label=category,
                score=score,
                depth_estimate=float(np.clip(1.0 - visibility, 0.0, 1.0)),
            ))
        return detections

    def _jitter_box(self, box: Box, rng: np.random.Generator) -> Box:
        jitter = self.config.box_jitter
        dx = rng.normal(0, jitter * box.w)
        dy = rng.normal(0, jitter * box.h)
        dw = rng.normal(0, jitter * box.w)
        dh = rng.normal(0, jitter * box.h)
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


def _connected_regions(labels: np.ndarray):
    """Yield (label_value, mask) for 4-connected same-label regions."""
    # imported here, not at module level: only a vision build needs
    # scipy, so importing repro (serving, linting, warm start) neither
    # pays for nor requires it
    from scipy import ndimage

    for value in np.unique(labels):
        if value == 0:
            continue
        components, count = ndimage.label(labels == value)
        for component in range(1, count + 1):
            yield int(value), components == component


def _region_box(mask: np.ndarray) -> Box:
    ys, xs = np.nonzero(mask)
    y1, y2 = int(ys.min()), int(ys.max()) + 1
    x1, x2 = int(xs.min()), int(xs.max()) + 1
    return Box(x1, y1, x2 - x1, y2 - y1)
