"""Feature-map extraction for detected regions.

The paper's RPN produces a feature map ``m_i`` per bounding box
(§III-A).  Here a feature map is a flat vector with three parts:

* **geometry** — normalized box coordinates, area, visibility;
* **appearance** — a hashed category-histogram of the region's pixels
  (what a conv backbone would summarize);
* **interaction** — the region's pooled subject/object relation
  signals, weighted by the *visible* pixel mix, so occluded or merged
  regions carry corrupted signals.

``Mask(m_i)`` (Eq. 2 of the paper) zeroes the interaction part — the
appearance evidence — while geometry stays available, exactly like TDE
keeps boxes/labels but masks feature maps; the relation predictors
apply it by dropping the evidence term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.synth.relations import RELATIONS
from repro.synth.scene import Box, CANVAS, Raster

GEOMETRY_DIM = 6
APPEARANCE_DIM = 16
INTERACTION_DIM = 2 * len(RELATIONS)
FEATURE_DIM = GEOMETRY_DIM + APPEARANCE_DIM + INTERACTION_DIM


@dataclass(frozen=True)
class FeatureMap:
    """A region's feature vector, with named views of its parts."""

    vector: np.ndarray

    @property
    def subject_signal(self) -> np.ndarray:
        start = GEOMETRY_DIM + APPEARANCE_DIM
        return self.vector[start:start + len(RELATIONS)]

    @property
    def object_signal(self) -> np.ndarray:
        start = GEOMETRY_DIM + APPEARANCE_DIM + len(RELATIONS)
        return self.vector[start:]


def region_features(
    raster: Raster,
    box: Box,
    label_value: int,
    visible: int,
    instance_pixels: np.ndarray,
) -> FeatureMap:
    """Feature map of a detected region, from its pixel sums.

    A region is a connected component of one category value, so its
    appearance histogram is one-hot at ``label_value``'s bucket.
    ``visible`` is the region's pixel count and ``instance_pixels[i]``
    the number of those pixels that show object ``i`` (the ownership
    mix the interaction signals are pooled over).
    """
    vector = np.zeros(FEATURE_DIM, dtype=np.float32)

    # geometry: normalized x, y, w, h, area fraction, visibility
    vector[0] = box.x / CANVAS
    vector[1] = box.y / CANVAS
    vector[2] = box.w / CANVAS
    vector[3] = box.h / CANVAS
    vector[4] = box.area / (CANVAS * CANVAS)
    vector[5] = visible / box.area if box.area else 0.0

    # appearance: hashed histogram of the region's category pixels
    vector[GEOMETRY_DIM + label_value % APPEARANCE_DIM] = 1.0

    # interaction: pooled per-object signals weighted by pixel ownership
    owned = int(instance_pixels.sum())
    if owned:
        weights = instance_pixels / owned
        start = GEOMETRY_DIM + APPEARANCE_DIM
        vector[start:start + len(RELATIONS)] = \
            weights @ raster.subject_signals
        vector[start + len(RELATIONS):] = weights @ raster.object_signals

    return FeatureMap(vector)
