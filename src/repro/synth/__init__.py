"""Synthetic-scene substrate: the COCO replacement.

Procedurally generated scene specifications (objects, boxes, depth,
ground-truth relations) rendered to coarse rasters that the simulated
vision pipeline consumes.
"""

from repro.synth.generator import TEMPLATES, SceneGenerator, SceneTemplate, SlotSpec
from repro.synth.relations import (
    PRIOR,
    RELATIONS,
    SEMANTIC_RELATIONS,
    SPATIAL_RELATIONS,
    UBIQUITOUS_RELATIONS,
    prior_vector,
    relation_index,
)
from repro.synth.scene import (
    Box,
    CANVAS,
    Raster,
    SceneObject,
    SceneRelation,
    SyntheticScene,
    center_distance,
    complete_spatial_relations,
    iou,
    overlap_fraction,
    spatial_relation,
)
from repro.synth.taxonomy import (
    CATEGORIES,
    MVQA_GROUPS,
    Category,
    Group,
    category_by_name,
    category_index,
    category_names,
)

__all__ = [
    "Box",
    "CANVAS",
    "CATEGORIES",
    "Category",
    "Group",
    "MVQA_GROUPS",
    "PRIOR",
    "RELATIONS",
    "Raster",
    "SEMANTIC_RELATIONS",
    "SPATIAL_RELATIONS",
    "SceneGenerator",
    "SceneObject",
    "SceneRelation",
    "SceneTemplate",
    "SlotSpec",
    "SyntheticScene",
    "TEMPLATES",
    "UBIQUITOUS_RELATIONS",
    "category_by_name",
    "category_index",
    "category_names",
    "center_distance",
    "complete_spatial_relations",
    "iou",
    "overlap_fraction",
    "prior_vector",
    "relation_index",
    "spatial_relation",
]
