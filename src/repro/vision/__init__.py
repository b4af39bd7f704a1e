"""Simulated vision substrate: detector, relation prediction, TDE
debiasing, SGG pipeline, and mR@K evaluation.
"""

from repro.vision.detector import (
    CONFUSIONS,
    Detection,
    DetectorConfig,
    SimulatedDetector,
)
from repro.vision.features import FEATURE_DIM, FeatureMap
from repro.vision.metrics import RecallCounts, evaluate_scene, mean_recall_at
from repro.vision.relation import (
    MODELS,
    MOTIFNET,
    VCTREE,
    VTRANSE,
    RelationModelSpec,
    RelationPredictor,
    candidate_pairs,
)
from repro.vision.scene_graph import (
    PredictedRelation,
    SceneGraphResult,
    SGGConfig,
    SGGPipeline,
)
from repro.vision.tde import tde_scores

__all__ = [
    "CONFUSIONS",
    "Detection",
    "DetectorConfig",
    "FEATURE_DIM",
    "FeatureMap",
    "MODELS",
    "MOTIFNET",
    "PredictedRelation",
    "RecallCounts",
    "RelationModelSpec",
    "RelationPredictor",
    "SGGConfig",
    "SGGPipeline",
    "SceneGraphResult",
    "SimulatedDetector",
    "VCTREE",
    "VTRANSE",
    "candidate_pairs",
    "evaluate_scene",
    "mean_recall_at",
    "tde_scores",
]
