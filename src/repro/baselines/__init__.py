"""Baseline systems the paper compares against: per-image VQA models
(VisualBert / ViLT / OFA) and sentence splitters (ABCD / DisSim).
"""

from repro.baselines.splitters import (
    ABCD_BILINEAR,
    ABCD_MLP,
    DISSIM,
    BaselineSplitter,
    LinguisticSplitter,
    SplitterSpec,
)
from repro.baselines.vqa import (
    OFA,
    VILT,
    VISUALBERT,
    BaselineSpec,
    BaselineVQA,
)

__all__ = [
    "ABCD_BILINEAR",
    "ABCD_MLP",
    "BaselineSpec",
    "BaselineSplitter",
    "BaselineVQA",
    "DISSIM",
    "LinguisticSplitter",
    "OFA",
    "SplitterSpec",
    "VILT",
    "VISUALBERT",
]
