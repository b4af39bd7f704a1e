"""Datasets: the MVQA builder (§VI), the modified-VQAv2 analogue
(§VII), ground-truth indexing, knowledge graphs, and statistics.
"""

from repro.dataset.groundtruth import (
    GroundTruthIndex,
    GTTriple,
    categories_for_word,
)
from repro.dataset.kg import (
    build_commonsense_kg,
    build_movie_kg,
)
from repro.dataset.mvqa import (
    COMPOSITION,
    IMAGE_COUNT,
    MVQADataset,
    POOL_SIZE,
    build_mvqa,
    mvqa_image_filter,
)
from repro.dataset.questions import MVQAQuestion, QuestionGenerator
from repro.dataset.stats import (
    DatasetRow,
    LITERATURE_ROWS,
    TypeBreakdown,
    average_clause_count,
    mvqa_row,
    table2_breakdown,
    total_unique_spos,
)
from repro.dataset.vqa2 import build_modified_vqa2
from repro.graph import INSTANCE_OF, IS_A

__all__ = [
    "COMPOSITION",
    "DatasetRow",
    "GTTriple",
    "GroundTruthIndex",
    "IMAGE_COUNT",
    "INSTANCE_OF",
    "IS_A",
    "LITERATURE_ROWS",
    "MVQADataset",
    "MVQAQuestion",
    "POOL_SIZE",
    "QuestionGenerator",
    "TypeBreakdown",
    "average_clause_count",
    "build_commonsense_kg",
    "build_modified_vqa2",
    "build_movie_kg",
    "build_mvqa",
    "categories_for_word",
    "mvqa_image_filter",
    "mvqa_row",
    "table2_breakdown",
    "total_unique_spos",
]
