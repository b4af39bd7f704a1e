"""Evaluation: answer scoring and the experiment harness."""

from repro.eval.accuracy import AccuracyReport, SEMANTIC_THRESHOLD, answers_match
from repro.eval.harness import (
    EvaluationResult,
    evaluate,
    format_table,
    percentage,
)

__all__ = [
    "AccuracyReport",
    "EvaluationResult",
    "SEMANTIC_THRESHOLD",
    "answers_match",
    "evaluate",
    "format_table",
    "percentage",
]
