"""Experiment harness: run a QA system over a dataset and report
accuracy + latency, plus simple fixed-width table rendering for the
benchmark output (the rows the paper's tables print).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.core.answer import Answer
from repro.dataset.questions import MVQAQuestion
from repro.eval.accuracy import AccuracyReport, answers_match


@dataclass
class EvaluationResult:
    """Accuracy + latency of one system over one question set."""

    name: str
    report: AccuracyReport
    latency: float  # simulated seconds for the whole batch
    answers: list[Answer]
    failures: list[tuple[MVQAQuestion, str]]

    def summary(self) -> dict[str, float]:
        row = self.report.as_row()
        row["latency"] = self.latency
        return row


def evaluate(
    name: str,
    questions: Sequence[MVQAQuestion],
    answer_batch: Callable[[list[str]], list[Answer]],
    elapsed: Callable[[], float],
) -> EvaluationResult:
    """Run ``answer_batch`` over the questions and score the output.

    ``elapsed`` reads the system's simulated clock; latency is the
    clock delta across the batch call.
    """
    before = elapsed()
    answers = answer_batch([q.text for q in questions])
    latency = elapsed() - before
    if len(answers) != len(questions):
        raise ValueError(
            f"{name} returned {len(answers)} answers for "
            f"{len(questions)} questions"
        )
    report = AccuracyReport()
    failures: list[tuple[MVQAQuestion, str]] = []
    for question, answer in zip(questions, answers, strict=True):
        ok = answers_match(answer.value, question.answer,
                           question.question_type)
        report.record(question.question_type, ok)
        if not ok:
            failures.append((question, answer.value))
    return EvaluationResult(name, report, latency, answers, failures)


def format_table(
    headers: list[str], rows: list[list[str]], title: str = ""
) -> str:
    """Fixed-width table rendering for benchmark output."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths, strict=True))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths, strict=True)))
    return "\n".join(lines)


def percentage(value: float) -> str:
    return f"{100 * value:.1f}%"
