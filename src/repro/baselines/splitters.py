"""Sentence-splitter baselines: ABCD-MLP, ABCD-bilinear, DisSim (Exp-4).

These systems split a complex sentence into simple clauses — step one
of SVQA's query-graph generation.  The paper compares *latency* only
(Fig. 9a), since the outputs aren't directly comparable: the
deep-learning splitters pay a large one-time model-load cost plus a
per-question forward pass, while SVQA's linguistic method starts cold
but costs more per token.

The simulated splitters really do produce clause splits (delegating to
the rule pipeline), so examples can show their output; their *cost*
follows the published behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError
from repro.simtime import SimClock
from repro.core.query_graph import generate_query_graph


@dataclass(frozen=True)
class SplitterSpec:
    """A splitter's cost profile (simulated seconds)."""

    name: str
    load_seconds: float
    per_question_seconds: float


ABCD_MLP = SplitterSpec("ABCD-MLP", load_seconds=7.5,
                        per_question_seconds=0.085)
ABCD_BILINEAR = SplitterSpec("ABCD-bilinear", load_seconds=8.6,
                             per_question_seconds=0.105)
DISSIM = SplitterSpec("DisSim", load_seconds=5.8,
                      per_question_seconds=0.140)


class BaselineSplitter:
    """A DL sentence splitter: load once, forward per question."""

    def __init__(self, spec: SplitterSpec,
                 clock: SimClock | None = None) -> None:
        self.spec = spec
        self.clock = clock if clock is not None else SimClock()
        self._loaded = False

    def split(self, question: str) -> list[str]:
        """Split a question into simple clause strings."""
        if not self._loaded:
            self.clock.charge_amount("model_load_splitter",
                                     self.spec.load_seconds)
            self._loaded = True
        self.clock.charge_amount("splitter_forward",
                                 self.spec.per_question_seconds)
        try:
            graph = generate_query_graph(question)
        except QueryError:
            return [question]
        return [spoc.source_text for spoc in graph.vertices]

    def split_many(self, questions: list[str]) -> list[list[str]]:
        return [self.split(question) for question in questions]


class LinguisticSplitter:
    """SVQA's own method, wrapped in the same interface (no load cost;
    §IV costs charged per question)."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()

    def split(self, question: str) -> list[str]:
        try:
            graph = generate_query_graph(question, clock=self.clock)
        except QueryError:
            return [question]
        return [spoc.source_text for spoc in graph.vertices]

    def split_many(self, questions: list[str]) -> list[list[str]]:
        return [self.split(question) for question in questions]
