"""Answer types and ``getFinalanswer`` (Algorithm 3, line 19).

Three question types (§V): judgment (yes/no), counting (a number), and
reasoning (an entity/category name).  The answer object also carries
its supporting relation pairs so examples can show *why* an answer was
produced.

:meth:`Answer.to_dict` is the **single** stable JSON shape of an
answer — the ``POST /ask`` response body of the serving layer and the
``--json`` output of the ``repro ask`` / ``repro chaos`` CLIs all
emit exactly this dict, so the wire contract cannot fork per surface.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.graph import RelationPair
from repro.resilience.events import FaultEvent
from repro.core.spoc import QuestionType, SPOC


@dataclass
class Answer:
    """The final answer to a complex query.

    ``degraded`` marks answers the resilience layer salvaged from a
    partial failure (keyword-match parse fallback, deadline cutoff,
    absorbed crash); ``confidence`` drops below 1.0 on those rungs and
    ``fault_events`` carries the full provenance of what went wrong.
    """

    question_type: QuestionType
    value: str
    support: list[RelationPair] = field(default_factory=list)
    latency: float | None = None
    degraded: bool = False
    confidence: float = 1.0
    fault_events: list[FaultEvent] = field(default_factory=list)
    #: sources restored by :meth:`from_dict` — a deserialized answer
    #: has no live graph objects to rebuild ``support`` from, so the
    #: serialized source summary rides along verbatim instead
    restored_sources: dict[str, object] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def supporting_images(self) -> list[int]:
        """Distinct image ids among the supporting relation pairs."""
        images = {
            pair.edge.props.get("image_id")
            for pair in self.support
            if pair.edge.props.get("image_id") is not None
        }
        return sorted(images)

    def sources(self) -> dict[str, object]:
        """The JSON-ready evidence summary: distinct supporting image
        ids plus the supporting triples (with per-edge image ids)."""
        if not self.support and self.restored_sources is not None:
            return dict(self.restored_sources)
        return {
            "images": self.supporting_images,
            "support": [
                {
                    "subject": pair.subject.label,
                    "predicate": pair.edge.label,
                    "object": pair.object.label,
                    "image_id": pair.edge.props.get("image_id"),
                }
                for pair in self.support
            ],
        }

    def to_dict(self) -> dict[str, object]:
        """The one stable JSON shape of an answer.

        ``{"answer", "question_type", "sources", "meta"}`` — the
        ``meta`` block carries ``latency`` (simulated seconds),
        ``degraded``, ``confidence``, and the full ``fault_events``
        provenance.  The serving layer's ``POST /ask`` body and the
        ``repro ask --json`` / ``repro chaos --dump`` outputs are all
        exactly this dict, so round-tripping through JSON and
        :meth:`from_dict` is lossless at the contract level.
        """
        latency = None if self.latency is None \
            else round(self.latency, 9)
        return {
            "answer": self.value,
            "question_type": self.question_type.value,
            "sources": self.sources(),
            "meta": {
                "latency": latency,
                "degraded": self.degraded,
                "confidence": round(self.confidence, 9),
                "fault_events": [event.to_dict()
                                 for event in self.fault_events],
            },
        }

    def to_json(self) -> str:
        """Deterministic JSON rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> Answer:
        """Rebuild an answer from :meth:`to_dict`'s payload.

        The supporting relation pairs cannot be re-attached to live
        graph objects, so the serialized source summary is preserved
        on :attr:`restored_sources` — ``from_dict(a.to_dict())``
        serializes back to the identical dict.
        """
        meta = payload.get("meta") or {}
        if not isinstance(meta, dict):
            raise ValueError(f"malformed answer meta: {meta!r}")
        sources = payload.get("sources")
        latency = meta.get("latency")
        if latency is not None and not isinstance(latency, (int, float)):
            raise ValueError(f"malformed latency: {latency!r}")
        confidence = meta.get("confidence", 1.0)
        if not isinstance(confidence, (int, float)):
            raise ValueError(f"malformed confidence: {confidence!r}")
        events = meta.get("fault_events", [])
        if not isinstance(events, list):
            raise ValueError(f"malformed fault_events: {events!r}")
        return cls(
            question_type=QuestionType(payload["question_type"]),
            value=str(payload["answer"]),
            latency=None if latency is None else float(latency),
            degraded=bool(meta.get("degraded", False)),
            confidence=float(confidence),
            fault_events=[FaultEvent.from_dict(event)
                          for event in events],
            restored_sources=dict(sources)
            if isinstance(sources, dict) else None,
        )

    def __str__(self) -> str:
        """The bare answer string."""
        return self.value


def render_answer(answer: Answer, question: str | None = None) -> str:
    """The shared human-readable rendering of one answer.

    Every CLI that prints a single answer (``repro ask``,
    ``repro trace``, ``repro chaos --dump`` summaries) goes through
    this, so the text view and the :meth:`Answer.to_dict` wire view
    cannot drift apart field-by-field.
    """
    lines = []
    if question is not None:
        lines.append(f"Q: {question}")
    lines.append(f"A: {answer.value}")
    sources = answer.sources()
    images = sources.get("images") or []
    if images:
        lines.append(f"   evidence images: {list(images)}")
    if answer.degraded:
        lines.append(f"   degraded (confidence "
                     f"{answer.confidence:.2f})")
    for event in answer.fault_events:
        lines.append(f"   {event.render()}")
    return "\n".join(lines)


def fallback_answer(
    question_type: QuestionType,
    events: list[FaultEvent],
    confidence: float = 0.0,
) -> Answer:
    """An attributed ``"unknown"``: the degradation ladder's last rung.

    Used when a query could not be executed at all (parse rejection,
    executor crash, deadline cutoff before the main clause) — the slot
    stays filled and aligned, and the events say why.
    """
    return Answer(
        question_type,
        "unknown",
        [],
        degraded=True,
        confidence=confidence,
        fault_events=list(events),
    )


def final_answer(
    spoc: SPOC,
    pairs: list[RelationPair],
    kind_filter: Callable[[str, str], bool] | None = None,
    kind_min_images: int = 3,
) -> Answer:
    """Aggregate the main clause's answer pairs into an Answer.

    ``kind_filter(label, ancestor)`` decides, for "kind of X" answer
    terms, whether a candidate label is a kind of X (injected by the
    executor so the check can consult the merged graph's ``is a``
    hierarchy).
    """
    qtype = spoc.question_type or QuestionType.REASONING
    term = spoc.slot(spoc.answer_role)

    if qtype is QuestionType.JUDGMENT:
        value = "yes" if pairs else "no"
        return Answer(qtype, value, pairs)

    answer_vertices = [
        pair.subject if spoc.answer_role == "subject" else pair.object
        for pair in pairs
    ]

    if qtype is QuestionType.COUNTING:
        if term is not None and term.kind_of:
            # kind counting ignores labels with single-image support —
            # one hallucinated edge must not add a "kind"
            images_per_label: dict[str, set] = {}
            for pair, vertex in zip(pairs, answer_vertices, strict=True):
                evidence = pair.edge.props.get("image_id", pair.edge.id)
                images_per_label.setdefault(vertex.label,
                                            set()).add(evidence)
            count = sum(1 for images in images_per_label.values()
                        if len(images) >= kind_min_images)
        else:
            count = len({v.id for v in answer_vertices})
        return Answer(qtype, str(count), pairs)

    # reasoning: most-supported candidate label
    labels = [v.label for v in answer_vertices
              if v.props.get("kind") != "concept" or v.label]
    if term is not None and term.kind_of and kind_filter is not None:
        # one ``is a`` walk per distinct label, not per answer vertex
        head = term.head
        kinds = {
            label: label.lower() != head.lower()
            and kind_filter(label, head)
            for label in dict.fromkeys(labels)
        }
        labels = [label for label in labels if kinds[label]]
    if not labels:
        return Answer(qtype, "unknown", [])
    winner = Counter(labels).most_common(1)[0][0]
    support = [
        pair for pair, vertex in zip(pairs, answer_vertices, strict=True)
        if vertex.label == winner
    ]
    return Answer(qtype, winner, support)
