"""Graceful-degradation ladder: salvage answers from partial failures.

The paper treats failure as a first-class outcome (§VII Fig. 8(a):
unanswerable and foreign-word questions), and scene-graph QA systems
degrade with upstream noise rather than crashing.  This module holds
the bottom rungs of the ladder:

* :func:`keyword_query_graph` — when Algorithm 2 rejects a question,
  fall back to a single-clause keyword-match query built from the
  known nouns of the surface text (skipping the unknown/foreign words
  that broke the parse);
* the degraded-confidence constants attached to salvaged answers.

Each rung trades answer quality for availability; every salvaged
answer is marked ``degraded`` and carries its
:class:`~repro.resilience.events.FaultEvent` provenance.
"""

from __future__ import annotations

from repro.core.spoc import QueryGraph, QuestionType, SPOC, Term
from repro.errors import ReproError

#: confidence of an answer produced by the keyword-match fallback
KEYWORD_FALLBACK_CONFIDENCE = 0.3
#: confidence of a best-partial answer after a deadline cutoff
PARTIAL_ANSWER_CONFIDENCE = 0.25

#: leading tokens that signal a yes/no question
_JUDGMENT_STARTERS = frozenset({
    "is", "are", "was", "were", "am", "do", "does", "did",
    "can", "could", "will", "would", "has", "have", "had",
})


def classify_question_text(question: str) -> QuestionType:
    """Best-effort question typing from surface text alone."""
    words = question.lower().split()
    if len(words) >= 2 and words[0] == "how" and words[1] in ("many", "much"):
        return QuestionType.COUNTING
    if words and words[0] in _JUDGMENT_STARTERS:
        return QuestionType.JUDGMENT
    return QuestionType.REASONING


def _fallback_predicate(tagged: list) -> str:
    """The first preposition or content-verb lemma, default ``"be"``."""
    for token in tagged:
        if token.tag == "IN":
            return token.lemma
        if token.is_verb and token.lemma not in ("be", "do", "have"):
            return token.lemma
    return "be"


def _fallback_graph(question: str, anchors: list[Term],
                    predicate: str) -> QueryGraph:
    """Wire up to two anchor terms and a predicate into the
    single-main-clause fallback query shape."""
    qtype = classify_question_text(question)
    subject: Term | None = anchors[0]
    obj: Term | None = anchors[1] if len(anchors) >= 2 else None
    answer_role = "subject"
    if qtype is QuestionType.REASONING and obj is None:
        # single anchor: ask what relates *to* it and answer with the
        # subject side of the retrieved pairs
        obj, subject = subject, None
    elif qtype is not QuestionType.COUNTING:
        answer_role = "object" if obj is not None else "subject"

    spoc = SPOC(
        subject=subject,
        predicate=predicate,
        object=obj,
        clause_index=0,
        depth=0,
        is_main=True,
        question_type=qtype,
        answer_role=answer_role,
        source_text=question,
    )
    return QueryGraph(vertices=(spoc,), question=question)


def keyword_query_graph(question: str) -> QueryGraph | None:
    """A degraded single-clause query from the question's known nouns.

    Runs the POS tagger (never the parser that already rejected the
    question), keeps the in-lexicon noun lemmas, and wires them into
    one main-clause SPOC: the first noun anchors one slot, the second
    (if any) the other, and the first preposition or content verb
    becomes the predicate.  Returns ``None`` when nothing usable
    survives — the caller then answers ``"unknown"``.
    """
    try:
        from repro.nlp.lexicon import noun_form_index
        from repro.nlp.pos import tag

        tagged = tag(question)
    except ReproError:
        return None

    # only in-lexicon nouns anchor the fallback: the POS tagger guesses
    # NN for unknown words, and a query over gibberish labels would
    # just burn executor time to reach the same "unknown"
    known_nouns = noun_form_index()
    nouns = [t.lemma for t in tagged
             if t.is_noun and t.tag != "FW" and t.lemma
             and t.lemma in known_nouns]
    if not nouns:
        return None
    anchors = [Term(text=noun, head=noun) for noun in nouns[:2]]
    return _fallback_graph(question, anchors,
                           _fallback_predicate(tagged))


__all__ = [
    "KEYWORD_FALLBACK_CONFIDENCE",
    "PARTIAL_ANSWER_CONFIDENCE",
    "classify_question_text",
    "keyword_query_graph",
]
