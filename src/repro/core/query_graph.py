"""Query-graph generation: Algorithm 2 of the paper.

Algorithm 2 runs in three stages:

* **Initial stage** — POS-tag and dependency-parse the question (the
  Stanford tagger/parser substitutes live in :mod:`repro.nlp`);
* **Parse stage** — segment clauses, extract a SPOC per clause;
* **Connect stage** — compare the SPOCs' subject/object terms and wire
  S2S / S2O / O2S / O2O dependency edges (§IV-C).  Edges run from
  *provider* clauses (deeper conditions, executed first) to *consumer*
  clauses, so the main clause is the sink and start vertices are the
  in-degree-0 conditions, matching Algorithm 3's traversal.

The stages depend on the question text alone, so they live in the
pure :func:`analyse_question`.  :func:`generate_query_graph` wraps an
analysis in the simulated cost (one charge per stage and clause) and
the ``query_graph`` span tree.  The wrapper charges the same whether
the analysis ran now or came from a session's query memo (a
:class:`~repro.memo.Memo` of :func:`analyse_question`), so memoising
a question never moves a simulated latency.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import ParseError, QueryParseError
from repro.nlp.depparse import DependencyTree, parse
from repro.nlp.semlex import are_synonyms
from repro.observability.spans import Tracer, maybe_span
from repro.simtime import SimClock
from repro.core.clauses import segment_clauses
from repro.core.spoc import DependencyKind, QueryGraph, SPOC, Term
from repro.core.spoc_extract import extract_spoc, validate_spoc

#: distinct questions one session's query memo keeps (least recently
#: asked dropped first); the MVQA question sets hold 100-odd distinct
#: texts, 97 of which parse on the fast set
QUERY_MEMO_CAPACITY = 1024


def analyse_question(question: str) -> QueryGraph:
    """Algorithm 2 as a pure function of the question text.

    Raises :class:`~repro.errors.QueryParseError` when the question is
    outside the grammar (e.g. contains an unknown foreign word — the
    Fig. 8(a) failure mode) or a clause is degenerate (the error's
    ``clause_index`` names it).
    """
    try:
        tree = parse(question)
    except ParseError as exc:
        # forward the offending term so Fig. 8(a)-style failures
        # stay attributable through the wrapping
        raise QueryParseError(
            f"cannot parse question: {exc}", term=exc.term
        ) from exc
    return query_graph_from_tree(tree, question)


def generate_query_graph(
    question: str, clock: SimClock | None = None,
    tracer: Tracer | None = None,
    analyse: Callable[[str], QueryGraph] = analyse_question,
) -> QueryGraph:
    """Decompose a complex question into an ordered query graph.

    ``analyse`` supplies the graph (a session passes its query
    memo's lookup); this function charges Algorithm
    2's stages on ``clock`` and, with a tracer and an active trace,
    records a ``query_graph`` span wrapping ``parse`` and per-clause
    ``spoc`` spans.  A failed analysis is charged up to the stage that
    failed and its error re-raised.
    """
    clock = clock if clock is not None else SimClock()
    with maybe_span(tracer, "query_graph", question=question) as root:
        clock.charge("pos_tag")
        clock.charge("dep_parse")
        try:
            with maybe_span(tracer, "parse"):
                graph = analyse(question)
        except QueryParseError as exc:
            if exc.clause_index is not None:
                # the parse succeeded; clause ``clause_index`` failed
                # validation after its SPOC was extracted
                _charge_clauses(exc.clause_index + 1, clock, tracer)
            raise
        _charge_clauses(len(graph.vertices), clock, tracer)
        if root is not None:
            root.set("clauses", len(graph.vertices))
            root.set("edges", len(graph.edges))
        return graph


def _charge_clauses(
    count: int, clock: SimClock, tracer: Tracer | None
) -> None:
    """The Parse stage's cost: one segmentation, one SPOC per clause."""
    clock.charge("clause_segment")
    for index in range(count):
        with maybe_span(tracer, "spoc", clause=index):
            clock.charge("spoc_extract")


def query_graph_from_tree(
    tree: DependencyTree, question: str = ""
) -> QueryGraph:
    """Algorithm 2's Parse + Connect stages on an existing parse tree."""
    spocs: list[SPOC] = []
    for index, clause in enumerate(segment_clauses(tree)):
        spoc = extract_spoc(tree, clause, index)
        validate_spoc(spoc)
        spocs.append(spoc)
    return QueryGraph(vertices=tuple(spocs), edges=tuple(_connect(spocs)),
                      question=question)


def _connect(spocs: list[SPOC]) -> list[tuple[int, int, DependencyKind]]:
    """The Connect stage: SO-overlap comparison between all vertex pairs.

    For every (provider, consumer) pair where the provider is deeper,
    the first matching slot combination becomes the edge.
    """
    edges: list[tuple[int, int, DependencyKind]] = []
    consumers_bound: set[tuple[int, str]] = set()
    # deeper clauses provide to shallower ones; resolve ties by clause
    # order (later clauses provide to earlier ones)
    ordered = sorted(range(len(spocs)), key=lambda i: -spocs[i].depth)
    for provider_index in ordered:
        provider = spocs[provider_index]
        best: tuple[int, DependencyKind] | None = None
        for consumer_index, consumer in enumerate(spocs):
            if consumer_index == provider_index:
                continue
            if consumer.depth >= provider.depth:
                continue
            for consumer_slot in ("subject", "object"):
                if (consumer_index, consumer_slot) in consumers_bound:
                    continue
                for provider_slot in ("subject", "object"):
                    if _terms_overlap(consumer.slot(consumer_slot),
                                      provider.slot(provider_slot)):
                        kind = DependencyKind(
                            f"{consumer_slot[0].upper()}2"
                            f"{provider_slot[0].upper()}"
                        )
                        best = (consumer_index, kind)
                        break
                if best:
                    break
            if best:
                break
        if best is not None:
            consumer_index, kind = best
            edges.append((provider_index, consumer_index, kind))
            consumers_bound.add((consumer_index, kind.consumer_slot))
    return edges


def _terms_overlap(consumer: Term | None, provider: Term | None) -> bool:
    """The SOOverlap check of Algorithm 2: same-semantics term heads."""
    if consumer is None or provider is None:
        return False
    if consumer.head.lower() == provider.head.lower():
        return True
    return are_synonyms(consumer.head, provider.head)


def describe_query_graph(graph: QueryGraph) -> str:
    """Human-readable rendering of a query graph (examples, debugging)."""
    lines = [f"Q: {graph.question}"] if graph.question else []
    for i, spoc in enumerate(graph.vertices):
        marker = "*" if spoc.is_main else " "
        lines.append(f"{marker}v{i}: {spoc!r}")
    for src, dst, kind in graph.edges:
        lines.append(f" v{src} --{kind.value}--> v{dst}")
    return "\n".join(lines)
