"""Reference implementations the one execution path is tested against.

``answer_many`` always plans (cross-query plan sharing) and every
executor scores embeddings through the graph's score memo.  The
differential tests compare that path with the simplest execution that
must give the same answers:

* :class:`LinearScores` — the linear
  :func:`~tests.nlp.oracles.rank_scores` /
  :func:`~repro.nlp.embeddings.max_score` scans in place of the score
  memo, every score charged fresh (``embed_score``);
* :func:`unplanned_answers` — each question parsed and executed on its
  own by a fresh executor with no cache (so no shared neighborhood), in
  input order; a question the grammar rejects runs its keyword-match
  salvage graph, or answers ``"unknown"``.

The executor's taxonomy walks read the graph's sparse ``is a`` /
``instance of`` adjacency; their oracles are the full in-/out-edge
scans that adjacency replaced:

* :func:`full_scan_scope_ids` / :func:`full_scan_expand_to_instances`
  — ``matchVertex``'s candidate match plus downward expansion;
* :func:`full_scan_is_kind_of` — the answer-side ``kind of`` filter;
* :func:`full_scan_path_pairs` — ``getRelationpairs`` over two
  endpoint lists, read from every out- or in-edge.

The executor resolves slots to vertex ids and pairs copular ("be")
clauses in one pass over each side; their oracles are the loops those
replaced:

* :func:`dict_merged_slot_ids` — a bound slot's vertices merged label
  by label into a dict keyed by id;
* :func:`nested_be_pairs` — every subject scanned against every object
  of its label.
"""

from collections.abc import Sequence

from repro.core import Answer, QueryGraphExecutor, SVQA, generate_query_graph
from repro.core.executor import EXPANSION_HOPS, ExecutorConfig, _is_category
from repro.errors import ReproError
from repro.graph import (
    INSTANCE_OF,
    IS_A,
    TAXONOMY_LABELS,
    Graph,
    RelationPair,
    Vertex,
)
from repro.nlp.embeddings import max_score
from repro.resilience.degrade import classify_question_text, keyword_query_graph
from tests.nlp.oracles import rank_scores


class LinearScores:
    """Drop-in for ``QueryGraphExecutor._score_memo``: the linear scans, with
    every score reported fresh and no memo probes."""

    def rank(self, query, candidates):
        return rank_scores(query, candidates), len(candidates), 0

    def best(self, query, candidates):
        best, score = max_score(query, candidates)
        return best, score, len(candidates), 0


def unplanned_answers(system: SVQA, questions: list[str]) -> list[Answer]:
    """Answer ``questions`` one by one, unplanned and uncached.

    Parsing and execution charge ``system.clock``, like
    ``answer_many`` does, so charge counts are comparable.  A question
    the grammar rejects is salvaged as the resilience layer does: its
    keyword-match graph runs, else the answer is ``"unknown"``.
    """
    answers = []
    for question in questions:
        try:
            graph = generate_query_graph(question, clock=system.clock)
        except ReproError:
            graph = keyword_query_graph(question)
        if graph is None:
            answers.append(Answer(classify_question_text(question),
                                  "unknown"))
            continue
        executor = QueryGraphExecutor(system.merged, clock=system.clock,
                                      config=system.config.executor)
        answers.append(executor.execute(graph))
    return answers


def full_scan_expand_to_instances(
    graph: Graph, vertices: list[Vertex], hops: int
) -> list[Vertex]:
    """Concepts -> hyponym concepts (reverse ``is a``, up to ``hops``
    levels) -> instances (one final reverse ``instance of`` sweep),
    reading every in-edge of every vertex it visits."""
    result: dict[int, Vertex] = {v.id: v for v in vertices}
    frontier = list(vertices)
    for _ in range(hops):
        next_frontier: list[Vertex] = []
        for vertex in frontier:
            for edge in graph.in_edges(vertex.id):
                if edge.label != IS_A:
                    continue
                child = graph.vertex(edge.src)
                if child.id not in result:
                    result[child.id] = child
                    next_frontier.append(child)
        if not next_frontier:
            break
        frontier = next_frontier
    for vertex in list(result.values()):
        for edge in graph.in_edges(vertex.id):
            if edge.label != INSTANCE_OF:
                continue
            child = graph.vertex(edge.src)
            result.setdefault(child.id, child)
    return list(result.values())


def full_scan_scope_ids(graph: Graph, label: str,
                        config: ExecutorConfig) -> list[int]:
    """The ids a scope-store miss on ``label`` resolves to."""
    match = graph.candidate_index.match(
        label, config.ld_threshold,
        include_synonyms=not _is_category(label),
    )
    direct: list[Vertex] = []
    for candidate in match.labels:
        direct.extend(graph.find_vertices(candidate))
    expanded = full_scan_expand_to_instances(graph, direct,
                                             EXPANSION_HOPS)
    return [v.id for v in expanded]


def full_scan_is_kind_of(graph: Graph, label: str, ancestor: str) -> bool:
    """Whether ``label`` reaches ``ancestor`` over taxonomy out-edges
    within ``EXPANSION_HOPS + 1`` levels, reading every out-edge."""
    seen: set[int] = set()
    frontier = [v.id for v in graph.find_vertices(label)]
    target = ancestor.lower()
    hops = 0
    while frontier and hops <= EXPANSION_HOPS + 1:
        next_frontier: list[int] = []
        for vertex_id in frontier:
            if vertex_id in seen:
                continue
            seen.add(vertex_id)
            if graph.vertex(vertex_id).label.lower() == target:
                return True
            for edge in graph.out_edges(vertex_id):
                if edge.label in TAXONOMY_LABELS:
                    next_frontier.append(edge.dst)
        frontier = next_frontier
        hops += 1
    return False


def full_scan_path_pairs(graph: Graph, subjects: Sequence[int],
                         objects: Sequence[int]) -> list[tuple[int, int, int]]:
    """The ``(subject id, edge id, object id)`` triples a path-store
    miss over the vertex ids ``subjects`` x ``objects`` retrieves:
    every non-taxonomy out-edge of the subjects (into the objects,
    when there are any), or, with no subjects, every non-taxonomy
    in-edge of the objects."""
    if subjects:
        object_ids = set(objects)
        return [(subject, edge.id, edge.dst)
                for subject in subjects
                for edge in graph.out_edges(subject)
                if edge.label not in TAXONOMY_LABELS
                and (not objects or edge.dst in object_ids)]
    return [(edge.src, edge.id, obj)
            for obj in objects
            for edge in graph.in_edges(obj)
            if edge.label not in TAXONOMY_LABELS]


def dict_merged_slot_ids(executor: QueryGraphExecutor,
                         bound_labels: list[str]) -> list[int]:
    """A bound slot's vertex ids as the executor once merged them: each
    label's matched vertices into a dict keyed by id, in label order,
    the first place of an id winning."""
    graph = executor.graph
    vertices: dict[int, Vertex] = {}
    for label in bound_labels:
        for vertex in graph.vertices_by_id(
                executor.match_vertex_label(label)):
            vertices.setdefault(vertex.id, vertex)
    return list(vertices)


def nested_be_pairs(graph: Graph, subjects: list[Vertex],
                    objects: list[Vertex]) -> list[RelationPair]:
    """The copular ("be") pairs by the nested loop: a subject whose
    lowercased label an object carries pairs with the first *other*
    object of that label over their first edge (or a virtual ``be``
    edge), and otherwise through its taxonomy out-edges into the
    objects."""
    from repro.graph.model import Edge

    object_ids = {v.id for v in objects}
    object_labels = {v.label.lower() for v in objects}
    pairs: list[RelationPair] = []
    for subject in subjects:
        if subject.label.lower() in object_labels:
            for obj in objects:
                if obj.label.lower() == subject.label.lower() \
                        and obj.id != subject.id:
                    between = [e for e in graph.out_edges(subject.id)
                               if e.dst == obj.id]
                    pairs.append(RelationPair(
                        subject,
                        between[0] if between
                        else Edge(-1, subject.id, obj.id, "be", {}),
                        obj,
                    ))
                    break
            continue
        for edge in graph.out_edges(subject.id):
            if edge.label in TAXONOMY_LABELS and edge.dst in object_ids:
                pairs.append(RelationPair(subject, edge,
                                          graph.vertex(edge.dst)))
    return pairs
