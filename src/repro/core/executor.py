"""QueryGraphExecutor: Algorithm 3 — running ``G_q`` over ``G_mg``.

The executor walks the query graph from its in-degree-0 condition
vertices toward the main clause.  For every vertex it

1. **matches** the subject/object terms to merged-graph vertices
   (``matchVertex``: normalized-Levenshtein label matching, possessive
   resolution through KG edges, and ``is a`` / ``instance of``
   expansion so "pets" finds dog/cat/bird instances) — served by the
   graph's :class:`~repro.graph.candidates.VertexCandidateIndex`, so
   only a small candidate set is examined instead of every distinct
   label, and ``vertex_match`` is charged per candidate *examined*;
2. **retrieves** the relation pairs between the two vertex sets
   (``getRelationpairs``);
3. **filters** pairs by the predicate's most similar edge label
   (``maxScore`` over embeddings, through the graph's exact score
   memo :class:`~repro.nlp.score_memo.ScoreMemo`) and applies the
   constraint ("most frequently" keeps the subject group supported by
   the most images);
4. **propagates** the surviving labels along S2S/S2O/O2S/O2O edges to
   its consumers (Update stage).

The key-centric cache short-circuits steps 1 (scope) and 2 (path; a
path miss on a static head scans that head's whole neighborhood once
and later misses under it filter their pairs from it).
Its keys name what was asked (a label, a pair of slot keys); each
entry records what its computation read, and the cache observes the
merged graph's writes, so a mutation after merge retires the entries
it can change, and a vertex joining or leaving an entry's labels or
endpoints is checked when the entry is next read, instead of serving
deleted or mis-labeled vertices (:mod:`repro.graph.observe`,
:class:`ScopeEntry`, :class:`PathEntry`).  Every uncached operation
charges the simulated clock with its true data-dependent cost, which
is what the latency experiments measure.
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.analysis.diagnostics import DiagnosticReport
    from repro.graph.model import Edge

from repro.errors import ExecutionError
from repro.graph.observe import Reads
from repro.graph import (
    INSTANCE_OF,
    IS_A,
    TAXONOMY_LABELS,
    Graph,
    RelationPair,
    Vertex,
    relations_between,
)
from repro.memo import Memo
from repro.nlp.morphology import noun_singular
from repro.observability.spans import Tracer, maybe_span
from repro.resilience.events import FaultEvent
from repro.resilience.manager import ResilienceManager
from repro.resilience.retry import DeadlineBudget
from repro.simtime import SimClock
from repro.core.aggregator import MergedGraph
from repro.core.answer import Answer, fallback_answer, final_answer
from repro.core.cache import Computation, KeyCentricCache
from repro.core.spoc import QueryGraph, QuestionType, SPOC, Term
from repro.core.spoc_extract import CONSTRAINT_WORDS
from repro.core.stats import ExecutorStats

#: FaultEvent kinds that mean an answer was actually degraded (faults
#: that were retried away leave provenance but full answer quality)
_DEGRADING_EVENT_KINDS = frozenset({
    "exhausted", "degraded", "short-circuit", "deadline",
})


@dataclass
class ExecutorConfig:
    """Matching thresholds of Algorithm 3."""

    ld_threshold: float = 0.34        # normalized-Levenshtein cutoff
    predicate_threshold: float = 0.55  # cosine floor for edge labels
    constraint_threshold: float = 0.5  # cosine floor for constraints


#: reverse ``is a`` levels matchVertex expands a concept through
EXPANSION_HOPS = 2

#: distinct query graphs whose validator diagnostics are remembered
#: (the fast and paper MVQA runs validate 100)
DIAGNOSTICS_CAPACITY = 1024

#: the default validator's diagnostics per frozen query graph: the
#: validator is a pure function of the graph, so one memo serves the
#: whole process; it holds tuples, and every lookup hands out a fresh
#: report
_DIAGNOSTICS = Memo(DIAGNOSTICS_CAPACITY, "core.diagnostics")


def _survives(before: Sequence[int], now: Sequence[int],
              inert: Callable[[int], bool]) -> bool:
    """Whether a value computed over the ids ``before`` still holds
    over ``now``: the ids in both keep their relative order, and every
    id that joined or left is ``inert`` (carries nothing the value is
    made of).  Both rechecks compare against the ids the value was
    computed from, which are the ids its reads were registered for."""
    if now == before:
        return True
    was, is_ = set(before), set(now)
    return [v for v in now if v in was] == [v for v in before if v in is_] \
        and all(inert(v) for v in was ^ is_)


class ScopeEntry:
    """A scope-store value: the vertex ids a label resolves to, the
    candidate numbers of its lookup, and what a later read needs to
    recheck the ids.

    The ids are the matched labels' vertices (``direct``, in candidate
    then insertion order) followed by what the taxonomy walk added.
    Writes to the taxonomy the walk read, or a new label the lookup
    accepts, retire the entry (its :class:`~repro.graph.observe.Reads`).
    A vertex that joins or leaves a matched label instead shows when
    the entry is next read under another epoch: :meth:`resolve`
    rebuilds ``direct`` from the label index and keeps the walk's
    additions when every vertex that joined or left has no taxonomy
    edge (so the walk would add the same).
    """

    __slots__ = ("ids", "examined", "pruned", "labels", "direct",
                 "current")

    def __init__(self, ids: list[int], examined: int, pruned: int,
                 labels: tuple[str, ...], direct: int,
                 epoch: int) -> None:
        self.ids = ids
        self.examined = examined
        self.pruned = pruned
        self.labels = labels
        self.direct = direct
        # the epoch the ids were last resolved at, and those ids
        self.current = (epoch, ids)

    def resolve(self, graph: Graph, stamp: int | None) -> list[int] | None:
        """The ids at epoch ``stamp``, or ``None`` when they need a
        rescan (the result is kept if no write landed meanwhile)."""
        if stamp is None:
            return None
        epoch, ids = self.current
        if epoch == stamp:
            return ids
        direct: list[int] = []
        for label in self.labels:
            direct.extend(graph.vertex_labels.ids(label))
        targets = graph.taxonomy_targets()

        def inert(v: int) -> bool:
            # (a vertex that is gone carries no edge)
            return not graph.has_vertex(v) or (
                v not in targets and not graph.taxonomy_out_edges(v))

        if not _survives(self.ids[:self.direct], direct, inert):
            return None
        ids = direct + self.ids[self.direct:]
        if graph.epoch == stamp:
            self.current = (stamp, ids)
        return ids


class PathEntry:
    """A path-store value: the relation pairs between two endpoint
    sets, their distinct edge labels (sorted, the candidates predicate
    filtering ranks) and the pairs each accepted label set keeps, the
    endpoint ids they were computed from, and the last epoch those
    endpoints were checked at.

    Writes to the edges the pairs were read from retire the entry (its
    :class:`~repro.graph.observe.Reads`).  A write that moves an
    endpoint set instead shows when the entry is next read under
    another epoch: :meth:`holds` compares the id tuples with those the
    pairs were computed from, and accepts a difference only when the
    vertices that joined or left carry no pair, before or after, and
    the others keep their relative order.
    """

    __slots__ = ("pairs", "labels", "subject_ids", "object_ids",
                 "checked", "_labelled")

    def __init__(self, pairs: tuple[RelationPair, ...],
                 subject_ids: tuple[int, ...],
                 object_ids: tuple[int, ...], checked: int) -> None:
        self.pairs = pairs
        self.labels = sorted({pair.edge.label for pair in pairs})
        self.subject_ids = subject_ids
        self.object_ids = object_ids
        self.checked = checked
        self._labelled: dict[frozenset[str], tuple[RelationPair, ...]] = {}

    def labelled(self, accepted: frozenset[str]) -> tuple[RelationPair, ...]:
        """The pairs whose edge label is in ``accepted``, in order, kept
        per label set: the pairs never change (lanes that race store
        equal tuples)."""
        kept = self._labelled.get(accepted)
        if kept is None:
            kept = tuple(p for p in self.pairs if p.edge.label in accepted)
            self._labelled[accepted] = kept
        return kept

    def holds(self, graph: Graph, subject_ids: tuple[int, ...],
              object_ids: tuple[int, ...], stamp: int | None) -> bool:
        """Whether the pairs are those of the vertices ``subject_ids``
        x ``object_ids`` in ``graph`` at epoch ``stamp`` (rechecked
        when ``stamp`` differs from the last check; the check is kept
        if no write landed)."""
        if stamp is None:
            return False
        if stamp == self.checked:
            return True
        if (subject_ids, object_ids) != (self.subject_ids,
                                         self.object_ids) \
                and not self._moved_inertly(graph, subject_ids, object_ids):
            return False
        if graph.epoch == stamp:
            self.checked = stamp
        return True

    def _moved_inertly(self, graph: Graph, subject_ids: tuple[int, ...],
                       object_ids: tuple[int, ...]) -> bool:
        if (bool(subject_ids), bool(object_ids)) != (
                bool(self.subject_ids), bool(self.object_ids)):
            return False  # another retrieval branch
        new_s, new_o = set(subject_ids), set(object_ids)
        paired_s = {p.subject.id for p in self.pairs}
        paired_o = {p.object.id for p in self.pairs}

        def inert_subject(v: int) -> bool:
            return v not in paired_s and not (graph.has_vertex(v) and any(
                e.label not in TAXONOMY_LABELS
                and (not new_o or e.dst in new_o)
                for e in graph.out_edges(v)))

        def inert_object(v: int) -> bool:
            return v not in paired_o and not (graph.has_vertex(v) and any(
                e.label not in TAXONOMY_LABELS
                and (not new_s or e.src in new_s)
                for e in graph.in_edges(v)))

        return _survives(self.subject_ids, subject_ids, inert_subject) \
            and _survives(self.object_ids, object_ids, inert_object)


@dataclass
class VertexResult:
    """What executing one query-graph vertex produced."""

    spoc: SPOC
    pairs: list[RelationPair]
    matched_predicate: str | None

    def subjects_of_pairs(self) -> list[Vertex]:
        """Distinct subjects among the surviving pairs (``AP.Sub``)."""
        seen: dict[int, Vertex] = {}
        for pair in self.pairs:
            seen.setdefault(pair.subject.id, pair.subject)
        return list(seen.values())

    def objects_of_pairs(self) -> list[Vertex]:
        """Distinct objects among the surviving pairs (``AP.Obj``)."""
        seen: dict[int, Vertex] = {}
        for pair in self.pairs:
            seen.setdefault(pair.object.id, pair.object)
        return list(seen.values())


class QueryGraphExecutor:
    """Executes query graphs over a merged graph."""

    def __init__(
        self,
        merged: MergedGraph,
        cache: KeyCentricCache | None = None,
        clock: SimClock | None = None,
        config: ExecutorConfig | None = None,
        stats: ExecutorStats | None = None,
        resilience: ResilienceManager | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.merged = merged
        self.graph: Graph = merged.graph
        # the three embedding lookups go through the graph's exact
        # score memo: a repeat (query, label) pair charges ann_probe
        self._score_memo = self.graph.score_memo
        self.cache = cache if cache is not None else KeyCentricCache.disabled()
        self.clock = clock if clock is not None else SimClock()
        self.config = config or ExecutorConfig()
        # without a collector of its own an executor counts into its
        # cache's, so binding never moves a session cache's counts
        self.stats = stats if stats is not None else self.cache.stats
        self.cache.bind(self.graph, self.stats)
        # a session shares one manager; a standalone executor guards
        # with a private one
        self.resilience = resilience or ResilienceManager()
        self.tracer = tracer
        # per-execute fault provenance (executors are single-threaded:
        # the batch engine gives every worker its own instance)
        self._events: list[FaultEvent] | None = None
        # candidate work done by the current slot resolution (feeds the
        # executor.match span's candidates/pruned attributes); cached
        # scope values replay the numbers of the original miss, so the
        # attributes stay worker-count invariant
        self._slot_candidates = 0
        self._slot_pruned = 0

    # ------------------------------------------------------------------
    # Algorithm 3 main loop
    # ------------------------------------------------------------------
    def validate(self, query_graph: QueryGraph) -> DiagnosticReport:
        """Run the semantic validator over one graph (layer-1 static
        analysis), recording diagnostic counts in the stats collector.

        Returns the
        :class:`~repro.analysis.diagnostics.DiagnosticReport`; a graph
        carrying ERROR diagnostics is counted, never rejected.
        """
        # imported lazily: repro.analysis depends on repro.core's SPOC
        # model, so a module-level import would be circular
        from repro.analysis.diagnostics import DiagnosticReport
        from repro.analysis.query_validator import validate_query_graph

        known = _DIAGNOSTICS.get_or_compute(
            query_graph,
            lambda: tuple(validate_query_graph(query_graph).diagnostics))
        report = DiagnosticReport(list(known))
        self.stats.record_validation(len(report.errors),
                                     len(report.warnings))
        return report

    def execute(
        self, query_graph: QueryGraph,
        deadline_limit: float | None = None,
    ) -> Answer:
        """Run one query graph and produce the final answer.

        The graph first passes through the semantic validator — broken
        wiring is counted before Algorithm 3 touches the merged graph.

        matchVertex / cache operations run under the resilience
        manager's retry + circuit-breaker guards, a per-query deadline
        budget can cut execution off with the best partial answer,
        and every incident lands on the answer's ``fault_events``.

        ``deadline_limit`` is a per-query budget override in simulated
        seconds (the serving layer derives it from the ``Deadline-Ms``
        request header); the effective budget is the tighter of this
        and the configured :attr:`ResilienceConfig.query_deadline`.
        """
        with maybe_span(self.tracer, "executor.execute",
                        question=query_graph.question,
                        clauses=len(query_graph.vertices)) as span:
            answer = self._execute_inner(query_graph, deadline_limit)
            if span is not None:
                span.set("answer", answer.value)
                span.set("degraded", answer.degraded)
            return answer

    def _execute_inner(
        self, query_graph: QueryGraph,
        deadline_limit: float | None = None,
    ) -> Answer:
        self.validate(query_graph)
        events: list[FaultEvent] = []
        self._events = events
        try:
            answer = self._run_graph(
                query_graph,
                deadline=self.resilience.deadline(self.clock,
                                                  limit=deadline_limit),
            )
        finally:
            self._events = None
        if events:
            answer.fault_events.extend(events)
            if any(e.kind in _DEGRADING_EVENT_KINDS for e in events) \
                    and not answer.degraded:
                answer.degraded = True
                answer.confidence = min(answer.confidence, 0.5)
        if answer.degraded:
            self.stats.record_degraded()
        return answer

    def _run_graph(
        self, query_graph: QueryGraph, deadline: DeadlineBudget | None
    ) -> Answer:
        """Algorithm 3's traversal, optionally under a deadline budget."""
        bindings: dict[int, dict[str, list[str] | None]] = {
            i: {"subject": None, "object": None}
            for i in range(len(query_graph.vertices))
        }
        results: dict[int, VertexResult] = {}
        pending = deque(query_graph.start_vertices())
        if not pending:
            raise ExecutionError("query graph has no start vertices")
        executed: set[int] = set()
        remaining_inputs = {
            i: query_graph.in_degree(i)
            for i in range(len(query_graph.vertices))
        }

        last: VertexResult | None = None
        cut_off = False
        while pending:
            if deadline is not None and deadline.exceeded:
                # budget spent: stop walking and salvage what we have
                cut_off = True
                self.stats.record_deadline_cutoff()
                if self._events is not None:
                    self._events.append(FaultEvent(
                        "executor.deadline", "deadline",
                        attempts=len(executed),
                        detail=f"{deadline.consumed:.3f}s of "
                               f"{deadline.limit:.3f}s budget",
                    ))
                break
            index = pending.popleft()
            if index in executed:
                continue
            executed.add(index)
            spoc = query_graph.vertices[index]
            result = self._execute_vertex(spoc, bindings[index])
            results[index] = result
            last = result
            # Update stage: propagate to consumers
            for dst, kind in query_graph.out_edges(index):
                provider_vertices = (
                    result.subjects_of_pairs()
                    if kind.provider_slot == "subject"
                    else result.objects_of_pairs()
                )
                labels = sorted({v.label for v in provider_vertices})
                existing = bindings[dst][kind.consumer_slot]
                if existing is None:
                    bindings[dst][kind.consumer_slot] = labels
                else:
                    # two providers constrain the same slot: both
                    # conditions must hold, so intersect instead of
                    # letting the last-executed provider win
                    bindings[dst][kind.consumer_slot] = sorted(
                        set(existing) & set(labels)
                    )
                remaining_inputs[dst] -= 1
                if remaining_inputs[dst] <= 0:
                    pending.append(dst)

        main_index = query_graph.main_index
        if main_index not in results:
            if cut_off:
                # best partial answer: the main clause never ran, so
                # the honest salvage is an attributed "unknown"
                self.stats.record_query(len(executed))
                qtype = query_graph.vertices[main_index].question_type \
                    or QuestionType.REASONING
                from repro.resilience.degrade import \
                    PARTIAL_ANSWER_CONFIDENCE

                return fallback_answer(qtype, [],
                                       confidence=PARTIAL_ANSWER_CONFIDENCE)
            raise ExecutionError(
                "main clause never executed — query graph is disconnected"
            )
        self.stats.record_query(len(executed))
        main_result = results[main_index]
        return final_answer(
            main_result.spoc, main_result.pairs, kind_filter=self._is_kind_of
        )

    # ------------------------------------------------------------------
    # Query stage
    # ------------------------------------------------------------------
    def _execute_vertex(
        self, spoc: SPOC, binding: dict[str, list[str] | None]
    ) -> VertexResult:
        # taken before the slots resolve: the path entry is kept only
        # if no write landed since
        stamp = self.cache.stamp()
        subjects = self._guarded_resolve(spoc.subject, binding["subject"])
        objects = self._guarded_resolve(spoc.object, binding["object"])

        if spoc.predicate == "be":
            pairs = self._be_pairs(subjects, objects)
            matched = "be"
        else:
            entry = self._relation_pairs(spoc, binding, subjects, objects,
                                         stamp)
            matched, pairs = self._filter_by_predicate(spoc.predicate,
                                                       entry)
        pairs = self._apply_constraint(spoc, pairs)
        return VertexResult(spoc, pairs, matched)

    def _guarded_resolve(
        self, term: Term | None, bound_labels: list[str] | None
    ) -> tuple[int, ...]:
        """Slot resolution (vertex ids) under the ``executor.match``
        fault site.

        Retry-exhausted matching degrades to an empty vertex set (the
        query proceeds, typically toward "no"/"unknown") rather than
        killing the query.
        """
        self._slot_candidates = 0
        self._slot_pruned = 0
        if self.tracer is None:
            return self._guarded_ids(term, bound_labels)
        with self.tracer.span("executor.match",
                              key=_match_key(term, bound_labels)) as span:
            result = self._guarded_ids(term, bound_labels)
            span.set("matches", len(result))
            span.set("candidates", self._slot_candidates)
            span.set("pruned", self._slot_pruned)
            return result

    def _guarded_ids(
        self, term: Term | None, bound_labels: list[str] | None
    ) -> tuple[int, ...]:
        if term is None and bound_labels is None:
            return ()
        return self.resilience.call(
            "executor.match",
            key=lambda: _match_key(term, bound_labels),
            fn=lambda: self._resolve_slot(term, bound_labels),
            clock=self.clock,
            events=self._events,
            fallback=tuple,
        )

    def _scope_get_or_compute(
        self, key: tuple, compute: Computation, stamp: int | None
    ) -> tuple[ScopeEntry, tuple[Reads, ...], bool]:
        """Scope-store access under the ``cache.scope`` fault site;
        a tripped breaker routes around the store (cache bypass)."""

        def holds(entry: ScopeEntry) -> bool:
            return entry.resolve(self.graph, stamp) is not None

        return self.resilience.call(
            "cache.scope",
            key=lambda: self._fault_key(key),
            fn=lambda: self.cache.scope_get_or_compute(key, compute,
                                                       stamp, holds),
            clock=self.clock,
            events=self._events,
            fallback=lambda: (*compute(), False),
        )

    def _fault_key(self, key: tuple) -> tuple:
        """The identity a cache fault site draws and reports faults
        under: the store key with the graph epoch after its kind tag,
        as these sites have always been keyed, so seeded fault sweeps
        (``repro chaos``) replay unchanged."""
        return (key[0], self.graph.epoch, *key[1:])

    def _path_get_or_compute(
        self, key: tuple, compute: Computation, stamp: int | None,
        holds: Callable[[PathEntry], bool],
    ) -> tuple[PathEntry, tuple[Reads, ...], bool]:
        """Path-store access under the ``cache.path`` fault site."""
        return self.resilience.call(
            "cache.path",
            key=lambda: self._fault_key(key),
            fn=lambda: self.cache.path_get_or_compute(key, compute,
                                                      stamp, holds),
            clock=self.clock,
            events=self._events,
            fallback=lambda: (*compute(), False),
        )

    def _resolve_slot(
        self, term: Term | None, bound_labels: list[str] | None
    ) -> tuple[int, ...]:
        """A slot's vertex ids: a bound slot's labels' ids in label
        order, each id once at its first place."""
        if bound_labels is not None:
            return tuple(dict.fromkeys(chain.from_iterable(
                map(self.match_vertex_label, bound_labels))))
        if term is None:
            return ()
        return self.match_vertex(term)

    # ------------------------------------------------------------------
    # matchVertex
    # ------------------------------------------------------------------
    def match_vertex(self, term: Term) -> tuple[int, ...]:
        """The paper's ``matchVertex``: term -> merged-graph vertex
        ids."""
        if term.owner is not None:
            return self._match_possessive(term)
        return self.match_vertex_label(term.head)

    def match_vertex_label(self, label: str) -> tuple[int, ...]:
        """Label -> vertex ids: candidate-index match + is-a/instance-of
        expansion.

        The candidate index returns exactly the labels the linear
        label-test scan accepts, but only *examines* the small
        bucket-selected candidate set — and ``vertex_match`` is charged
        per candidate examined.  The cached entry is retired or
        rechecked after any write that can change it, so a mutated
        graph can never serve a stale id list (which is why no
        ``has_vertex`` filter is needed on the way out).
        """
        ids, _, _ = self._label_scope(label)
        return tuple(ids)

    def _label_scope(
        self, label: str
    ) -> tuple[list[int], ScopeEntry, tuple[Reads, ...]]:
        """:meth:`match_vertex_label`'s ids, and the entry and reads
        behind them."""
        stamp = self.cache.stamp()
        key = ("scope", label.lower())
        entry, deps, hit = self._traced_scope(
            key, lambda: self._scope_value(label), stamp)
        self._slot_candidates += entry.examined
        self._slot_pruned += entry.pruned
        self.stats.record_scope(hit)
        if hit:
            self.clock.charge("cache_hit")
        return _resolved(entry, self.graph, stamp), entry, deps

    def _scope_value(
        self, label: str
    ) -> tuple[ScopeEntry, tuple[Reads, ...]]:
        """The uncached scope computation: candidate-index match +
        instance expansion, charging ``scope_scan`` and per-candidate
        ``vertex_match`` (the body of a scope-store miss)."""
        self.clock.charge("scope_scan")
        synonyms = not _is_category(label)
        match = self.graph.candidate_index.match(
            label, self.config.ld_threshold, include_synonyms=synonyms,
        )
        self.clock.charge("vertex_match", times=match.examined)
        direct: list[int] = []
        for candidate in match.labels:
            direct.extend(self.graph.vertex_labels.ids(candidate))
        edges: list[int] = []
        ids = self._expand_to_instances(direct, edges)
        # which labels matched and which vertices carry them is
        # rechecked on read (ScopeEntry.resolve); a new label the
        # lookup accepts and the taxonomy the walk read retire it
        reads = Reads(probes=((label, self.config.ld_threshold,
                               synonyms),),
                      tax_in=ids, edges=edges)
        entry = ScopeEntry(ids, match.examined, match.pruned,
                           match.labels, len(direct), self.graph.epoch)
        return entry, (reads,)

    def _match_possessive(self, term: Term) -> tuple[int, ...]:
        """"Harry Potter's girlfriend": resolve the owner, follow its
        most similar out-edge, expand the targets."""
        stamp = self.cache.stamp()
        key = ("scope-poss", term.owner.lower(), term.head.lower())

        def compute() -> tuple[ScopeEntry, tuple[Reads, ...]]:
            base_candidates = self._slot_candidates
            base_pruned = self._slot_pruned
            owner_ids, owner, owner_deps = self._label_scope(term.owner)
            examined = self._slot_candidates - base_candidates
            pruned = self._slot_pruned - base_pruned
            out_edges = [
                edge
                for owner_id in owner_ids
                for edge in self.graph.out_edges(owner_id)
                if edge.label not in TAXONOMY_LABELS
            ]
            out_labels = sorted({edge.label for edge in out_edges})
            ids: list[int] = []
            walked: list[int] = []
            if out_labels:
                best, score, fresh, probes = \
                    self._score_memo.best(term.head, out_labels)
                self._charge_retrieval("possessive", fresh, probes)
                targets: dict[int, None] = {}
                if best is not None and \
                        score >= self.config.predicate_threshold:
                    for edge in out_edges:
                        if edge.label == best:
                            targets.setdefault(edge.dst)
                ids = self._expand_to_instances(list(targets), walked)
            # an owner with no candidate out-edges has nothing to
            # score: no embed_score charge, no maxScore call
            # nothing here is rechecked on read, so the reads cover the
            # owner lookup's vertices too, with their taxonomy in-edges
            # (an owner the lookup's recheck accepted is in no reads of
            # the owner entry)
            reads = Reads(labels=owner.labels, held=owner_ids,
                          tax_in=[*ids, *owner_ids], out_of=owner_ids,
                          edges=[*(edge.id for edge in out_edges), *walked])
            entry = ScopeEntry(ids, examined, pruned, (), 0,
                               self.graph.epoch)
            return entry, (reads, *owner_deps)

        base_candidates = self._slot_candidates
        base_pruned = self._slot_pruned
        entry, _, hit = self._traced_scope(key, compute, stamp)
        # assignment, not +=: a miss already accumulated the nested
        # owner lookup's numbers, a hit replays the stored ones — both
        # land on the same total, keeping span attributes worker-count
        # invariant
        self._slot_candidates = base_candidates + entry.examined
        self._slot_pruned = base_pruned + entry.pruned
        self.stats.record_scope(hit)
        if hit:
            self.clock.charge("cache_hit")
        return tuple(_resolved(entry, self.graph, stamp))

    def _traced_scope(
        self, key: tuple, compute: Computation, stamp: int | None
    ) -> tuple[ScopeEntry, tuple[Reads, ...], bool]:
        """:meth:`_scope_get_or_compute` in a ``cache.scope`` span when
        a tracer is on."""
        if self.tracer is None:
            return self._scope_get_or_compute(key, compute, stamp)
        with self.tracer.span("cache.scope", key=str(key)) as span:
            found = self._scope_get_or_compute(key, compute, stamp)
            entry, _, hit = found
            span.set("hit", hit)
            span.set("candidates", entry.examined)
            span.set("pruned", entry.pruned)
        return found

    def _expand_to_instances(self, vertex_ids: list[int],
                             edges_read: list[int]) -> list[int]:
        """Close the match set downward: concepts -> hyponym concepts
        (reverse ``is a``, up to :data:`EXPANSION_HOPS` levels) ->
        instances (one final reverse ``instance of`` sweep).  Both walks visit
        only the vertices the graph's taxonomy adjacency lists as
        having a taxonomy in-edge; the ids of the edges they read are
        added to ``edges_read``."""
        taxonomy_in_edges = self.graph.taxonomy_in_edges
        targets = self.graph.taxonomy_targets()
        result = dict.fromkeys(vertex_ids)
        frontier = vertex_ids
        for _ in range(EXPANSION_HOPS):
            next_frontier: list[int] = []
            for vertex_id in frontier:
                if vertex_id not in targets:
                    continue
                for edge in taxonomy_in_edges(vertex_id):
                    edges_read.append(edge.id)
                    if edge.label == IS_A and edge.src not in result:
                        result[edge.src] = None
                        next_frontier.append(edge.src)
            if not next_frontier:
                break
            frontier = next_frontier
        for vertex_id in [v for v in result if v in targets]:
            for edge in taxonomy_in_edges(vertex_id):
                edges_read.append(edge.id)
                if edge.label == INSTANCE_OF:
                    result[edge.src] = None
        return list(result)

    # ------------------------------------------------------------------
    # getRelationpairs + filter
    # ------------------------------------------------------------------
    def _relation_pairs(
        self,
        spoc: SPOC,
        binding: dict[str, list[str] | None],
        subjects: tuple[int, ...],
        objects: tuple[int, ...],
        stamp: int | None = None,
    ) -> PathEntry:
        """The path entry of the relation pairs between the vertices
        ``subjects`` and ``objects``: held, or scanned and stored.
        Its pairs are a tuple, so no caller can change a held entry."""
        # the path key is (subject-key, object-key) — no predicate.
        # Retrieval collects *every* relation between the two endpoint
        # sets; predicate filtering (maxScore) runs on the retrieved
        # pairs afterwards, so one cached neighborhood serves every
        # predicate over the same endpoints.  A write to the edges the
        # entry read retires it; a write that moves its endpoint sets
        # is caught when it is next read (PathEntry.holds).
        key = (
            "path",
            self._slot_key(spoc.subject, binding["subject"]),
            self._slot_key(spoc.object, binding["object"]),
        )
        epoch = self.graph.epoch

        def compute() -> tuple[PathEntry, tuple[Reads, ...]]:
            pairs = tuple(scan())
            edges = [p.edge.id for p in pairs]
            if subjects:
                reads = Reads(out_of=subjects, into=objects,
                              between=bool(objects), edges=edges)
            else:
                reads = Reads(into=objects, edges=edges)
            return PathEntry(pairs, subjects, objects, epoch), (reads,)

        def holds(entry: PathEntry) -> bool:
            return entry.holds(self.graph, subjects, objects, stamp)

        def scan() -> list[RelationPair]:
            self.clock.charge("path_probe")
            # path-store miss on a static head: its whole neighborhood
            # is read from (or scanned once into) the neighborhood
            # store, and this request's pairs are filtered from it
            edges = self._neighborhood_edges(spoc, binding, subjects,
                                             objects, stamp)
            if edges is None:
                self._charge_edge_scan(subjects, objects)
                if subjects and objects:
                    vertices = self.graph.vertices_by_id
                    return [p for p in relations_between(
                                self.graph, vertices(subjects),
                                vertices(objects))
                            if p.edge.label not in TAXONOMY_LABELS]
                edges = self._side_edges(subjects, objects)
            return self._pairs_on(edges, subjects, objects)

        if self.tracer is None:
            entry, _, hit = self._path_get_or_compute(key, compute, stamp,
                                                      holds)
        else:
            with self.tracer.span("cache.path", key=str(key)) as span:
                entry, _, hit = self._path_get_or_compute(
                    key, compute, stamp, holds)
                span.set("hit", hit)
        self.stats.record_path(hit)
        if hit:
            self.clock.charge("cache_hit")
        return entry

    def _side_edges(self, subjects: tuple[int, ...],
                    objects: tuple[int, ...]) -> list[Edge]:
        """The non-taxonomy edges a path miss scans: every out-edge of
        the subjects, or with no subjects every in-edge of the objects,
        in vertex then adjacency order."""
        if subjects:
            adjacent, sources = self.graph.out_edges, subjects
        else:
            adjacent, sources = self.graph.in_edges, objects
        return [edge for v in sources for edge in adjacent(v)
                if edge.label not in TAXONOMY_LABELS]

    def _pairs_on(self, edges: list[Edge], subjects: tuple[int, ...],
                  objects: tuple[int, ...]) -> list[RelationPair]:
        """The relation pairs of ``edges`` (from :meth:`_side_edges`
        over these endpoints) that run between ``subjects`` and
        ``objects``; an empty side is unconstrained."""
        vertex = self.graph.vertex
        if subjects and objects:
            targets = set(objects)
            edges = [e for e in edges if e.dst in targets]
        return [RelationPair(vertex(e.src), e, vertex(e.dst))
                for e in edges]

    def _charge_edge_scan(self, subjects: tuple[int, ...],
                          objects: tuple[int, ...]) -> None:
        """Charge the edge mass of the branch a path miss takes: the
        subject branches scan subject out-edges, the objects-only
        branch every object's *in*-edges."""
        if subjects:
            scans = self.graph.out_degree_sum(subjects)
        else:
            scans = self.graph.in_degree_sum(objects)
        self.clock.charge("edge_scan", times=scans)

    def _neighborhood_edges(
        self,
        spoc: SPOC,
        binding: dict[str, list[str] | None],
        subjects: tuple[int, ...],
        objects: tuple[int, ...],
        stamp: int | None,
    ) -> list[Edge] | None:
        """A path miss's :meth:`_side_edges`, read from its head's
        neighborhood.

        A neighborhood is a §V-B path item keyed by one endpoint: the
        non-taxonomy edges on one side of a head's vertices, stored
        under ``("nbr", direction, head)`` with the vertex ids it was
        read from.  It applies only when the branch
        :meth:`_relation_pairs` takes is anchored on a *static* plain
        term (no provider binding, no possessive), the path store is
        on, and no write is being retired (``stamp`` is not ``None``);
        otherwise this returns ``None`` and the caller scans as usual.

        A held neighborhood whose ids equal the runtime endpoint ids
        is used, charging ``pair_filter`` per stored edge.  Otherwise
        (a miss, a write that moved the head's vertices, or degraded
        slot resolution) the whole neighborhood is scanned once
        through the store's single-flight, charging the same
        ``edge_scan`` mass as a plain miss, and stored.
        """
        if stamp is None or not self.cache.enabled_path:
            return None
        if subjects:
            slot, direction, sources = "subject", "out", subjects
        elif objects:
            slot, direction, sources = "object", "in", objects
        else:
            return None
        term = spoc.slot(slot)
        if binding[slot] is not None or term is None \
                or term.owner is not None:
            return None
        ids = sources

        def fill() -> tuple[tuple[tuple[int, ...], list[Edge]],
                            tuple[Reads, ...]]:
            self._charge_edge_scan(subjects, objects)
            edges = self._side_edges(subjects, objects)
            edge_ids = [edge.id for edge in edges]
            reads = Reads(out_of=ids, edges=edge_ids) if subjects \
                else Reads(into=ids, edges=edge_ids)
            return (ids, edges), (reads,)

        (source_ids, edges), _, held = self.cache.nbr_get_or_compute(
            ("nbr", direction, term.head.lower()), fill, stamp,
            lambda entry: entry[0] == ids)
        if source_ids != ids:
            # a concurrent fill from other endpoint ids: scan our own
            (_, edges), _ = fill()
        elif held:
            self.clock.charge("pair_filter", times=len(edges))
            self.stats.record_neighborhood_fill()
        return edges

    def _slot_key(
        self, term: Term | None, bound: list[str] | None
    ) -> tuple[str, ...]:
        if bound is not None:
            return tuple(sorted(label.lower() for label in bound))
        if term is None:
            return ("*",)
        return (term.head.lower(), term.owner.lower() if term.owner else "")

    def _charge_retrieval(self, site: str, fresh: int,
                          probes: int) -> None:
        """Charge one score-memo lookup: ``fresh`` scores computed for
        the first time cost the same ``embed_score`` the linear scan
        charged; ``probes`` memo hits cost the far cheaper
        ``ann_probe``.  Zero counts charge (and record) nothing."""
        if fresh:
            self.clock.charge("embed_score", times=fresh)
        if probes:
            self.clock.charge("ann_probe", times=probes)
        self.stats.record_retrieval(site, fresh, probes)

    def _filter_by_predicate(
        self, predicate: str, entry: PathEntry
    ) -> tuple[str | None, list[RelationPair]]:
        """Keep the entry's pairs whose edge label best matches the
        predicate, as a new list."""
        pairs = entry.pairs
        if not pairs:
            return None, []
        ranked, fresh, probes = self._score_memo.rank(predicate,
                                                      entry.labels)
        self._charge_retrieval("predicate", fresh, probes)
        best, best_score = ranked[0]
        if best_score < self.config.predicate_threshold:
            self.stats.record_filter(len(pairs), 0)
            return None, []
        accepted = frozenset(
            label for label, score in ranked
            if score >= max(self.config.predicate_threshold,
                            best_score - 0.05)
        )
        kept = list(entry.labelled(accepted))
        self.stats.record_filter(len(pairs), len(kept))
        return best, kept

    def _be_pairs(
        self, subjects: tuple[int, ...], objects: tuple[int, ...]
    ) -> list[RelationPair]:
        """Identity/IS-A pairs for copular predicates ("Is X a cat?"),
        in subject order: a subject whose (lowercased) label an object
        carries pairs with the first other object of that label, over
        their first edge or a virtual one; any other subject pairs
        through each of its taxonomy out-edges into the objects.

        One pass over each side: the objects are grouped by label, and
        only subjects with a taxonomy edge into the objects (read from
        the objects' taxonomy in-edges) have their out-edges read.
        """
        graph = self.graph
        # per label, the first two objects carrying it: a subject
        # pairs with the first that is not itself
        firsts: dict[str, list[Vertex]] = {}
        for obj in graph.vertices_by_id(objects):
            same = firsts.setdefault(obj.label.lower(), [])
            if len(same) < 2:
                same.append(obj)
        object_ids = set(objects)
        targets = graph.taxonomy_targets()
        linked = {edge.src for object_id in objects if object_id in targets
                  for edge in graph.taxonomy_in_edges(object_id)}
        # per paired object, the first edge into it from each source:
        # in- and out-lists keep one pair's edges in the same order, so
        # it is the first of the source's out-edges into the object
        first_edges: dict[int, dict[int, Edge]] = {}
        pairs: list[RelationPair] = []
        for subject in graph.vertices_by_id(subjects):
            same = firsts.get(subject.label.lower())
            if same is not None:
                obj = same[0] if same[0].id != subject.id \
                    else same[1] if len(same) > 1 else None
                if obj is not None:
                    into = first_edges.get(obj.id)
                    if into is None:
                        into = first_edges[obj.id] = {}
                        for edge in graph.in_edges(obj.id):
                            into.setdefault(edge.src, edge)
                    edge = into.get(subject.id)
                    pairs.append(RelationPair(
                        subject,
                        edge if edge is not None
                        else _virtual_edge(subject, obj),
                        obj,
                    ))
                continue
            if subject.id in linked:
                for edge in graph.taxonomy_out_edges(subject.id):
                    if edge.dst in object_ids:
                        pairs.append(RelationPair(
                            subject, edge, graph.vertex(edge.dst)))
        return pairs

    # ------------------------------------------------------------------
    # constraints
    # ------------------------------------------------------------------
    def _apply_constraint(
        self, spoc: SPOC, pairs: list[RelationPair]
    ) -> list[RelationPair]:
        if spoc.constraint is None or not pairs:
            return pairs
        constraint, score, fresh, probes = self._score_memo.best(
            spoc.constraint, list(CONSTRAINT_WORDS)
        )
        self._charge_retrieval("constraint", fresh, probes)
        if constraint is None or score < self.config.constraint_threshold:
            return pairs
        keep_max = constraint.startswith("most")
        # group by the propagating slot's label — lowercased, like
        # every other label comparison in this file, so "Dog" and
        # "dog" pairs count as one group — weigh by distinct images
        slot = spoc.answer_role
        groups: dict[str, set] = {}
        for pair in pairs:
            vertex = pair.subject if slot == "subject" else pair.object
            evidence = pair.edge.props.get("image_id", pair.edge.id)
            groups.setdefault(vertex.label.lower(), set()).add(evidence)
        counts = Counter({label: len(ev) for label, ev in groups.items()})
        if not counts:
            return pairs
        ranked = counts.most_common()
        target = ranked[0][1] if keep_max else ranked[-1][1]
        winners = {label for label, count in ranked if count == target}
        self.stats.record_constraint()
        return [
            pair for pair in pairs
            if (pair.subject if slot == "subject"
                else pair.object).label.lower() in winners
        ]

    # ------------------------------------------------------------------
    # answer-side helpers
    # ------------------------------------------------------------------
    def _is_kind_of(self, label: str, ancestor: str) -> bool:
        """Whether ``label`` is a kind of ``ancestor`` in the merged
        graph's ``is a`` hierarchy (kept in the cache's kind store
        until a write touches what the walk read)."""

        def walk() -> tuple[bool, tuple[Reads, ...]]:
            answer, reads = self._walk_kind_of(label, ancestor)
            return answer, (reads,)

        answer, _, _ = self.cache.kind_get_or_compute(
            ("kind", label, ancestor.lower()), walk, self.cache.stamp())
        return answer

    def _walk_kind_of(self, label: str,
                      ancestor: str) -> tuple[bool, Reads]:
        """The answer, and what the walk read: the start label's ids,
        and each visited vertex's label and taxonomy out-edges."""
        seen: set[int] = set()
        edges: set[int] = set()
        reads = Reads(labels=(label,), held=seen, tax_out=seen,
                      edges=edges)
        frontier = self.graph.vertex_labels.ids(label)
        target = ancestor.lower()
        hops = 0
        while frontier and hops <= EXPANSION_HOPS + 1:
            next_frontier: list[int] = []
            for vertex_id in frontier:
                if vertex_id in seen:
                    continue
                seen.add(vertex_id)
                vertex = self.graph.vertex(vertex_id)
                if vertex.label.lower() == target:
                    return True, reads
                for edge in self.graph.taxonomy_out_edges(vertex_id):
                    edges.add(edge.id)
                    next_frontier.append(edge.dst)
            frontier = next_frontier
            hops += 1
        return False, reads


def _match_key(term: Term | None, bound_labels: list[str] | None) -> str:
    """The identity ``executor.match`` faults and spans name a slot
    by."""
    if bound_labels is not None:
        return "|".join(sorted(label.lower() for label in bound_labels))
    if term is not None:
        return term.head.lower()
    return ""


def _resolved(entry: ScopeEntry, graph: Graph,
              stamp: int | None) -> list[int]:
    """The entry's ids at ``stamp``; its last resolved ids when a
    write raced the lookup (there is then no epoch to resolve at)."""
    ids = entry.resolve(graph, stamp)
    return entry.current[1] if ids is None else ids


def _is_category(label: str) -> bool:
    return noun_singular(label) in _CATEGORY_SET


def _category_set() -> frozenset[str]:
    from repro.synth.taxonomy import category_names

    return frozenset(category_names())


_CATEGORY_SET = _category_set()


def _virtual_edge(subject: Vertex, obj: Vertex) -> Edge:
    """A synthetic identity edge for label-equality "be" matches."""
    from repro.graph.model import Edge

    return Edge(-1, subject.id, obj.id, "be", {})
