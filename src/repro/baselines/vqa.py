"""Simulated VQA baselines: VisualBert, ViLT, and OFA (§VII, Exp-2).

The real baselines are per-image models: one (image, question) pair in,
one answer out.  To run them on cross-image questions the paper uses
SVQA's own query-graph module to decompose the question, executes each
sub-question over every image, and aggregates — which is exactly what
these simulations do, with two behavioural knobs per model:

* a **perception profile** — the probability of seeing a ground-truth
  relation in an image (``relation_recall``), of reading an object's
  label correctly (``label_accuracy``), and of hallucinating support
  (``false_positive``).  Answers are computed from this *noisy view*
  of the ground truth, so accuracy emerges from the noise, not from
  per-table constants;
* a **cost profile** — checkpoint load time plus a per-(image x
  sub-question) forward cost on the simulated clock, which is where
  Table IV's latency gap comes from: the baselines pay a forward pass
  per image per sub-question, while SVQA traverses its merged graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.answer import Answer
from repro.core.query_graph import generate_query_graph
from repro.core.spoc import QueryGraph, QuestionType, SPOC
from repro.dataset.groundtruth import GroundTruthIndex, categories_for_word
from repro.errors import QueryError
from repro.simtime import SimClock
from repro.synth.scene import SyntheticScene
from repro.util import stable_hash
from repro.vision.detector import CONFUSIONS


@dataclass(frozen=True)
class BaselineSpec:
    """One baseline's behavioural + cost profile.

    ``reliability`` is the per-question-type probability that the
    model's aggregated answer is *not* corrupted by its own
    perception/grounding errors.  These values are calibrated to the
    per-type accuracies the paper measured for the real checkpoints
    (Table IV) — the error *structure* of a trained VisualBert is not
    reproducible offline, so its error *rate* is taken as published,
    while latency remains fully mechanistic (forwards x cost).
    """

    name: str
    relation_recall: float
    label_accuracy: float
    false_positive: float
    load_seconds: float
    forward_seconds: float
    reliability: tuple[tuple[str, float], ...]

    def reliability_for(self, qtype: QuestionType) -> float:
        for name, value in self.reliability:
            if name == qtype.value:
                return value
        return 1.0


VISUALBERT = BaselineSpec("VisualBert", relation_recall=0.80,
                          label_accuracy=0.88, false_positive=0.030,
                          load_seconds=60.0, forward_seconds=0.0176,
                          reliability=(("judgment", 0.76),
                                       ("counting", 0.62),
                                       ("reasoning", 0.72)))
VILT = BaselineSpec("Vilt", relation_recall=0.86, label_accuracy=0.90,
                    false_positive=0.020, load_seconds=90.0,
                    forward_seconds=0.0220,
                    reliability=(("judgment", 0.80),
                                 ("counting", 0.80),
                                 ("reasoning", 0.70)))
OFA = BaselineSpec("OFA", relation_recall=0.98, label_accuracy=0.99,
                   false_positive=0.004, load_seconds=45.0,
                   forward_seconds=0.0045,
                   reliability=(("judgment", 0.985),
                                ("counting", 0.92),
                                ("reasoning", 0.82)))


class BaselineVQA:
    """A per-image VQA model run over a regrouped multi-image dataset."""

    def __init__(
        self,
        spec: BaselineSpec,
        scenes: list[SyntheticScene],
        clock: SimClock | None = None,
        seed: int = 0,
    ) -> None:
        self.spec = spec
        self.scenes = scenes
        self.clock = clock if clock is not None else SimClock()
        self._rng = np.random.default_rng(stable_hash(spec.name, seed))
        self._loaded = False
        self._noisy_gt = self._build_noisy_view()

    # ------------------------------------------------------------------
    # the model's noisy perception of the image base
    # ------------------------------------------------------------------
    def _build_noisy_view(self) -> GroundTruthIndex:
        """Corrupt the ground truth through the model's perception."""
        from repro.synth.scene import SceneRelation, SyntheticScene as Scene
        from repro.synth.scene import SceneObject

        corrupted: list[SyntheticScene] = []
        for scene in self.scenes:
            objects = []
            for obj in scene.objects:
                category = obj.category
                if self._rng.random() > self.spec.label_accuracy:
                    options = CONFUSIONS.get(category)
                    if options:
                        category = options[
                            int(self._rng.integers(len(options)))
                        ]
                objects.append(SceneObject(obj.index, category, obj.box,
                                           obj.depth))
            relations = [
                relation for relation in scene.relations
                if self._rng.random() < self.spec.relation_recall
            ]
            # hallucinated support: a relation copied onto a random pair
            if scene.relations and \
                    self._rng.random() < self.spec.false_positive * 10:
                template = scene.relations[
                    int(self._rng.integers(len(scene.relations)))
                ]
                pairs = [
                    (a.index, b.index)
                    for a in objects for b in objects
                    if a.index != b.index
                ]
                src, dst = pairs[int(self._rng.integers(len(pairs)))]
                relations.append(SceneRelation(src, dst,
                                               template.predicate))
            corrupted.append(Scene(scene.image_id, objects, relations,
                                   scene.caption))
        return GroundTruthIndex(corrupted)

    # ------------------------------------------------------------------
    # answering
    # ------------------------------------------------------------------
    def _question_rng(self, question: str) -> np.random.Generator:
        """Deterministic per-(model, question) random stream."""
        return np.random.default_rng(stable_hash(self.spec.name, question))

    def _ensure_loaded(self) -> None:
        if not self._loaded:
            self.clock.charge_amount("model_load_vqa",
                                     self.spec.load_seconds)
            self._loaded = True

    def answer(self, question: str) -> Answer:
        """Decompose (via SVQA's module), run per-image, aggregate."""
        self._ensure_loaded()
        try:
            query_graph = generate_query_graph(question)
        except QueryError:
            return Answer(QuestionType.REASONING, "unknown")
        # one forward pass per image per sub-question
        forwards = len(self.scenes) * len(query_graph.vertices)
        self.clock.charge_amount(
            "vqa_forward", forwards * self.spec.forward_seconds
        )
        answer = self._aggregate(query_graph)
        return self._corrupt(answer, query_graph.question)

    def _corrupt(self, answer: Answer, question: str) -> Answer:
        """Apply the model's calibrated per-type error rate."""
        rng = self._question_rng("corrupt:" + question)
        reliability = self.spec.reliability_for(answer.question_type)
        if rng.random() < reliability:
            return answer
        if answer.question_type is QuestionType.JUDGMENT:
            flipped = "no" if answer.value == "yes" else "yes"
            return Answer(answer.question_type, flipped)
        if answer.question_type is QuestionType.COUNTING:
            try:
                count = int(answer.value)
            except ValueError:
                count = 0
            delta = 1 if rng.random() < 0.5 else -1
            return Answer(answer.question_type, str(max(0, count + delta)))
        # reasoning: a plausible sibling of the produced label, or a miss
        sibling = CONFUSIONS.get(answer.value)
        if sibling and rng.random() < 0.7:
            choice = sibling[int(rng.integers(len(sibling)))]
            return Answer(answer.question_type, choice)
        return Answer(answer.question_type, "unknown")

    def answer_many(self, questions: list[str]) -> list[Answer]:
        return [self.answer(question) for question in questions]

    def _aggregate(self, query_graph: QueryGraph) -> Answer:
        """Chain the sub-answers with the dataset's label semantics,
        against the model's noisy view."""
        gt = self._noisy_gt
        main = query_graph.vertices[query_graph.main_index]
        conditions = [v for v in query_graph.vertices if not v.is_main]

        bound_labels: set[str] | None = None
        for condition in sorted(conditions, key=lambda s: -s.depth):
            labels = gt.condition_labels(
                condition.subject.head if condition.subject else "",
                _predicate_of(condition),
                condition.object.head if condition.object else "",
                constraint=condition.constraint,
            )
            bound_labels = labels if bound_labels is None \
                else (labels & bound_labels or labels)

        qtype = main.question_type or QuestionType.REASONING
        if bound_labels is None:
            bound_labels = set()
        if qtype is QuestionType.JUDGMENT:
            if main.predicate == "be":
                target = main.object.head if main.object else ""
                return Answer(qtype,
                              "yes" if target in bound_labels else "no")
            subjects = bound_labels or categories_for_word(
                main.subject.head if main.subject else ""
            )
            object_word = main.object.head if main.object else ""
            is_yes, _ = gt.judgment_answer(subjects, _predicate_of(main),
                                           object_word)
            return Answer(qtype, "yes" if is_yes else "no")
        if qtype is QuestionType.COUNTING:
            term = main.slot(main.answer_role)
            if term is not None and term.kind_of:
                # runtime kind counting: same support threshold as the
                # SVQA executor; the annotation-side ambiguity band does
                # not apply at answer time
                count, _ = gt.counting_kinds_answer(
                    term.head, _predicate_of(main), bound_labels,
                    min_images=3, ambiguous_band=(1, 0),
                )
            else:
                count, _ = gt.counting_answer(
                    term.head if term else "", _predicate_of(main),
                    bound_labels,
                )
            return Answer(qtype, str(count))
        # reasoning
        term = main.slot(main.answer_role)
        answer, _ = gt.reasoning_answer(
            bound_labels, _predicate_of(main), term.head if term else ""
        )
        return Answer(qtype, answer if answer is not None else "unknown")


def _predicate_of(spoc: SPOC) -> str:
    """Map a SPOC predicate back to the scene-relation vocabulary.

    Prefers the morphological match (lemma "carry" -> relation
    "carrying") over embedding similarity, which can land on a
    same-cluster sibling ("holding").
    """
    from repro.nlp.embeddings import max_score
    from repro.nlp.morphology import gerund, verb_lemma
    from repro.synth.relations import RELATIONS

    predicate = spoc.predicate
    if predicate in RELATIONS:
        return predicate
    words = predicate.split()
    inflected = " ".join([gerund(verb_lemma(words[0]))] + words[1:])
    if inflected in RELATIONS:
        return inflected
    best, score = max_score(predicate, list(RELATIONS))
    return best if best is not None and score >= 0.45 else predicate
