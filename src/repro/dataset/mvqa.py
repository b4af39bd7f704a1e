"""The MVQA dataset builder (§VI).

Reproduces the paper's construction pipeline:

1. generate the candidate image pool (at most 13,808 scenes — the
   COCO pool) up to its 4,233rd survivor of step 2: scenes are drawn
   in order from one seeded RNG, so no later scene can change a kept
   image, and the kept images are those of the whole pool;
2. filter to scenes containing at least one object from the four MVQA
   groups (humans / animals / vehicles / buildings) and more than one
   object overall (single-object scenes cannot carry relations);
3. keep the first 4,233 surviving scenes as the MVQA image base;
4. generate 100 complex question–answer pairs — 40 judgment /
   16 counting / 44 reasoning — with the clause-count mix that yields
   Table II's 94/35/90 clauses, each answer verified against the
   ground-truth index and each question checked to require multiple
   images.  Step 4 runs on the first read of
   :attr:`MVQADataset.questions`; a caller that needs only the images
   and the KG (``repro serve``) never runs it.

The whole build is deterministic in the seed.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np

from repro.errors import DatasetError
from repro.graph import Graph
from repro.core.spoc import QuestionType
from repro.dataset.groundtruth import GroundTruthIndex
from repro.dataset.kg import build_commonsense_kg
from repro.dataset.questions import MVQAQuestion, QuestionGenerator
from repro.synth.generator import SceneGenerator
from repro.synth.scene import SyntheticScene
from repro.synth.taxonomy import MVQA_GROUPS, category_by_name

POOL_SIZE = 13_808
IMAGE_COUNT = 4_233

#: (question count, 2-clause count, 3-clause count) per type — chosen so
#: clause totals land on Table II: 94 judgment, 35 counting, 90 reasoning
COMPOSITION: dict[QuestionType, tuple[int, int, int]] = {
    QuestionType.JUDGMENT: (40, 26, 14),    # 26*2 + 14*3 = 94
    QuestionType.COUNTING: (16, 13, 3),     # 13*2 + 3*3 = 35
    QuestionType.REASONING: (44, 42, 2),    # 42*2 + 2*3 = 90
}

#: how many of the 100 questions carry a constraint (§VI-C: 40)
CONSTRAINT_TARGET = 40


class MVQADataset:
    """The built dataset: images + questions + the external KG.

    ``questions`` is the question list, or a zero-argument callable
    that builds it on the first read of :attr:`questions`, which then
    keeps the list (and raises the builder's :class:`DatasetError`, if
    any).  The first read is expected on one thread.
    """

    def __init__(
        self,
        scenes: list[SyntheticScene],
        questions: list[MVQAQuestion]
        | Callable[[], list[MVQAQuestion]],
        kg: Graph,
        pool_size: int = POOL_SIZE,
    ) -> None:
        self.scenes = scenes
        self.kg = kg
        self.pool_size = pool_size
        self._questions = questions

    @property
    def questions(self) -> list[MVQAQuestion]:
        if callable(self._questions):
            self._questions = self._questions()
        return self._questions

    @property
    def image_count(self) -> int:
        return len(self.scenes)

    def questions_of_type(self, qtype: QuestionType) -> list[MVQAQuestion]:
        return [q for q in self.questions if q.question_type is qtype]


def mvqa_image_filter(scene: SyntheticScene) -> bool:
    """§VI-B image selection: an MVQA-group object + multiple objects."""
    if len(scene.objects) < 2:
        return False
    return any(
        category_by_name(obj.category).group in MVQA_GROUPS
        for obj in scene.objects
    )


def build_mvqa(
    seed: int = 2024,
    pool_size: int = POOL_SIZE,
    image_count: int = IMAGE_COUNT,
    composition: dict[QuestionType, tuple[int, int, int]] | None = None,
) -> MVQADataset:
    """Build MVQA deterministically from a seed.

    ``pool_size`` / ``image_count`` can be lowered for fast tests; the
    defaults reproduce the paper's 13,808 -> 4,233 pipeline.  The pool
    is generated only up to its ``image_count``-th survivor, and the
    questions on the first read of ``questions``.
    """
    composition = composition or COMPOSITION
    generator = SceneGenerator(seed=seed)
    first = min(image_count, pool_size)
    selected = [scene for scene in generator.generate_pool(first)
                if mvqa_image_filter(scene)]
    # top up one scene at a time only while the filter has rejected some
    for image_id in range(first, pool_size):
        if len(selected) == image_count:
            break
        scene = generator.generate(image_id)
        if mvqa_image_filter(scene):
            selected.append(scene)
    if len(selected) < image_count:
        raise DatasetError(
            f"only {len(selected)} of {pool_size} pool scenes pass the "
            f"MVQA filter; need {image_count}"
        )
    # re-number image ids densely so downstream indexes are compact
    images = [
        SyntheticScene(new_id, scene.objects, scene.relations,
                       scene.caption)
        for new_id, scene in enumerate(selected)
    ]
    return MVQADataset(
        scenes=images,
        questions=partial(_build_questions, images, seed, composition),
        kg=build_commonsense_kg(), pool_size=pool_size)


def _build_questions(
    images: list[SyntheticScene],
    seed: int,
    composition: dict[QuestionType, tuple[int, int, int]],
) -> list[MVQAQuestion]:
    """Step 4: the question set over the kept images, on its own RNG."""
    rng = np.random.default_rng(seed + 1)
    generator = QuestionGenerator(GroundTruthIndex(images), rng)
    questions = _generate_questions(generator, composition)
    _inject_exotic_words(questions, rng)
    return questions


def _generate_questions(
    generator: QuestionGenerator,
    composition: dict[QuestionType, tuple[int, int, int]],
) -> list[MVQAQuestion]:
    questions: list[MVQAQuestion] = []
    constraints_left = CONSTRAINT_TARGET

    def want_constraint(remaining_questions: int) -> bool:
        nonlocal constraints_left
        if constraints_left <= 0:
            return False
        if constraints_left >= remaining_questions:
            use = True
        else:
            use = bool(generator.rng.random() <
                       constraints_left / remaining_questions)
        if use:
            constraints_left -= 1
        return use

    total_target = sum(count for count, _, _ in composition.values())

    plan: list[tuple[QuestionType, int]] = []
    for qtype, (_, two_clause, three_clause) in composition.items():
        plan.extend([(qtype, 2)] * two_clause)
        plan.extend([(qtype, 3)] * three_clause)

    yes_toggle = True
    for position, (qtype, clauses) in enumerate(plan):
        remaining = total_target - position
        constraint = want_constraint(remaining)
        question = _generate_one(generator, qtype, clauses, constraint,
                                 yes_toggle)
        if question is None and constraint:
            constraints_left += 1
            question = _generate_one(generator, qtype, clauses, False,
                                     yes_toggle)
        if question is None and clauses == 3:
            question = _generate_one(generator, qtype, 2, False, yes_toggle)
        if question is None:
            raise DatasetError(
                f"could not generate a {qtype.value} question with "
                f"{clauses} clauses — pool too small?"
            )
        if qtype is QuestionType.JUDGMENT:
            yes_toggle = not yes_toggle
        questions.append(question)
    return questions


#: rare-word substitutions MVQA annotators used for semantic complexity
#: ("canis" for dog is the paper's Fig. 8(a) example)
_EXOTIC_WORDS = (("dog", "canis"), ("dogs", "canis"))
_EXOTIC_COUNT = 3


def _inject_exotic_words(
    questions: list[MVQAQuestion], rng: np.random.Generator
) -> None:
    """Rewrite a few questions with rare synonyms (§VI-B's "semantic
    complexity"); these exercise the statement-parsing error path of
    Fig. 8(a)."""
    injected = 0
    order = list(range(len(questions)))
    rng.shuffle(order)
    for index in order:
        if injected >= _EXOTIC_COUNT:
            break
        question = questions[index]
        for plain, exotic in _EXOTIC_WORDS:
            target = f" {plain} "
            if target in question.text:
                question.text = question.text.replace(
                    target, f" {exotic} ", 1
                )
                question.exotic = True
                injected += 1
                break


def _generate_one(
    generator: QuestionGenerator,
    qtype: QuestionType,
    clauses: int,
    constraint: bool,
    want_yes: bool,
) -> MVQAQuestion | None:
    if qtype is QuestionType.REASONING:
        return generator.reasoning(clauses=clauses, constraint=constraint)
    if qtype is QuestionType.COUNTING:
        question = generator.counting(clauses=clauses,
                                      constraint=constraint)
        if question is None:
            question = generator.counting(clauses=clauses,
                                          constraint=constraint,
                                          relaxed=True)
        return question
    # judgment: alternate between "appear" and identity forms
    if clauses == 2 and generator.rng.random() < 0.35:
        question = generator.judgment_identity(constraint=constraint,
                                               want_yes=want_yes)
        if question is not None:
            return question
    return generator.judgment(clauses=clauses, constraint=constraint,
                              want_yes=want_yes)
