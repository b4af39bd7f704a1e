"""Ground-truth index over a scene set: the annotation oracle.

MVQA's question–answer pairs were produced by human annotators reading
image captions (§VI-B).  Our annotator stand-in is this index: it sees
the *ground-truth* scene specifications (never the noisy SGG output)
and answers questions with the label-propagation semantics the SVQA
task defines — a condition clause yields the category labels that
satisfy it, and the next clause re-matches those labels across the
whole image base (Example 7's cross-image reasoning).

SVQA itself answers from detector + relation-model output, so its
accuracy against this oracle measures exactly the paper's three error
sources: statement parsing, object detection, and relationship
generation (Fig. 8).
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

from repro.nlp.semlex import hypernym_chain
from repro.synth.scene import SyntheticScene
from repro.synth.taxonomy import category_names


@dataclass(frozen=True)
class GTTriple:
    """One ground-truth relation occurrence."""

    image_id: int
    src_index: int
    src_category: str
    predicate: str
    dst_index: int
    dst_category: str


def categories_for_word(word: str) -> set[str]:
    """Scene categories a question word denotes.

    A category word denotes itself; a hypernym word ("pet", "animal",
    "clothes") denotes every category whose hypernym chain contains it.
    Returns a fresh set: callers may mutate it.
    """
    return set(_word_categories().get(word.lower(), ()))


@functools.cache
def _word_categories() -> dict[str, frozenset[str]]:
    """Inverse hypernym closure: word -> the categories it denotes,
    built once from every category's hypernym chain."""
    closure: dict[str, set[str]] = {}
    for category in category_names():
        closure.setdefault(category, set()).add(category)
        for hypernym in hypernym_chain(category):
            closure.setdefault(hypernym, set()).add(category)
    return {word: frozenset(found) for word, found in closure.items()}


class GroundTruthIndex:
    """Queryable index of ground-truth triples across a scene set."""

    def __init__(self, scenes: list[SyntheticScene]) -> None:
        self.scenes = scenes
        self.triples: list[GTTriple] = []
        self.by_predicate: dict[str, list[GTTriple]] = {}
        self.category_images: dict[str, set[int]] = {}
        # find() and counting results by their arguments: the question
        # generator's searches repeat the same patterns many times
        self._known: dict[tuple, tuple[int, tuple[GTTriple, ...]]] = {}
        for scene in scenes:
            for obj in scene.objects:
                self.category_images.setdefault(
                    obj.category, set()
                ).add(scene.image_id)
            for relation in scene.relations:
                triple = GTTriple(
                    image_id=scene.image_id,
                    src_index=relation.src,
                    src_category=scene.objects[relation.src].category,
                    predicate=relation.predicate,
                    dst_index=relation.dst,
                    dst_category=scene.objects[relation.dst].category,
                )
                self.triples.append(triple)
                self.by_predicate.setdefault(relation.predicate,
                                             []).append(triple)

    # ------------------------------------------------------------------
    # primitive queries
    # ------------------------------------------------------------------
    def find(
        self,
        src_categories: set[str] | None,
        predicate: str,
        dst_categories: set[str] | None,
    ) -> list[GTTriple]:
        """Triples matching the (category-set, predicate, category-set)
        pattern; None means "any".  Each distinct pattern is scanned
        once; every call gets a fresh list."""
        key = ("find", None if src_categories is None
               else frozenset(src_categories), predicate,
               None if dst_categories is None
               else frozenset(dst_categories))
        return self._remember(key, lambda: (0, [
            triple for triple in self.by_predicate.get(predicate, ())
            if (src_categories is None
                or triple.src_category in src_categories)
            and (dst_categories is None
                 or triple.dst_category in dst_categories)]))[1]

    def _remember(
        self, key: tuple,
        compute: Callable[[], tuple[int, list[GTTriple]]],
    ) -> tuple[int, list[GTTriple]]:
        """``compute()`` once per ``key``; a fresh list every call."""
        known = self._known.get(key)
        if known is None:
            count, triples = compute()
            known = self._known[key] = (count, tuple(triples))
        return known[0], list(known[1])

    def subject_labels(self, triples: list[GTTriple]) -> set[str]:
        """Distinct subject categories (a clause's label output)."""
        return {t.src_category for t in triples}

    def object_labels(self, triples: list[GTTriple]) -> set[str]:
        return {t.dst_category for t in triples}

    # ------------------------------------------------------------------
    # clause-chain semantics (what a question's answer means)
    # ------------------------------------------------------------------
    def condition_labels(
        self,
        subject_word: str,
        predicate: str,
        object_word: str,
        constraint: str | None = None,
    ) -> set[str]:
        """Labels satisfying a condition clause, with optional
        "most/least frequently" constraint over supporting images."""
        triples = self.find(
            categories_for_word(subject_word) or None,
            predicate,
            categories_for_word(object_word) or None,
        )
        if not triples:
            return set()
        if constraint is None:
            return self.subject_labels(triples)
        images_per_label: dict[str, set[int]] = {}
        for triple in triples:
            images_per_label.setdefault(triple.src_category,
                                        set()).add(triple.image_id)
        counts = Counter({lab: len(im) for lab, im in
                          images_per_label.items()})
        ranked = counts.most_common()
        target = ranked[0][1] if constraint.startswith("most") \
            else ranked[-1][1]
        return {lab for lab, count in ranked if count == target}

    def reasoning_answer(
        self,
        subject_labels: set[str],
        predicate: str,
        answer_word: str,
        min_margin: float = 1.0,
        min_support: int = 1,
    ) -> tuple[str | None, list[GTTriple]]:
        """Mode object category among (bound subjects, predicate, kind
        of ``answer_word``) triples.

        ``min_margin`` / ``min_support`` let the question generator
        demand a clear-cut winner (the annotator's instinct): the mode
        must beat the runner-up by the margin factor and have at least
        the given support, or no answer is produced.
        """
        answer_categories = categories_for_word(answer_word)
        triples = [
            t for t in self.find(subject_labels, predicate, None)
            if t.dst_category in answer_categories
            and t.dst_category != answer_word.lower()
        ]
        if not triples:
            return None, []
        ranked = Counter(t.dst_category for t in triples).most_common()
        winner, count = ranked[0]
        if count < min_support:
            return None, []
        if len(ranked) > 1 and count < min_margin * ranked[1][1]:
            return None, []
        return winner, [t for t in triples if t.dst_category == winner]

    def cooccurrence_images(
        self, subject_labels: set[str], object_word: str
    ) -> set[int]:
        """Images containing both some bound subject and the object —
        an upper bound on where *any* relation edge could connect them."""
        subject_images: set[int] = set()
        for label in subject_labels:
            subject_images |= self.category_images.get(label, set())
        object_images: set[int] = set()
        for category in categories_for_word(object_word):
            object_images |= self.category_images.get(category, set())
        return subject_images & object_images

    def counting_answer(
        self,
        counted_word: str,
        predicate: str,
        object_labels: set[str],
    ) -> tuple[int, list[GTTriple]]:
        """Distinct counted-subject instances related to bound objects."""
        def count() -> tuple[int, list[GTTriple]]:
            triples = self.find(
                categories_for_word(counted_word) or None,
                predicate,
                object_labels,
            )
            instances = {(t.image_id, t.src_index) for t in triples}
            return len(instances), triples

        return self._remember(
            ("count", counted_word, predicate, frozenset(object_labels)),
            count)

    def counting_kinds_answer(
        self,
        counted_word: str,
        predicate: str,
        object_labels: set[str],
        min_images: int = 4,
        ambiguous_band: tuple[int, int] = (2, 3),
    ) -> tuple[int, list[GTTriple]]:
        """Distinct counted-subject *categories* ("how many kinds of X").

        Only categories supported by at least ``min_images`` distinct
        images count — the annotator ignores one-off appearances, which
        also makes the count stable under detector noise.  When any
        category's support falls inside ``ambiguous_band`` the count is
        reported as -1: such borderline kinds could flip either way
        under noise, so the question generator rejects the combination.
        """
        return self._remember(
            ("kinds", counted_word, predicate, frozenset(object_labels),
             min_images, ambiguous_band),
            lambda: self._count_kinds(counted_word, predicate,
                                      object_labels, min_images,
                                      ambiguous_band))

    def _count_kinds(
        self, counted_word: str, predicate: str, object_labels: set[str],
        min_images: int, ambiguous_band: tuple[int, int],
    ) -> tuple[int, list[GTTriple]]:
        triples = self.find(
            categories_for_word(counted_word) or None,
            predicate,
            object_labels,
        )
        images_per_category: dict[str, set[int]] = {}
        for triple in triples:
            images_per_category.setdefault(triple.src_category,
                                           set()).add(triple.image_id)
        low, high = ambiguous_band
        if any(low <= len(images) <= high
               for images in images_per_category.values()):
            return -1, []
        kinds = {category for category, images in
                 images_per_category.items() if len(images) >= min_images}
        return len(kinds), [t for t in triples if t.src_category in kinds]

    def judgment_answer(
        self,
        subject_labels: set[str],
        predicate: str,
        object_word: str,
    ) -> tuple[bool, list[GTTriple]]:
        """Whether any bound subject relates to the object anywhere."""
        triples = self.find(
            subject_labels,
            predicate,
            categories_for_word(object_word) or None,
        )
        return bool(triples), triples

    # ------------------------------------------------------------------
    # dataset-construction helpers
    # ------------------------------------------------------------------
    def images_mentioning(self, words: set[str]) -> set[int]:
        """Images containing any instance of any denoted category —
        the image set an annotator must inspect (Table II's
        "Average Images" column)."""
        images: set[int] = set()
        for word in words:
            for category in categories_for_word(word):
                images |= self.category_images.get(category, set())
        return images

    def requires_multiple_images(
        self, condition: list[GTTriple], main: list[GTTriple]
    ) -> bool:
        """§VI-B filter: a question is cross-image when no single image
        contains evidence for both the condition and the main clause."""
        condition_images = {t.image_id for t in condition}
        main_images = {t.image_id for t in main}
        if not condition_images or not main_images:
            return True
        return not (condition_images & main_images)
