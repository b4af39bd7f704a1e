"""Scene graphs and the SGG pipeline orchestration (§III-A).

``SGGPipeline`` turns a synthetic scene into a
:class:`SceneGraphResult`: render -> detect -> score candidate pairs ->
keep the strongest relations.  The result carries both the kept edges
(what the aggregator merges into ``G_mg``) and the full ranked triple
list (what the mR@K evaluation consumes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import FaultToleranceError
from repro.resilience.manager import ResilienceManager
from repro.simtime import SimClock
from repro.synth.relations import RELATIONS
from repro.synth.scene import SyntheticScene
from repro.vision.detector import Detection, SimulatedDetector
from repro.vision.relation import (
    RelationPredictor,
    candidate_pairs,
    softmax,
    spatial_predicates,
)
from repro.vision.tde import tde_scores


@dataclass(frozen=True)
class PredictedRelation:
    """One predicted scene-graph edge ``r_ij``."""

    src: int        # detection index
    dst: int        # detection index
    predicate: str
    score: float


@dataclass
class SceneGraphResult:
    """The scene graph ``G_sg(I)`` for one image."""

    image_id: int
    detections: list[Detection]
    relations: list[PredictedRelation]
    ranked_triples: list[PredictedRelation] = field(default_factory=list)
    #: relation prediction failed permanently; detections survive but
    #: the image contributes no relation edges to the merged graph
    degraded: bool = False

    @property
    def categories(self) -> list[str]:
        return [d.label for d in self.detections]


@dataclass
class SGGConfig:
    """Scene-graph generation: ``use_tde`` switches Table V's TDE
    ablation; the pair and keep limits are the module constants
    below."""

    use_tde: bool = True


#: predicate candidates emitted per pair for ranking
PREDICATES_PER_PAIR = 3

#: kept edges per image are at most its detections times this ...
KEEP_PER_DETECTION = 3.0

#: ... and at least this many
MIN_KEEP = 4

#: a per-pair argmax below this is noise
KEEP_MIN_SCORE = 0.05

#: score assigned to geometry-fallback edges: above KEEP_MIN_SCORE but
#: below any confident TDE prediction
GEOMETRY_FALLBACK_SCORE = 0.08


class SGGPipeline:
    """Scene-graph generation: detector + relation predictor (+ TDE)."""

    def __init__(
        self,
        detector: SimulatedDetector,
        predictor: RelationPredictor,
        config: SGGConfig | None = None,
        clock: SimClock | None = None,
        resilience: ResilienceManager | None = None,
    ) -> None:
        self.detector = detector
        self.predictor = predictor
        self.config = config or SGGConfig()
        self.clock = clock if clock is not None else SimClock()
        self.resilience = resilience or ResilienceManager()
        #: image ids dropped by :meth:`run_many` after the detector
        #: failed permanently (the merged graph is then partial)
        self.skipped_images: list[int] = []

    def run(self, scene: SyntheticScene) -> SceneGraphResult:
        """Generate the scene graph for one scene.

        The detector runs guarded (a permanently failing image raises
        :class:`~repro.errors.FaultToleranceError`, which
        :meth:`run_many` turns into a skip) and relation prediction
        degrades to a relation-less scene graph when its retry budget
        is exhausted.
        """
        self.clock.charge("detector_forward")
        self.clock.charge("relation_forward")
        raster = scene.render()
        detections = self.resilience.call(
            "detector.detect", scene.image_id,
            lambda: self.detector.detect(raster, scene.image_id),
            clock=self.clock,
        )
        fallback_used: list[bool] = []

        def _no_relations() -> tuple[list[PredictedRelation],
                                     list[PredictedRelation]]:
            fallback_used.append(True)
            return [], []

        triples, kept = self.resilience.call(
            "relation.predict", scene.image_id,
            lambda: self._predict_relations(scene, detections),
            clock=self.clock, fallback=_no_relations,
        )
        return SceneGraphResult(
            image_id=scene.image_id,
            detections=detections,
            relations=kept,
            ranked_triples=triples,
            degraded=bool(fallback_used),
        )

    def _predict_relations(
        self, scene: SyntheticScene, detections: list[Detection]
    ) -> tuple[list[PredictedRelation], list[PredictedRelation]]:
        """Score candidate pairs; returns ``(ranked_triples, kept)``."""
        pairs = candidate_pairs(detections)
        if not pairs:
            return [], []
        predicates = spatial_predicates(pairs)
        factual, counterfactual = self.predictor.logits(
            pairs, predicates, scene.image_id)
        if self.config.use_tde:
            scores = tde_scores(factual, counterfactual)
        else:
            scores = softmax(factual)
        # standard SGG ranking emits several predicate candidates per
        # pair; the top one is the pair's argmax (Eq. 3)
        order = np.argsort(scores, axis=1)[:, ::-1]
        order = order[:, :PREDICATES_PER_PAIR]
        top = np.take_along_axis(scores, order, axis=1)
        triples: list[PredictedRelation] = []
        best_per_pair: list[PredictedRelation] = []
        for (subject, obj), predicate, classes, values in zip(
                pairs, predicates, order.tolist(), top.tolist()):
            candidates = [
                PredictedRelation(subject.index, obj.index,
                                  RELATIONS[class_index], value)
                for class_index, value in zip(classes, values)
            ]
            if not candidates:
                continue
            triples.extend(candidates)
            pair_best = candidates[0]
            if self.config.use_tde and predicate is not None and \
                    pair_best.score < KEEP_MIN_SCORE:
                # TDE found no direct visual effect for this pair:
                # ubiquitous predicates have none.  The unmasked
                # geometry (boxes + depth estimates are never masked)
                # still supports a spatial predicate, so fall back to it
                # — this is why the merged graph keeps its near/on edges
                pair_best = PredictedRelation(subject.index, obj.index,
                                              predicate,
                                              GEOMETRY_FALLBACK_SCORE)
                triples.append(pair_best)
            best_per_pair.append(pair_best)
        triples.sort(key=lambda t: -t.score)
        best_per_pair.sort(key=lambda t: -t.score)
        # Eq. 3 keeps the argmax relation of every pair; pairs whose
        # best score is indistinguishable from noise are dropped, and a
        # density cap keeps merged-graph degree realistic
        keep = max(MIN_KEEP, int(len(detections) * KEEP_PER_DETECTION))
        kept = [r for r in best_per_pair if r.score >= KEEP_MIN_SCORE][:keep]
        return triples, kept

    def run_many(self, scenes: list[SyntheticScene]) -> list[SceneGraphResult]:
        """Generate scene graphs for a batch of scenes.

        An image whose detector fails permanently is skipped (recorded in :attr:`skipped_images`)
        instead of sinking the whole offline build — the merged graph
        comes out partial, and dependent answers degrade.
        """
        results: list[SceneGraphResult] = []
        for scene in scenes:
            try:
                results.append(self.run(scene))
            except FaultToleranceError:
                self.skipped_images.append(scene.image_id)
        return results
