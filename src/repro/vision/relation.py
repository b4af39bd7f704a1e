"""Relation predictors: the MOTIFNET / VCTree / VTransE stand-ins.

Each predictor scores every relation class for an ordered detection
pair ``(v_i, v_j)`` by combining four ingredients (Eq. 1 of the paper,
behaviourally):

* **bias** — the log training-frequency prior over predicates.  This
  is the ubiquitous-relation bias ("on", "near") that TDE removes;
* **geometry** — a hint from the *detected* boxes and depth estimates,
  computed by the same spatial rules that generated ground truth, so
  geometry genuinely supports spatial predicates (and can be wrong
  when detection was wrong — the Fig. 8(c) failure);
* **evidence** — the pooled interaction signals from the pair's
  feature maps (`subject_signal[i] * object_signal[j]`): the
  appearance cues a trained relation head would extract.  Masking the
  feature maps (Eq. 2) zeroes exactly this term;
* **noise** — per-model Gaussian logit noise.

A predictor scores all of an image's candidate pairs at once, as a
pairs x relation-classes matrix.

The three models differ in how well they exploit evidence: MOTIFNET's
global context gives it the strongest, cleanest evidence term, VCTree's
dynamic trees sit in the middle, and VTransE's translation embeddings
trail — reproducing the ordering of Table V without per-row constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.synth.relations import RELATIONS, prior_vector, relation_index
from repro.synth.scene import spatial_relation
from repro.util import stable_hash
from repro.vision.detector import Detection

BIAS_WEIGHT = 1.0
GEOMETRY_WEIGHT = 1.2


@dataclass(frozen=True)
class RelationModelSpec:
    """A relation model's behavioural profile.

    ``evidence_fidelity`` is the per-channel probability that the
    model's context mechanism successfully extracts an appearance cue;
    it differentiates the models even after TDE removes the shared
    bias (global-context Motifs > tree-context VCTree > translation
    embedding VTransE).
    """

    name: str
    evidence_weight: float   # how much appearance evidence reaches logits
    evidence_fidelity: float  # per-channel extraction success probability
    noise_scale: float       # logit noise stddev


MOTIFNET = RelationModelSpec("neural-motifs", evidence_weight=4.2,
                             evidence_fidelity=0.92, noise_scale=0.85)
VCTREE = RelationModelSpec("vctree", evidence_weight=3.8,
                           evidence_fidelity=0.84, noise_scale=0.95)
VTRANSE = RelationModelSpec("vtranse", evidence_weight=3.0,
                            evidence_fidelity=0.72, noise_scale=1.15)

MODELS: dict[str, RelationModelSpec] = {
    spec.name: spec for spec in (MOTIFNET, VCTREE, VTRANSE)
}


class RelationPredictor:
    """Scores relation classes for detection pairs.

    >>> predictor = RelationPredictor(MOTIFNET, seed=0)
    """

    def __init__(self, spec: RelationModelSpec, seed: int = 0) -> None:
        self.spec = spec
        self._seed = seed
        self._log_prior = np.log(prior_vector())

    def logits(
        self,
        pairs: list[tuple[Detection, Detection]],
        predicates: list[str | None],
        image_id: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The Eq. 1 and Eq. 2 logits of an image's candidate pairs.

        One row per ordered pair, one column per relation class.
        ``predicates[k]`` is pair ``k``'s spatial predicate from the
        detected geometry (:func:`spatial_predicates`).  The Eq. 2 row
        is the TDE counterfactual pass: with the feature maps masked
        to zero vectors the evidence term vanishes while bias,
        geometry and noise remain, so both passes share every other
        term.  Each pair keeps its own random stream, so a pair's
        extraction draws and noise do not depend on which other pairs
        the image has.
        """
        classes = len(RELATIONS)
        hint = np.zeros((len(pairs), classes))
        for row, predicate in enumerate(predicates):
            if predicate is not None:
                hint[row, relation_index(predicate)] = 1.0
        uniform = np.empty((len(pairs), classes))
        noise = np.empty((len(pairs), classes))
        for row, (subject, obj) in enumerate(pairs):
            rng = self._pair_rng(subject, obj, image_id)
            rng.random(out=uniform[row])
            noise[row] = rng.normal(0.0, self.spec.noise_scale, classes)
        evidence = np.array([s.features.subject_signal for s, _ in pairs]) \
            * np.array([o.features.object_signal for _, o in pairs])
        # the model's context mechanism extracts each cue with
        # probability evidence_fidelity (drawn per pair+channel from the
        # deterministic stream)
        extraction = uniform < self.spec.evidence_fidelity
        base = BIAS_WEIGHT * self._log_prior + GEOMETRY_WEIGHT * hint
        factual = base + self.spec.evidence_weight * evidence * extraction
        factual += noise
        base += noise
        return factual, base

    def _pair_rng(
        self, subject: Detection, obj: Detection, image_id: int
    ) -> np.random.Generator:
        """Deterministic per-(model, image, pair) random stream: the
        stream of ``np.random.default_rng(key)``, built without its
        argument dispatch (one per detection pair of every image)."""
        key = stable_hash(self.spec.name, self._seed, image_id,
                          subject.index, obj.index)
        return np.random.Generator(np.random.PCG64(key))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise probabilities from logits (consumes ``logits`` in place)."""
    logits -= logits.max(axis=-1, keepdims=True)
    exp = np.exp(logits)
    return exp / exp.sum(axis=-1, keepdims=True)


class _GeometryShim:
    """Adapts a Detection to the SceneObject interface spatial_relation
    expects (box + depth)."""

    def __init__(self, detection: Detection) -> None:
        self.box = detection.box
        self.depth = detection.depth_estimate
        self.category = detection.label
        self.index = detection.index


def spatial_predicates(
    pairs: list[tuple[Detection, Detection]],
) -> list[str | None]:
    """Each pair's spatial predicate from its detected boxes and depths
    (the ground-truth rules, :func:`~repro.synth.scene.spatial_relation`)."""
    return [spatial_relation(_GeometryShim(subject), _GeometryShim(obj))
            for subject, obj in pairs]


#: detection pairs scored per image
MAX_PAIRS = 48


def candidate_pairs(
    detections: list[Detection],
) -> list[tuple[Detection, Detection]]:
    """The :data:`MAX_PAIRS` nearest ordered detection pairs, the ones
    worth scoring, nearest first.

    Ties keep subject-major order (a stable sort of the pairs as
    ``(subject, object)`` loops enumerate them).
    """
    count = len(detections)
    centers = np.array([d.box.center for d in detections]).reshape(count, 2)
    offset = centers[:, None, :] - centers[None, :, :]
    distance = np.hypot(offset[..., 0], offset[..., 1])
    subjects, objects = np.nonzero(~np.eye(count, dtype=bool))
    nearest = np.argsort(distance[subjects, objects], kind="stable")
    nearest = nearest[:MAX_PAIRS]
    return [(detections[a], detections[b])
            for a, b in zip(subjects[nearest].tolist(),
                            objects[nearest].tolist())]
