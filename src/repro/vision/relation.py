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

    def pair_logits(
        self,
        subject: Detection,
        obj: Detection,
        image_id: int,
        masked: bool = False,
    ) -> np.ndarray:
        """Logits over RELATIONS for the ordered pair (Eq. 1 / Eq. 2).

        ``masked=True`` is the TDE counterfactual pass: the feature
        maps are replaced by zero vectors, so the evidence term
        vanishes while bias and geometry remain.
        """
        factual, counterfactual = self.factual_and_masked_logits(
            subject, obj, image_id)
        return counterfactual if masked else factual

    def factual_and_masked_logits(
        self, subject: Detection, obj: Detection, image_id: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The Eq. 1 and Eq. 2 logits of one pair, from one pass.

        Both passes share the pair's random stream, so the extraction
        draws, the noise, and the bias + geometry term are computed
        once; the masked logits are the same sum without the evidence
        term (zero feature maps contribute exactly zero).
        """
        rng = self._pair_rng(subject, obj, image_id)
        base = BIAS_WEIGHT * self._log_prior
        base += GEOMETRY_WEIGHT * self._geometry_hint(subject, obj)
        evidence = subject.features.subject_signal * \
            obj.features.object_signal
        # the model's context mechanism extracts each cue with
        # probability evidence_fidelity (drawn per pair+channel from the
        # deterministic stream)
        extraction = rng.random(len(RELATIONS)) < self.spec.evidence_fidelity
        noise = rng.normal(0.0, self.spec.noise_scale, len(RELATIONS))
        factual = base + self.spec.evidence_weight * evidence * extraction
        factual += noise
        base += noise
        return factual, base

    def pair_probabilities(
        self,
        subject: Detection,
        obj: Detection,
        image_id: int,
        masked: bool = False,
    ) -> np.ndarray:
        """Softmax of :meth:`pair_logits` — the ``p_rij`` of Eq. 1."""
        return softmax(self.pair_logits(subject, obj, image_id, masked))

    def _geometry_hint(self, subject: Detection, obj: Detection) -> np.ndarray:
        """One-hot-ish support from detected geometry."""
        hint = np.zeros(len(RELATIONS))
        shim_a = _GeometryShim(subject)
        shim_b = _GeometryShim(obj)
        predicate = spatial_relation(shim_a, shim_b)
        if predicate is not None:
            hint[relation_index(predicate)] = 1.0
        return hint

    def _pair_rng(
        self, subject: Detection, obj: Detection, image_id: int
    ) -> np.random.Generator:
        """Deterministic per-(model, image, pair) random stream."""
        key = stable_hash(self.spec.name, self._seed, image_id,
                          subject.index, obj.index)
        return np.random.default_rng(key)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probabilities from logits (consumes ``logits`` in place)."""
    logits -= logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()


class _GeometryShim:
    """Adapts a Detection to the SceneObject interface spatial_relation
    expects (box + depth)."""

    def __init__(self, detection: Detection) -> None:
        self.box = detection.box
        self.depth = detection.depth_estimate
        self.category = detection.label
        self.index = detection.index


def candidate_pairs(
    detections: list[Detection], max_pairs: int = 48
) -> list[tuple[Detection, Detection]]:
    """Ordered detection pairs worth scoring, nearest first."""
    from repro.synth.scene import center_distance

    scored = []
    for a in detections:
        for b in detections:
            if a.index == b.index:
                continue
            scored.append((center_distance(a.box, b.box), a, b))
    scored.sort(key=lambda item: item[0])
    return [(a, b) for _, a, b in scored[:max_pairs]]
