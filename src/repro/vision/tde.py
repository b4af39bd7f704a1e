"""Total Direct Effect (TDE) debiasing for relation prediction.

Implements Eq. 1-3 of the paper (§III-A).  The predictor scores each
pair on the real inputs (Eq. 1) and with the feature maps masked to
zero vectors (Eq. 2); one pass over the pair's shared terms yields
both logit vectors
(:meth:`~repro.vision.relation.RelationPredictor.factual_and_masked_logits`).
The masked pass measures what the model would predict from *bias
alone* (label priors + geometry); subtracting it isolates the direct
effect of the visual evidence:

    r_ij = argmax(p_rij - p'_rij)                                (Eq. 3)

which recovers tail predicates ("in front of", "catching") that the
ubiquitous head predicates ("on", "near") would otherwise swamp.
"""

from __future__ import annotations

import numpy as np

from repro.vision.detector import Detection
from repro.vision.relation import RelationPredictor, softmax


def tde_scores(
    predictor: RelationPredictor,
    subject: Detection,
    obj: Detection,
    image_id: int,
) -> np.ndarray:
    """The debiased score vector ``p - p'`` for an ordered pair."""
    factual, counterfactual = predictor.factual_and_masked_logits(
        subject, obj, image_id)
    return softmax(factual) - softmax(counterfactual)


def predict_relation(
    predictor: RelationPredictor,
    subject: Detection,
    obj: Detection,
    image_id: int,
    use_tde: bool = True,
) -> tuple[int, float, np.ndarray]:
    """Predict the relation class for a pair.

    Returns ``(class_index, score, scores_vector)``; with
    ``use_tde=False`` this is the biased Eq. 1 prediction.
    """
    if use_tde:
        scores = tde_scores(predictor, subject, obj, image_id)
    else:
        scores = predictor.pair_probabilities(subject, obj, image_id)
    best = int(np.argmax(scores))
    return best, float(scores[best]), scores
