"""Total Direct Effect (TDE) debiasing for relation prediction.

Implements Eq. 1-3 of the paper (§III-A).  The predictor scores each
pair on the real inputs (Eq. 1) and with the feature maps masked to
zero vectors (Eq. 2); one pass over an image's candidate pairs yields
both logit matrices (:meth:`~repro.vision.relation.RelationPredictor.logits`).
The masked pass measures what the model would predict from *bias
alone* (label priors + geometry); subtracting it isolates the direct
effect of the visual evidence:

    r_ij = argmax(p_rij - p'_rij)                                (Eq. 3)

which recovers tail predicates ("in front of", "catching") that the
ubiquitous head predicates ("on", "near") would otherwise swamp.
"""

from __future__ import annotations

import numpy as np

from repro.vision.relation import softmax


def tde_scores(factual: np.ndarray, counterfactual: np.ndarray) -> np.ndarray:
    """The debiased scores ``p - p'``, one row per pair (Eq. 3).

    Consumes both logit matrices in place.
    """
    return softmax(factual) - softmax(counterfactual)
