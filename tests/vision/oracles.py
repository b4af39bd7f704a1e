"""Reference implementations the vectorised vision build is tested against.

The detector labels the whole raster at once from row runs, and the
relation predictor scores all of an image's candidate pairs as one
matrix.  The differential tests compare both with the simplest code
that must give byte-identical results:

* :func:`detect` — ``scipy.ndimage.label`` on each category's mask,
  one full-raster pass per region, features pooled through the
  region's boolean mask (:func:`extract_features`);
* :func:`factual_and_masked_logits` and the functions built on it —
  one pair at a time, with its own geometry hint, random stream,
  softmax and ``argsort``;
* :func:`predict_relations` — the SGG pipeline's pair loop over those
  per-pair scores, recomputing the spatial predicate for the geometry
  fallback.

scipy is imported only by :func:`connected_regions`, so the per-pair
relation oracles need nothing beyond numpy.
"""

import numpy as np

from repro.synth.relations import RELATIONS, relation_index
from repro.synth.scene import Box, CANVAS, spatial_relation
from repro.vision import detector as detector_module
from repro.vision import relation as relation_module
from repro.vision import scene_graph as sgg_module
from repro.vision.detector import Detection
from repro.vision.features import (
    APPEARANCE_DIM,
    FEATURE_DIM,
    GEOMETRY_DIM,
    FeatureMap,
)
from repro.vision.relation import BIAS_WEIGHT, GEOMETRY_WEIGHT, _GeometryShim
from repro.vision.scene_graph import (
    GEOMETRY_FALLBACK_SCORE,
    PredictedRelation,
    SceneGraphResult,
)

# -- detection ---------------------------------------------------------------


def connected_regions(labels):
    """Yield ``(label_value, mask)`` for 4-connected same-label regions,
    label value ascending, then in ``ndimage.label`` order."""
    from scipy import ndimage

    for value in np.unique(labels):
        if value == 0:
            continue
        components, count = ndimage.label(labels == value)
        for component in range(1, count + 1):
            yield int(value), components == component


def region_box(mask):
    ys, xs = np.nonzero(mask)
    y1, y2 = int(ys.min()), int(ys.max()) + 1
    x1, x2 = int(xs.min()), int(xs.max()) + 1
    return Box(x1, y1, x2 - x1, y2 - y1)


def extract_features(raster, box, region_mask):
    """Feature map for a region of the raster.

    ``region_mask`` is a boolean (H, W) array of the region's visible
    pixels (the connected component the detector found).
    """
    vector = np.zeros(FEATURE_DIM, dtype=np.float32)

    # geometry: normalized x, y, w, h, area fraction, visibility
    visible = int(region_mask.sum())
    vector[0] = box.x / CANVAS
    vector[1] = box.y / CANVAS
    vector[2] = box.w / CANVAS
    vector[3] = box.h / CANVAS
    vector[4] = box.area / (CANVAS * CANVAS)
    vector[5] = visible / box.area if box.area else 0.0

    # appearance: hashed histogram of category pixels in the region
    labels = raster.labels[region_mask]
    if labels.size:
        hist = np.bincount(labels % APPEARANCE_DIM,
                           minlength=APPEARANCE_DIM).astype(np.float32)
        vector[GEOMETRY_DIM:GEOMETRY_DIM + APPEARANCE_DIM] = \
            hist / labels.size

    # interaction: pooled per-object signals weighted by pixel ownership
    instances = raster.instances[region_mask]
    owners = instances[instances >= 0]
    if owners.size:
        counts = np.bincount(owners, minlength=raster.subject_signals.shape[0])
        weights = counts / owners.size
        start = GEOMETRY_DIM + APPEARANCE_DIM
        vector[start:start + len(RELATIONS)] = \
            weights @ raster.subject_signals
        vector[start + len(RELATIONS):] = weights @ raster.object_signals

    return FeatureMap(vector)


def masked(features):
    """The TDE mask: interaction signals zeroed, geometry kept."""
    vector = features.vector.copy()
    vector[GEOMETRY_DIM + APPEARANCE_DIM:] = 0.0
    return FeatureMap(vector)


def detect(detector, raster, image_id=0):
    """``SimulatedDetector.detect`` with one ndimage pass per region."""
    config = detector.config
    rng = np.random.default_rng((config.seed << 32) ^ (image_id + 1))
    detections = []
    for label_value, mask in connected_regions(raster.labels):
        visible = int(mask.sum())
        if visible < detector_module.MIN_AREA:
            continue
        if rng.random() < config.miss_rate:
            continue
        box = detector._jitter_box(region_box(mask), rng)
        category = detector._names[label_value - 1]
        category = detector._corrupt_label(category, visible, rng)
        features = extract_features(raster, box, mask)
        visibility = visible / max(1, box.area)
        score = float(np.clip(0.5 + 0.5 * visibility - config.label_noise,
                              0.05, 0.99))
        detections.append(Detection(
            index=len(detections),
            box=box,
            features=features,
            label=category,
            score=score,
            depth_estimate=float(np.clip(1.0 - visibility, 0.0, 1.0)),
        ))
    return detections


# -- relations ---------------------------------------------------------------


def softmax(logits):
    """Probabilities from one logit vector (consumes it in place)."""
    logits -= logits.max()
    exp = np.exp(logits)
    return exp / exp.sum()


def geometry_hint(subject, obj):
    """One-hot support from the pair's detected geometry."""
    hint = np.zeros(len(RELATIONS))
    predicate = spatial_relation(_GeometryShim(subject), _GeometryShim(obj))
    if predicate is not None:
        hint[relation_index(predicate)] = 1.0
    return hint


def factual_and_masked_logits(predictor, subject, obj, image_id):
    """The Eq. 1 and Eq. 2 logits of one pair, from one pass."""
    rng = predictor._pair_rng(subject, obj, image_id)
    base = BIAS_WEIGHT * predictor._log_prior
    base += GEOMETRY_WEIGHT * geometry_hint(subject, obj)
    evidence = subject.features.subject_signal * \
        obj.features.object_signal
    extraction = rng.random(len(RELATIONS)) < \
        predictor.spec.evidence_fidelity
    noise = rng.normal(0.0, predictor.spec.noise_scale, len(RELATIONS))
    factual = base + predictor.spec.evidence_weight * evidence * extraction
    factual += noise
    base += noise
    return factual, base


def pair_logits(predictor, subject, obj, image_id, masked=False):
    """Logits over RELATIONS for the ordered pair (Eq. 1 / Eq. 2)."""
    factual, counterfactual = factual_and_masked_logits(
        predictor, subject, obj, image_id)
    return counterfactual if masked else factual


def pair_probabilities(predictor, subject, obj, image_id, masked=False):
    """Softmax of :func:`pair_logits` — the ``p_rij`` of Eq. 1."""
    return softmax(pair_logits(predictor, subject, obj, image_id, masked))


def tde_scores(predictor, subject, obj, image_id):
    """The debiased score vector ``p - p'`` for an ordered pair."""
    factual, counterfactual = factual_and_masked_logits(
        predictor, subject, obj, image_id)
    return softmax(factual) - softmax(counterfactual)


def predict_relation(predictor, subject, obj, image_id, use_tde=True):
    """``(class_index, score, scores_vector)`` for one pair; with
    ``use_tde=False`` the biased Eq. 1 prediction."""
    if use_tde:
        scores = tde_scores(predictor, subject, obj, image_id)
    else:
        scores = pair_probabilities(predictor, subject, obj, image_id)
    best = int(np.argmax(scores))
    return best, float(scores[best]), scores


def candidate_pairs(detections):
    """The ``MAX_PAIRS`` nearest ordered detection pairs, nearest
    first."""
    from repro.synth.scene import center_distance

    scored = []
    for a in detections:
        for b in detections:
            if a.index == b.index:
                continue
            scored.append((center_distance(a.box, b.box), a, b))
    scored.sort(key=lambda item: item[0])
    return [(a, b) for _, a, b in scored[:relation_module.MAX_PAIRS]]


def predict_relations(pipeline, image_id, detections):
    """``SGGPipeline._predict_relations`` one pair at a time."""
    config = pipeline.config
    triples = []
    best_per_pair = []
    for subject, obj in candidate_pairs(detections):
        if config.use_tde:
            scores = tde_scores(pipeline.predictor, subject, obj, image_id)
        else:
            scores = pair_probabilities(pipeline.predictor, subject, obj,
                                        image_id)
        order = np.argsort(scores)[::-1][:sgg_module.PREDICATES_PER_PAIR]
        pair_best = None
        for rank, class_index in enumerate(order):
            relation = PredictedRelation(
                subject.index, obj.index, RELATIONS[int(class_index)],
                float(scores[int(class_index)]),
            )
            triples.append(relation)
            if rank == 0:
                pair_best = relation
        if config.use_tde and pair_best is not None and \
                pair_best.score < sgg_module.KEEP_MIN_SCORE:
            predicate = spatial_relation(_GeometryShim(subject),
                                         _GeometryShim(obj))
            if predicate is not None:
                pair_best = PredictedRelation(subject.index, obj.index,
                                              predicate,
                                              GEOMETRY_FALLBACK_SCORE)
                triples.append(pair_best)
        if pair_best is not None:
            best_per_pair.append(pair_best)
    triples.sort(key=lambda t: -t.score)
    best_per_pair.sort(key=lambda t: -t.score)
    keep = max(sgg_module.MIN_KEEP,
               int(len(detections) * sgg_module.KEEP_PER_DETECTION))
    kept = [r for r in best_per_pair
            if r.score >= sgg_module.KEEP_MIN_SCORE][:keep]
    return triples, kept


def run(pipeline, scene):
    """``SGGPipeline.run`` (no resilience manager) through the oracles."""
    detections = detect(pipeline.detector, scene.render(), scene.image_id)
    triples, kept = predict_relations(pipeline, scene.image_id, detections)
    return SceneGraphResult(image_id=scene.image_id, detections=detections,
                            relations=kept, ranked_triples=triples)
