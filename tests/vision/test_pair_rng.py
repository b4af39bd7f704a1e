"""The per-pair relation stream is ``np.random.default_rng(key)``.

``RelationPredictor._pair_rng`` builds ``Generator(PCG64(key))``
directly instead of going through ``default_rng``'s argument dispatch;
both must yield the same stream for every key the predictor can hash
to, so detections, scene graphs and snapshots stay byte-identical.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.util import stable_hash
from repro.vision.relation import MODELS, RelationPredictor

KEYS = [0, 1, 2, 7, 2**31 - 1, 2**32, 2**62 + 12345, 2**63 - 1] + [
    stable_hash("neural-motifs", seed, image, a, b)
    for seed in (0, 3) for image in (0, 17, 399) for a, b in
    ((0, 1), (1, 0), (5, 9))
]


@pytest.mark.parametrize("key", KEYS)
def test_pcg64_generator_draws_like_default_rng(key):
    direct = np.random.Generator(np.random.PCG64(key))
    dispatched = np.random.default_rng(key)
    assert np.array_equal(direct.random(64), dispatched.random(64))
    assert np.array_equal(direct.normal(0.0, 0.7, 51),
                          dispatched.normal(0.0, 0.7, 51))


def test_pair_rng_is_the_default_rng_stream():
    predictor = RelationPredictor(MODELS["neural-motifs"])
    for image_id, (a, b) in [(0, (0, 1)), (42, (3, 2)), (399, (7, 7))]:
        subject, obj = SimpleNamespace(index=a), SimpleNamespace(index=b)
        key = stable_hash(predictor.spec.name, predictor._seed, image_id,
                          a, b)
        got = predictor._pair_rng(subject, obj, image_id)
        want = np.random.default_rng(key)
        assert np.array_equal(got.random(26), want.random(26))
        assert np.array_equal(got.normal(0.0, 1.0, 26),
                              want.normal(0.0, 1.0, 26))
