"""``build_mvqa`` builds only what its caller reads.

The builder stops the scene pool at its ``image_count``-th survivor of
the MVQA filter and generates the question set on the first read of
``MVQADataset.questions``.  The oracle here is the eager definition it
replaced: generate the whole pool, filter it, keep the first
``image_count`` survivors, and generate the questions at once.  Every
case diffs the two, including a filter that rejects scenes (so the
one-scene-at-a-time top-up runs) and question sets read only after a
served pipeline has been built and has answered questions.
"""

import numpy as np
import pytest

import repro.dataset.mvqa as mvqa
from repro.dataset.groundtruth import GroundTruthIndex
from repro.dataset.mvqa import (
    COMPOSITION,
    MVQADataset,
    _generate_questions,
    _inject_exotic_words,
    build_mvqa,
)
from repro.dataset.questions import QuestionGenerator
from repro.errors import DatasetError
from repro.serve import ServeConfig
from repro.serve.app import build_svqa_with_store
from repro.synth.generator import SceneGenerator
from repro.synth.scene import SyntheticScene

FAST = {"seed": 5, "pool_size": 1_200, "image_count": 400}


def eager_images(seed, pool_size, image_count):
    """The whole pool, then the filter (the module's filter is looked
    up at call time, so a patched one applies here too)."""
    scenes = SceneGenerator(seed=seed).generate_pool(pool_size)
    selected = [s for s in scenes if mvqa.mvqa_image_filter(s)]
    if len(selected) < image_count:
        raise DatasetError(
            f"only {len(selected)} of {pool_size} pool scenes pass the "
            f"MVQA filter; need {image_count}"
        )
    return [SyntheticScene(new_id, s.objects, s.relations, s.caption)
            for new_id, s in enumerate(selected[:image_count])]


def eager_build_mvqa(seed, pool_size, image_count):
    """The eager builder: :func:`eager_images`, then the questions."""
    images = eager_images(seed, pool_size, image_count)
    rng = np.random.default_rng(seed + 1)
    questions = _generate_questions(
        QuestionGenerator(GroundTruthIndex(images), rng), COMPOSITION)
    _inject_exotic_words(questions, rng)
    return MVQADataset(images, questions, mvqa.build_commonsense_kg(),
                       pool_size)


ORIGINAL_FILTER = mvqa.mvqa_image_filter


def reject_every_seventh(scene):
    """The MVQA filter, also rejecting every seventh pool image."""
    return scene.image_id % 7 != 3 and ORIGINAL_FILTER(scene)


@pytest.fixture(scope="module")
def eager_fast():
    return eager_build_mvqa(**FAST)


class TestScenesEqualEager:
    def test_fast_configuration(self, eager_fast):
        lazy = build_mvqa(**FAST)
        assert lazy.scenes == eager_fast.scenes
        assert lazy.pool_size == 1_200

    def test_larger_pool(self):
        config = {"seed": 9, "pool_size": 1_500, "image_count": 500}
        assert build_mvqa(**config).scenes == eager_images(**config)

    def test_rejecting_filter_tops_up(self, monkeypatch):
        monkeypatch.setattr(mvqa, "mvqa_image_filter",
                            reject_every_seventh)
        generated = []
        original_generate = SceneGenerator.generate

        def counting(self, image_id):
            generated.append(image_id)
            return original_generate(self, image_id)

        monkeypatch.setattr(SceneGenerator, "generate", counting)
        lazy = build_mvqa(**FAST)
        # every fast-pool scene passes the real filter, so images 0..466
        # hold 467 - 67 rejected = 400 survivors, the last one image
        # 466: the pool stops there, well short of 1,200
        assert generated == list(range(467))
        del generated[:]
        eager = eager_build_mvqa(**FAST)
        assert len(generated) == 1_200
        assert lazy.scenes == eager.scenes
        assert lazy.questions == eager.questions

    def test_exhausted_pool_raises_the_same_error(self, monkeypatch):
        monkeypatch.setattr(mvqa, "mvqa_image_filter",
                            reject_every_seventh)
        config = {"seed": 5, "pool_size": 450, "image_count": 400}
        with pytest.raises(DatasetError) as lazy:
            build_mvqa(**config)
        with pytest.raises(DatasetError) as eager:
            eager_images(**config)
        assert str(lazy.value) == str(eager.value)
        assert "of 450 pool scenes" in str(lazy.value)


class TestQuestionsOnFirstRead:
    def test_fast_questions_equal_eager(self, eager_fast):
        lazy = build_mvqa(**FAST)
        assert lazy.questions == eager_fast.questions
        assert lazy.questions is lazy.questions  # built once, then kept

    def test_a_given_list_is_kept_as_is(self, eager_fast):
        questions = eager_fast.questions
        dataset = MVQADataset(eager_fast.scenes, questions, eager_fast.kg)
        assert dataset.questions is questions


@pytest.fixture(scope="module")
def cold_serve_build():
    """A cold ``--scenario mvqa`` server build, with ``build_mvqa``
    captured as perfbench's prep captures it, scene generation counted
    and question generation counted."""
    calls = {"generate": 0, "questions": 0}
    captured = {}
    original_generate = SceneGenerator.generate
    original_build = mvqa.build_mvqa

    def counting_generate(self, image_id):
        calls["generate"] += 1
        return original_generate(self, image_id)

    def counting_questions(*args, **kwargs):
        calls["questions"] += 1
        return _generate_questions(*args, **kwargs)

    def capture(*args, **kwargs):
        captured["dataset"] = original_build(*args, **kwargs)
        return captured["dataset"]

    patches = pytest.MonkeyPatch()
    patches.setattr(SceneGenerator, "generate", counting_generate)
    patches.setattr(mvqa, "_generate_questions", counting_questions)
    patches.setattr(mvqa, "build_mvqa", capture)
    try:
        svqa, _ = build_svqa_with_store(ServeConfig(scenario="mvqa"))
    finally:
        patches.undo()
    return svqa, captured["dataset"], calls


class TestColdServeBuild:
    def test_generates_only_the_kept_scenes_and_no_questions(
            self, cold_serve_build):
        _, dataset, calls = cold_serve_build
        assert calls == {"generate": 400, "questions": 0}
        assert dataset.image_count == 400

    def test_captured_questions_read_after_answers_equal_eager(
            self, cold_serve_build, eager_fast):
        svqa, dataset, _ = cold_serve_build
        texts = [q.text for q in eager_fast.questions]
        svqa.answer_many(texts[:20])
        questions = dataset.questions
        assert len(questions) == 100
        assert questions == eager_fast.questions
