"""Offline and served sessions run the same code and give the same
answers: the resilience layer is always on, so a question the grammar
rejects degrades to the keyword fallback in both, instead of an
offline ``unknown`` against a served salvage.  ``repro ask --json``
prints the ``POST /ask`` body, ``meta.latency`` included."""

import json

import pytest

from repro.cli import main
from repro.core import SVQA, SVQAConfig
from repro.dataset.movie import FLAGSHIP_QUESTION
from repro.dataset.mvqa import build_mvqa
from repro.serve import QAService, ServeConfig, build_svqa
from tests.serve.test_app import ask


def test_fast_mvqa_offline_matches_served():
    dataset = build_mvqa(seed=5, pool_size=1_200, image_count=400)
    questions = [q.text for q in dataset.questions]
    offline = SVQA(dataset.scenes, dataset.kg, SVQAConfig())
    offline.build()
    served = build_svqa(ServeConfig(scenario="mvqa"))

    def outcome(system):
        return [(a.value, a.degraded, a.confidence)
                for a in system.answer_many(questions)]

    offline_outcome = outcome(offline)
    assert len(offline_outcome) == 100
    assert offline_outcome == outcome(served)
    # the grammar-rejected questions are among them, salvaged alike
    assert sum(degraded for _, degraded, _ in offline_outcome) == 3


@pytest.mark.parametrize("question", [FLAGSHIP_QUESTION,
                                      "canis canis canis"])
def test_cli_ask_prints_the_served_body(question, capsys):
    assert main(["ask", "--json", question]) == 0
    offline = json.loads(capsys.readouterr().out)
    service = QAService(build_svqa(ServeConfig()), ServeConfig())
    try:
        status, _, body = ask(service, question)
    finally:
        service.close()
    served = json.loads(body)
    assert status == 200
    assert served["meta"].pop("deadline_s") is None
    assert offline == served
