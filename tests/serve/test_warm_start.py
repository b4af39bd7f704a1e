"""Serve warm start from the durable store.

The contract: a server warm-started from a snapshot of a same-seed
cold build answers **byte-identically** to that cold build — same
``/ask`` bodies, same ``/metrics`` exposition — while skipping the
scenario corpus and the vision pipeline entirely (no corpus builder
call, no ``build``/``aggregate.merge`` spans, one ``store.recover``
span).  An unrecoverable store degrades to the cold path, counted and
surfaced in ``/healthz``.
"""

import json

import pytest

import repro.dataset.kg
import repro.dataset.movie
import repro.dataset.mvqa

from repro.dataset.kg import build_movie_kg
from repro.dataset.movie import (
    FLAGSHIP_ANSWER,
    FLAGSHIP_QUESTION,
    build_movie_scenes,
)
from repro.core.pipeline import SVQA, SVQAConfig
from repro.graph.durable import DurableStore
from repro.graph.store import extensional_digest
from repro.serve import ServeConfig, build_service
from repro.serve.app import _warm_start, build_svqa_with_store
from repro.vision.detector import DetectorConfig

from tests.observability.helpers import span_multiset
from tests.serve.test_app import ask, request


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """A durable store holding a snapshot of the cold movie build."""
    root = tmp_path_factory.mktemp("store")
    service = build_service(ServeConfig())
    merged = service.svqa.merged
    store = DurableStore(root)
    store.snapshot(merged.graph, merged_meta=merged.meta_dict())
    store.close()
    return root


def transcript(service):
    """A fixed request sequence -> list of (status, body) + metrics."""
    out = []
    for question, deadline in [(FLAGSHIP_QUESTION, None),
                               ("canis canis canis", None),
                               (FLAGSHIP_QUESTION, "0.0005"),
                               (FLAGSHIP_QUESTION, None)]:
        headers = {} if deadline is None else {"Deadline-Ms": deadline}
        status, _, body = ask(service, question, headers=headers,
                              client="warm")
        out.append((status, body))
    return out, request(service, "GET", "/metrics")[2]


class TestWarmStartByteIdentity:
    def test_ask_and_metrics_byte_identical(self, store_dir):
        cold = transcript(build_service(ServeConfig()))
        warm = transcript(
            build_service(ServeConfig(snapshot=str(store_dir))))
        assert cold[0] == warm[0]
        assert cold[1] == warm[1]

    def test_healthz_reports_snapshot_source(self, store_dir):
        service = build_service(ServeConfig(snapshot=str(store_dir)))
        payload = json.loads(request(service, "GET", "/healthz")[2])
        store = payload["store"]
        assert store["source"] == "snapshot"
        assert store["epoch"] == service.svqa.merged.graph.epoch
        assert store["wal_records_replayed"] == 0
        assert payload["status"] == "ok"


class TestWarmStartSkipsVisionPipeline:
    def _traced_svqa(self):
        movie = build_movie_scenes()
        return SVQA(
            movie.scenes,
            build_movie_kg(),
            SVQAConfig(
                detector=DetectorConfig(label_noise=0.0, miss_rate=0.0),
                trace=True,
            ),
            annotations=movie.annotations,
        )

    def test_span_multiset_has_recover_and_no_merge(self, store_dir):
        svqa = self._traced_svqa()
        report = _warm_start(svqa, str(store_dir))
        assert report.source == "snapshot"
        assert svqa.merged is not None
        counts = span_multiset(svqa.finished_spans())
        names = {name for name, _ in counts}
        assert "store.recover" in names
        assert "build" not in names
        assert "aggregate.merge" not in names
        answer = svqa.answer(FLAGSHIP_QUESTION)
        assert answer.value == FLAGSHIP_ANSWER

    def test_cold_build_does_run_vision_pipeline(self):
        svqa = self._traced_svqa()
        svqa.build()
        names = {name for name, _
                 in span_multiset(svqa.finished_spans())}
        assert "build" in names
        assert "aggregate.merge" in names
        assert "store.recover" not in names


class TestWarmStartDegradation:
    def test_empty_store_degrades_to_cold_build(self, tmp_path):
        service = build_service(
            ServeConfig(snapshot=str(tmp_path / "empty")))
        payload = json.loads(request(service, "GET", "/healthz")[2])
        assert payload["store"]["source"] == "rebuild"
        assert payload["index"]["ready"] is True
        stats = service.svqa.execution_report().stats
        assert stats.store_rebuilds == 1
        status, _, body = ask(service, FLAGSHIP_QUESTION)
        assert status == 200
        assert json.loads(body)["answer"] == FLAGSHIP_ANSWER

    def test_missing_merged_meta_degrades(self, tmp_path):
        root = tmp_path / "nometa"
        graph = build_movie_kg()
        store = DurableStore(root)
        store.snapshot(graph)  # no merged_meta record
        store.close()
        service = build_service(ServeConfig(snapshot=str(root)))
        payload = json.loads(request(service, "GET", "/healthz")[2])
        assert payload["store"]["source"] == "rebuild"
        assert payload["index"]["ready"] is True
        assert service.svqa.execution_report().stats.store_rebuilds == 1

    def test_corrupt_snapshot_degrades_with_attribution(
            self, tmp_path, store_dir):
        root = tmp_path / "corrupt"
        root.mkdir()
        raw = (store_dir / DurableStore.SNAPSHOT_NAME).read_bytes()
        (root / DurableStore.SNAPSHOT_NAME).write_bytes(raw[:-7])
        (root / DurableStore.WAL_NAME).write_bytes(
            (store_dir / DurableStore.WAL_NAME).read_bytes())
        service = build_service(ServeConfig(snapshot=str(root)))
        report = service.store_report
        assert report.source == "rebuild"
        assert report.quarantined
        assert (root / DurableStore.QUARANTINE_DIR
                / DurableStore.SNAPSHOT_NAME).exists()
        status, _, body = ask(service, FLAGSHIP_QUESTION)
        assert status == 200
        assert json.loads(body)["answer"] == FLAGSHIP_ANSWER


def corpus_must_not_be_built(*args, **kwargs):
    raise AssertionError("a warm start built the scenario corpus")


#: ``extensional_digest`` of the fast MVQA merged graph (seed 5, pool
#: 1,200, 400 images) — the graph both ``repro mvqa --fast`` and
#: ``repro serve --scenario mvqa`` build.  Any change to synthesis,
#: ground truth, detection, relation prediction or merging that moves
#: a single vertex, edge or property changes it.
FAST_MVQA_DIGEST = "345bf56401ec613927ed75b0936e338e"


@pytest.fixture(scope="module")
def mvqa_cold(tmp_path_factory):
    """The served MVQA scenario built cold: its questions, its answers
    to them, its merged-graph digest, and a snapshot of it."""
    kept = {}
    original = repro.dataset.mvqa.build_mvqa

    def capture(*args, **kwargs):
        kept["dataset"] = original(*args, **kwargs)
        return kept["dataset"]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.dataset.mvqa, "build_mvqa", capture)
        svqa, report = build_svqa_with_store(ServeConfig(scenario="mvqa"))
    assert report is None
    questions = [q.text for q in kept["dataset"].questions]
    root = tmp_path_factory.mktemp("mvqa-store")
    store = DurableStore(root)
    store.snapshot(svqa.merged.graph, merged_meta=svqa.merged.meta_dict())
    store.close()
    return {
        "questions": questions,
        "answers": [a.to_json() for a in svqa.answer_many(questions)],
        "digest": extensional_digest(svqa.merged.graph),
        "store": root,
    }


class TestCorpusFreeWarmStart:
    def test_fast_mvqa_merged_graph_digest_is_pinned(self, mvqa_cold):
        assert mvqa_cold["digest"] == FAST_MVQA_DIGEST

    def test_mvqa_warm_start_never_builds_the_corpus(self, mvqa_cold,
                                                     monkeypatch):
        monkeypatch.setattr(repro.dataset.mvqa, "build_mvqa",
                            corpus_must_not_be_built)
        svqa, report = build_svqa_with_store(ServeConfig(
            scenario="mvqa", snapshot=str(mvqa_cold["store"])))
        assert report.source == "snapshot"
        assert svqa.scenes is None and svqa.kg is None
        assert extensional_digest(svqa.merged.graph) == FAST_MVQA_DIGEST
        answers = svqa.answer_many(mvqa_cold["questions"])
        assert [a.to_json() for a in answers] == mvqa_cold["answers"]

    def test_movie_warm_start_never_builds_the_corpus(self, store_dir,
                                                      monkeypatch):
        monkeypatch.setattr(repro.dataset.movie, "build_movie_scenes",
                            corpus_must_not_be_built)
        monkeypatch.setattr(repro.dataset.kg, "build_movie_kg",
                            corpus_must_not_be_built)
        service = build_service(ServeConfig(snapshot=str(store_dir)))
        assert service.store_report.source == "snapshot"
        status, _, body = ask(service, FLAGSHIP_QUESTION)
        assert status == 200
        assert json.loads(body)["answer"] == FLAGSHIP_ANSWER

    def test_missing_merged_meta_builds_the_corpus_once(
            self, mvqa_cold, tmp_path, monkeypatch):
        root = tmp_path / "nometa"
        store = DurableStore(root)
        store.snapshot(build_movie_kg())  # no merged_meta record
        store.close()
        calls = []
        original = repro.dataset.mvqa.build_mvqa

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(repro.dataset.mvqa, "build_mvqa", counting)
        svqa, report = build_svqa_with_store(
            ServeConfig(scenario="mvqa", snapshot=str(root)))
        assert report.source == "rebuild"
        assert len(calls) == 1
        assert svqa.execution_report().stats.store_rebuilds == 1
        assert extensional_digest(svqa.merged.graph) == FAST_MVQA_DIGEST
        first = mvqa_cold["questions"][0]
        assert svqa.answer_many([first])[0].value == \
            json.loads(mvqa_cold["answers"][0])["answer"]

    def test_unknown_scenario_is_rejected_before_recovery(self, store_dir):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_svqa_with_store(ServeConfig(scenario="imagenet",
                                              snapshot=str(store_dir)))
