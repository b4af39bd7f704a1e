"""The session-owned query-graph memo against memo-free sessions.

``SVQA`` analyses each distinct question once (its query memo, a
:class:`~repro.memo.Memo` of ``analyse_question``) and replays
Algorithm 2's charges and spans on every ask.  The oracle is
the same session with a zero-capacity memo, which analyses every ask
afresh: answers, ``clock.counts``, span trees and parse-site fault
events must not tell the two apart.
"""

import threading

import pytest

from repro import locks
from repro.analysis.concurrency.sanitizer import Sanitizer, SanitizerConfig
from repro.core import SVQA, SVQAConfig
from repro.core import pipeline
from repro.core.query_graph import QUERY_MEMO_CAPACITY, analyse_question
from repro.dataset.kg import build_commonsense_kg
from repro.dataset.mvqa import build_mvqa
from repro.errors import QueryParseError
from repro.memo import Memo
from repro.resilience import ResilienceConfig
from repro.synth import SceneGenerator

EXOTIC = "Is there a canis near the fence?"


def query_memo(capacity=QUERY_MEMO_CAPACITY):
    """A memo like the one every session owns."""
    return Memo(capacity, "core.query_memo")


def analyse(memo, question):
    """The session's lookup: the memoised ``analyse_question``."""
    return memo.get_or_compute(question, lambda: analyse_question(question))


@pytest.fixture(scope="module")
def mvqa():
    return build_mvqa(seed=5, pool_size=1_200, image_count=400)


@pytest.fixture(scope="module")
def questions(mvqa):
    return [q.text for q in mvqa.questions]


@pytest.fixture(autouse=True)
def _pristine_observer():
    """Detach any process-global observer (e.g. SVQA_SANITIZE=1 runs)
    for the sanitizer tests below; restore it afterwards."""
    previous = locks.current()
    if previous is not None:
        locks.uninstall(previous)
    yield
    leftover = locks.current()
    if leftover is not None:
        locks.uninstall(leftover)
    if previous is not None:
        locks.install(previous)


def session(scenes, kg, memo=True, **config):
    system = SVQA(scenes, kg, SVQAConfig(**config))
    system.build()
    if not memo:
        system._query_graphs = query_memo(capacity=0)
    return system


def ask_one_by_one(system, questions):
    """One request per batch, as the server sends Zipf traffic."""
    return [system.answer_many([q])[0] for q in questions]


class TestDifferential:
    def test_repeated_passes_match_a_memo_free_session(self, mvqa,
                                                       questions):
        config = dict(resilience=ResilienceConfig(),
                      trace=True)
        memo = session(mvqa.scenes, mvqa.kg, **config)
        fresh = session(mvqa.scenes, mvqa.kg, memo=False, **config)
        for _ in range(3):
            got = ask_one_by_one(memo, questions)
            want = ask_one_by_one(fresh, questions)
            assert [a.to_json() for a in got] == \
                [a.to_json() for a in want]
            assert memo.clock.counts == fresh.clock.counts
            assert memo.spans_jsonl() == fresh.spans_jsonl()
        # the three exotic questions fail to parse and are not kept
        assert len(memo._query_graphs) == len(set(questions)) - 3
        assert len(memo._query_graphs) <= QUERY_MEMO_CAPACITY
        assert len(fresh._query_graphs) == 0

    def test_chaos_parse_faults_match_a_memo_free_run(self, questions):
        scenes = SceneGenerator(seed=31).generate_pool(40)
        config = dict(resilience=ResilienceConfig.chaos(0.2, seed=3))
        memo = session(scenes, build_commonsense_kg(), **config)
        fresh = session(scenes, build_commonsense_kg(), memo=False,
                        **config)
        for _ in range(2):
            got = ask_one_by_one(memo, questions)
            want = ask_one_by_one(fresh, questions)

            def parse_events(answers):
                return [[e.to_dict() for e in a.fault_events
                         if e.site == "parse.question"] for a in answers]

            assert parse_events(got) == parse_events(want)
            assert any(parse_events(got))
            assert [a.to_json() for a in got] == \
                [a.to_json() for a in want]
            assert memo.clock.counts == fresh.clock.counts


class TestMemo:
    def test_hit_returns_the_stored_graph(self, questions):
        memo = query_memo()
        first = analyse(memo, questions[0])
        assert first == analyse_question(questions[0])
        assert analyse(memo, questions[0]) is first
        assert len(memo) == 1

    def test_never_holds_more_than_its_capacity(self, questions):
        memo = query_memo(capacity=4)
        parseable = [q for q in questions if "canis" not in q][:10]
        kept = analyse(memo, parseable[0])
        for question in parseable[1:4]:
            analyse(memo, question)
        analyse(memo, parseable[0])  # the most recent again
        analyse(memo, parseable[4])
        # least recently asked goes first: parseable[1], not [0]
        assert analyse(memo, parseable[0]) is kept
        assert analyse(memo, parseable[1]) is not kept
        for question in parseable[5:]:
            analyse(memo, question)
            assert len(memo) <= 4
        assert len(memo) == 4
        assert analyse(memo, parseable[0]) is not kept

    def test_failed_parses_are_not_memoised(self):
        memo = query_memo()
        for _ in range(2):
            with pytest.raises(QueryParseError):
                analyse(memo, EXOTIC)
        assert len(memo) == 0

    def test_sessions_do_not_share_a_memo(self):
        scenes = SceneGenerator(seed=31).generate_pool(10)
        kg = build_commonsense_kg()
        a, b = SVQA(scenes, kg), SVQA(scenes, kg)
        a.parse_question("Is there a dog near the fence?")
        assert len(a._query_graphs) == 1
        assert len(b._query_graphs) == 0


class TestBoundedGrowth:
    def test_more_questions_than_its_capacity(self, questions, monkeypatch):
        """A session asked more distinct questions than a small
        capacity keeps that many and still parses each like a fresh
        analysis."""
        monkeypatch.setattr(pipeline, "QUERY_MEMO_CAPACITY", 8)
        system = SVQA()
        distinct = list(dict.fromkeys(questions))
        assert len(distinct) > 8
        for question in distinct:
            try:
                want = analyse_question(question)
            except QueryParseError:
                with pytest.raises(QueryParseError):
                    system.parse_question(question)
                continue
            assert system.parse_question(question) == want
            assert len(system._query_graphs) <= 8
        assert len(system._query_graphs) == 8


class TestUnderSanitizer:
    QUESTIONS = [
        "Is there a dog near the fence?",
        "What is on the table?",
        "How many chairs are near the table?",
        EXOTIC,
    ]

    def test_workers_4_batch_reports_no_race(self):
        scenes = SceneGenerator(seed=7).generate_pool(6)
        system = SVQA(scenes, build_commonsense_kg(), SVQAConfig(
            workers=4, sanitizer=SanitizerConfig(seed=7)))
        try:
            system.build()
            system.answer_many(self.QUESTIONS * 3)
            system.answer_many(self.QUESTIONS)  # every parse a hit
            assert system.sanitizer is not None
            report = system.sanitizer.report()
        finally:
            system.release_sanitizer()
        assert report.clean, report.render()
        assert "core.query_memo" in report.lock_roles
        assert "core.query_memo" in report.structures

    def test_concurrent_misses_converge_on_one_graph(self):
        san = Sanitizer(SanitizerConfig(seed=5))
        locks.install(san)
        try:
            memo = query_memo()
            questions = self.QUESTIONS[:3]
            results = [[] for _ in range(4)]

            def worker(out):
                for question in questions * 3:
                    out.append(analyse(memo, question))

            locks.note_fork()
            threads = [threading.Thread(target=worker, args=(out,))
                       for out in results]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            locks.note_join()
            report = san.report()
        finally:
            locks.uninstall(san)
        assert report.clean, report.render()
        for out in results:
            assert [g is analyse(memo, g.question) for g in out] == \
                [True] * len(out)
