"""Unit tests for answer aggregation (getFinalanswer)."""

from repro.core.answer import Answer, final_answer, render_answer
from repro.resilience.events import FaultEvent
from repro.core.spoc import QuestionType, SPOC, Term
from repro.graph import Graph, RelationPair


def make_pairs(triples):
    """triples: list of (subject_label, predicate, object_label, image)."""
    graph = Graph()
    pairs = []
    for s_label, predicate, o_label, image in triples:
        s = graph.add_vertex(s_label, {"kind": "instance",
                                       "image_id": image})
        o = graph.add_vertex(o_label, {"kind": "instance",
                                       "image_id": image})
        e = graph.add_edge(s.id, o.id, predicate, {"image_id": image})
        pairs.append(RelationPair(s, e, o))
    return pairs


def spoc(qtype, answer_role="object", kind_of=False, head="animal"):
    term = Term(text=head, head=head, kind_of=kind_of, is_wh=True)
    other = Term(text="dog", head="dog")
    return SPOC(
        subject=other if answer_role == "object" else term,
        predicate="carry",
        object=term if answer_role == "object" else other,
        is_main=True,
        question_type=qtype,
        answer_role=answer_role,
    )


def kind_filter(label, ancestor):
    from tests.nlp.oracles import is_kind_of
    return is_kind_of(label, ancestor)


class TestJudgment:
    def test_yes_with_pairs(self):
        pairs = make_pairs([("dog", "near", "fence", 0)])
        answer = final_answer(spoc(QuestionType.JUDGMENT), pairs)
        assert answer.value == "yes"

    def test_no_without_pairs(self):
        answer = final_answer(spoc(QuestionType.JUDGMENT), [])
        assert answer.value == "no"


class TestCounting:
    def test_counts_distinct_instances(self):
        pairs = make_pairs([
            ("dog", "standing on", "grass", 0),
            ("dog", "standing on", "grass", 1),
            ("dog", "standing on", "grass", 2),
        ])
        answer = final_answer(spoc(QuestionType.COUNTING,
                                   answer_role="subject", head="dog"),
                              pairs)
        assert answer.value == "3"

    def test_kind_counting_needs_min_images(self):
        pairs = make_pairs([
            ("dog", "eating", "grass", 0),
            ("dog", "eating", "grass", 1),
            ("cow", "eating", "grass", 2),   # only one image: dropped
        ])
        answer = final_answer(
            spoc(QuestionType.COUNTING, answer_role="subject",
                 kind_of=True, head="animal"),
            pairs, kind_min_images=2,
        )
        assert answer.value == "1"

    def test_kind_counting_default_threshold(self):
        pairs = make_pairs([
            ("dog", "eating", "grass", i) for i in range(3)
        ] + [
            ("cow", "eating", "grass", 5),
            ("cow", "eating", "grass", 6),  # two images < default 3
        ])
        answer = final_answer(
            spoc(QuestionType.COUNTING, answer_role="subject",
                 kind_of=True, head="animal"),
            pairs,
        )
        assert answer.value == "1"

    def test_zero_count(self):
        answer = final_answer(spoc(QuestionType.COUNTING,
                                   answer_role="subject"), [])
        assert answer.value == "0"


class TestReasoning:
    def test_mode_label_wins(self):
        pairs = make_pairs([
            ("dog", "carrying", "bird", 0),
            ("dog", "carrying", "bird", 1),
            ("dog", "carrying", "ball", 2),
        ])
        answer = final_answer(spoc(QuestionType.REASONING), pairs,
                              kind_filter=kind_filter)
        assert answer.value == "bird"

    def test_kind_of_filters_non_kinds(self):
        pairs = make_pairs([
            ("dog", "carrying", "frisbee", 0),  # frisbee is a toy,
            ("dog", "carrying", "frisbee", 1),  # not an animal
            ("dog", "carrying", "bird", 2),
        ])
        answer = final_answer(
            spoc(QuestionType.REASONING, kind_of=True, head="animal"),
            pairs, kind_filter=kind_filter,
        )
        assert answer.value == "bird"

    def test_unknown_when_empty(self):
        answer = final_answer(spoc(QuestionType.REASONING), [],
                              kind_filter=kind_filter)
        assert answer.value == "unknown"

    def test_support_restricted_to_winner(self):
        pairs = make_pairs([
            ("dog", "carrying", "bird", 0),
            ("dog", "carrying", "bird", 3),
            ("dog", "carrying", "ball", 7),
        ])
        answer = final_answer(spoc(QuestionType.REASONING), pairs,
                              kind_filter=kind_filter)
        assert answer.supporting_images == [0, 3]


class TestAnswerObject:
    def test_str(self):
        assert str(Answer(QuestionType.JUDGMENT, "yes")) == "yes"

    def test_supporting_images_empty(self):
        assert Answer(QuestionType.JUDGMENT, "no").supporting_images == []


class TestSerialization:
    """Satellite: the single stable to_dict()/JSON wire shape."""

    def make_answer(self):
        pairs = make_pairs([("dog", "carry", "cat", 3),
                            ("dog", "carry", "cat", 5)])
        return Answer(
            QuestionType.COUNTING, "2", pairs, latency=0.125,
            degraded=True, confidence=0.5,
            fault_events=[FaultEvent("cache.scope", "retry",
                                     attempts=2, detail="poked")],
        )

    def test_to_dict_shape(self):
        payload = self.make_answer().to_dict()
        assert sorted(payload) == ["answer", "meta", "question_type",
                                   "sources"]
        assert payload["answer"] == "2"
        assert payload["question_type"] == "counting"
        assert payload["sources"]["images"] == [3, 5]
        assert payload["sources"]["support"][0] == {
            "subject": "dog", "predicate": "carry",
            "object": "cat", "image_id": 3,
        }
        meta = payload["meta"]
        assert meta["latency"] == 0.125
        assert meta["degraded"] is True
        assert meta["confidence"] == 0.5
        assert meta["fault_events"] == [{
            "site": "cache.scope", "kind": "retry",
            "attempts": 2, "detail": "poked",
        }]

    def test_round_trip_is_lossless(self):
        original = self.make_answer()
        restored = Answer.from_dict(original.to_dict())
        assert restored.to_dict() == original.to_dict()
        assert restored.to_json() == original.to_json()
        assert restored.question_type is QuestionType.COUNTING
        assert restored.fault_events == original.fault_events

    def test_round_trip_through_json_text(self):
        import json

        original = self.make_answer()
        restored = Answer.from_dict(json.loads(original.to_json()))
        assert restored.to_json() == original.to_json()

    def test_round_trip_of_plain_answer(self):
        original = Answer(QuestionType.JUDGMENT, "yes")
        restored = Answer.from_dict(original.to_dict())
        assert restored.to_dict() == original.to_dict()
        assert restored.latency is None
        assert not restored.degraded

    def test_to_json_is_deterministic_bytes(self):
        first = self.make_answer().to_json()
        second = self.make_answer().to_json()
        assert first == second
        assert first.index('"answer"') < first.index('"meta"')

    def test_malformed_meta_rejected(self):
        import pytest

        payload = self.make_answer().to_dict()
        payload["meta"] = "not-a-dict"
        with pytest.raises(ValueError):
            Answer.from_dict(payload)


class TestRenderAnswer:
    def test_render_shares_the_wire_fields(self):
        pairs = make_pairs([("dog", "carry", "cat", 3)])
        answer = Answer(
            QuestionType.JUDGMENT, "yes", pairs, degraded=True,
            confidence=0.5,
            fault_events=[FaultEvent("cache.path", "recovered",
                                     attempts=2)],
        )
        text = render_answer(answer, "Is the dog carrying a cat?")
        assert "Q: Is the dog carrying a cat?" in text
        assert "A: yes" in text
        assert "evidence images: [3]" in text
        assert "degraded (confidence 0.50)" in text
        assert "[cache.path] recovered after 2 attempt(s)" in text

    def test_render_without_question_or_evidence(self):
        answer = Answer(QuestionType.REASONING, "unknown")
        assert render_answer(answer) == "A: unknown"
