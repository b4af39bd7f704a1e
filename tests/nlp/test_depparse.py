"""Unit tests for the dependency parser."""

import pytest

from repro.errors import ParseError
from repro.nlp import parse


def arcs_by_text(tree):
    """Map dependent text -> (label, head text) for easy assertions."""
    result = {}
    for i, token in enumerate(tree.tokens):
        head = tree.heads[i]
        head_word = "ROOT" if head == -1 else tree.tokens[head].text
        result[token.text] = (tree.labels[i], head_word)
    return result


class TestPassiveWHQuestion:
    QUESTION = (
        "What kind of clothes are worn by the wizard who is most "
        "frequently hanging out with Harry Potter's girlfriend?"
    )

    @pytest.fixture(scope="class")
    def tree(self):
        return parse(self.QUESTION)

    def test_root_is_main_verb(self, tree):
        assert tree.tokens[tree.root].text == "worn"

    def test_passive_subject(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["kind"] == ("nsubj:pass", "worn")

    def test_of_chain(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["clothes"] == ("nmod", "kind")
        assert arcs["of"] == ("case", "clothes")

    def test_agent_oblique(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["wizard"] == ("obl", "worn")
        assert arcs["by"] == ("case", "wizard")

    def test_relative_clause(self, tree):
        # the paper: "the acl edge connects from hanging to wizard"
        arcs = arcs_by_text(tree)
        assert arcs["hanging"] == ("acl:relcl", "wizard")
        assert arcs["who"] == ("nsubj", "hanging")

    def test_constraint_adverbs(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["most"] == ("advmod", "frequently")
        assert arcs["frequently"] == ("advmod", "hanging")

    def test_particle(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["out"] == ("compound:prt", "hanging")

    def test_possessive(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["Potter"] == ("nmod:poss", "girlfriend")
        assert arcs["'s"] == ("case", "Potter")
        assert arcs["Harry"] == ("compound", "Potter")

    def test_possessed_is_oblique_of_relative(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["girlfriend"] == ("obl", "hanging")


class TestJudgmentQuestion:
    QUESTION = "Does the dog that is holding the frisbee appear in front of the man?"

    @pytest.fixture(scope="class")
    def tree(self):
        return parse(self.QUESTION)

    def test_root(self, tree):
        assert tree.tokens[tree.root].text == "appear"

    def test_do_support(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["Does"] == ("aux", "appear")

    def test_subject_skips_relative_clause(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["dog"] == ("nsubj", "appear")

    def test_relative_object(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["frisbee"] == ("obj", "holding")
        assert arcs["holding"] == ("acl:relcl", "dog")

    def test_multiword_preposition_merged(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["in front of"] == ("case", "man")
        assert arcs["man"] == ("obl", "appear")


class TestCountingQuestion:
    QUESTION = "How many dogs are standing on the grass that is near the fence?"

    @pytest.fixture(scope="class")
    def tree(self):
        return parse(self.QUESTION)

    def test_root(self, tree):
        assert tree.tokens[tree.root].text == "standing"

    def test_how_many(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["How"] == ("advmod", "many")
        assert arcs["many"] == ("amod", "dogs")
        assert arcs["dogs"] == ("nsubj", "standing")

    def test_copular_relative(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["is"] == ("acl:relcl", "grass")
        assert arcs["fence"] == ("obl", "is")


class TestCopularQuestion:
    QUESTION = "Is the animal that is sitting on the sofa a cat?"

    @pytest.fixture(scope="class")
    def tree(self):
        return parse(self.QUESTION)

    def test_root_is_copula(self, tree):
        assert tree.tokens[tree.root].text == "Is"

    def test_subject(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["animal"] == ("nsubj", "Is")

    def test_attribute(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["cat"] == ("attr", "Is")

    def test_relative_not_stealing_attr(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["sofa"] == ("obl", "sitting")


class TestExistentialQuestion:
    QUESTION = "Is there a dog near the fence that is behind the house?"

    @pytest.fixture(scope="class")
    def tree(self):
        return parse(self.QUESTION)

    def test_expletive(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["there"] == ("expl", "Is")

    def test_subject(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["dog"] == ("nsubj", "Is")

    def test_nested_relative(self, tree):
        arcs = arcs_by_text(tree)
        assert arcs["house"] == ("obl", "is")


class TestReducedRelative:
    def test_reduced_relative_attaches_acl(self):
        tree = parse("Does the dog sitting on the sofa appear near the man?")
        arcs = arcs_by_text(tree)
        assert arcs["sitting"] == ("acl", "dog")
        assert arcs["dog"] == ("nsubj", "appear")


class TestTreeInvariants:
    QUESTIONS = [
        "What kind of animals is carried by the pets that were situated in the car?",
        "How many kinds of food are eaten by the animals that are standing on the beach?",
        "Does the dog that is holding the frisbee appear in front of the man?",
        "Is the animal that is sitting on the sofa a cat?",
        "Is there a dog near the fence?",
    ]

    @pytest.mark.parametrize("question", QUESTIONS)
    def test_single_root(self, question):
        tree = parse(question)
        assert tree.heads.count(-1) == 1

    @pytest.mark.parametrize("question", QUESTIONS)
    def test_no_cycles(self, question):
        tree = parse(question)
        for start in range(len(tree.tokens)):
            seen = set()
            current = start
            while current != -1:
                assert current not in seen
                seen.add(current)
                current = tree.heads[current]

    @pytest.mark.parametrize("question", QUESTIONS)
    def test_every_token_labeled(self, question):
        tree = parse(question)
        assert all(tree.labels)


class TestHelpers:
    def test_children_filtering(self):
        tree = parse("Does the dog appear near the man?")
        root = tree.root
        assert tree.child(root, "nsubj") is not None
        assert tree.children(root, "nonexistent") == []

    def test_subtree_text(self):
        tree = parse("What kind of clothes are worn by the wizard?")
        kind = next(i for i, t in enumerate(tree.tokens) if t.text == "kind")
        text = tree.text_of_subtree(kind, exclude_labels={"det"})
        assert text == "kind of clothes"


class TestFailureModes:
    def test_foreign_word_raises(self):
        # Fig. 8(a): "canis" tagged FW breaks the parse
        with pytest.raises(ParseError):
            parse("Does the kind of canis that is sitting on the bed "
                  "appear in front of the vehicle?")

    def test_no_verb_raises(self):
        with pytest.raises(ParseError):
            parse("the red dog")
