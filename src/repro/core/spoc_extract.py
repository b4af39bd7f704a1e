"""SPOC extraction: clause -> [c_s, c_p, c_o, c_c] (§IV-B, step 2).

The extractor is a small state machine over the clause's dependency
arcs:

1. the clause head's verb group (auxiliaries, particles) forms the raw
   predicate;
2. ``nsubj``/``nsubj:pass`` gives the surface subject, ``obj``/``obl``
   the surface object(s);
3. passives are voice-normalized ("are worn by the wizard" becomes
   subject=wizard, predicate=wear, object=<surface subject>), exactly
   as Example 4 converts *are worn* to *wear*;
4. relative pronouns ("who"/"that") are replaced by their antecedent
   noun through the ``acl`` link, per the paper's cross-sentence
   reference rule;
5. superlative adverbials ("most frequently") become the constraint
   ``c_c``;
6. the WH phrase marks the answer slot, and the main clause's shape
   decides the question type (judgment / counting / reasoning).
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import QueryParseError
from repro.nlp.depparse import DependencyTree
from repro.nlp.morphology import normalize_predicate, noun_singular
from repro.core.clauses import Clause
from repro.core.spoc import QuestionType, SPOC, Term

_KIND_WORDS = {"kind", "type", "sort"}
_RELATIVE_PRONOUNS = {"who", "that", "which", "whom"}

#: the predefined constraint word set S of Algorithm 3 (from [35])
CONSTRAINT_WORDS: tuple[str, ...] = (
    "most frequently",
    "least frequently",
    "most",
    "least",
)


def extract_spoc(
    tree: DependencyTree, clause: Clause, clause_index: int
) -> SPOC:
    """Extract the SPOC of one clause."""
    head = clause.head
    is_copular = tree.tokens[head].lemma == "be"

    subject_index = _child_any(tree, head, ("nsubj", "nsubj:pass"))
    object_index = _child_any(tree, head, ("obj", "attr"))
    obliques = tree.children(head, "obl")

    passive = (
        _child_any(tree, head, ("aux:pass",)) is not None
        or (subject_index is not None
            and tree.labels[subject_index] == "nsubj:pass")
    )

    subject_term = _build_term(tree, subject_index, clause)
    object_term = _build_term(tree, object_index, clause)

    predicate_words = _predicate_words(tree, head)
    oblique_used: int | None = None

    if passive:
        agent = _oblique_with_case(tree, obliques, "by")
        if agent is not None:
            # voice normalization: the by-agent becomes the subject,
            # the surface subject becomes the object
            object_term = subject_term
            subject_term = _build_term(tree, agent, clause)
            oblique_used = agent
        # agentless passive ("pets that were situated in the car"):
        # keep the surface subject; the PP becomes the object below
    if object_term is None:
        # intransitive with a PP: fold the preposition into the
        # predicate ("sit on", "appear in front of", "be near")
        remaining = [o for o in obliques if o != oblique_used]
        if remaining:
            oblique = remaining[0]
            case = tree.child(oblique, "case")
            if case is not None:
                predicate_words.append(tree.tokens[case].lemma)
            object_term = _build_term(tree, oblique, clause)

    predicate = normalize_predicate(predicate_words)
    if is_copular and predicate == "be" and object_term is not None \
            and _child_any(tree, head, ("attr",)) is None:
        # copular relative like "that is near the fence": the
        # preposition IS the predicate
        case_words = [w for w in predicate_words if w not in {"be"}]
        if case_words:
            predicate = " ".join(case_words)

    constraint = _extract_constraint(tree, head)

    spoc = SPOC(
        subject=subject_term,
        predicate=predicate,
        object=object_term,
        constraint=constraint,
        clause_index=clause_index,
        depth=clause.depth,
        is_main=clause.is_main,
        source_text=tree.text_of_subtree(head),
    )
    if not clause.is_main:
        return replace(spoc, answer_role="subject")
    question_type, answer_role = _classify_question(tree, spoc)
    return replace(spoc, question_type=question_type,
                   answer_role=answer_role)


# ---------------------------------------------------------------------------
# term construction
# ---------------------------------------------------------------------------

def _build_term(
    tree: DependencyTree, index: int | None, clause: Clause
) -> Term | None:
    if index is None:
        return None
    token = tree.tokens[index]

    # relative pronoun -> antecedent replacement (the acl rule)
    if token.lower in _RELATIVE_PRONOUNS and clause.antecedent is not None:
        return _build_term(tree, clause.antecedent, clause)

    # "kind of X": the nmod child is the real head
    kind_of = False
    head_index = index
    if token.lemma in _KIND_WORDS:
        nmod = tree.child(index, "nmod")
        if nmod is not None:
            kind_of = True
            head_index = nmod

    head_token = tree.tokens[head_index]
    is_wh = _has_wh_marker(tree, index)

    owner = None
    poss = tree.child(head_index, "nmod:poss")
    if poss is not None:
        owner = _name_of(tree, poss)

    text = tree.text_of_subtree(
        index,
        exclude_labels={"acl", "acl:relcl", "nmod:poss"},
        exclude_direct={"det", "case", "advmod"},
    )
    if head_token.tag in {"NNP", "NNPS"}:
        head = _name_of(tree, head_index)  # keep proper names verbatim
    else:
        head = noun_singular(head_token.lemma)
    return Term(text=text, head=head, kind_of=kind_of, owner=owner,
                is_wh=is_wh)


def _name_of(tree: DependencyTree, index: int) -> str:
    """A proper-name head with its compound parts ("Harry Potter")."""
    parts = [tree.tokens[i].text
             for i in sorted(tree.children(index, "compound")) + [index]]
    return " ".join(parts)


def _has_wh_marker(tree: DependencyTree, index: int) -> bool:
    for child in tree.children(index):
        token = tree.tokens[child]
        if token.tag in {"WP", "WDT"} and token.lower in {"what", "which"}:
            return True
        if tree.labels[child] == "amod" and token.lower in {"many", "much"}:
            grand = tree.children(child, "advmod")
            if grand and tree.tokens[grand[0]].lower == "how":
                return True
    return False


# ---------------------------------------------------------------------------
# predicate / constraint helpers
# ---------------------------------------------------------------------------

def _predicate_words(tree: DependencyTree, head: int) -> list[str]:
    indices = [head]
    for child in tree.children(head):
        if tree.labels[child] in {"aux", "aux:pass", "compound:prt"}:
            indices.append(child)
    return [tree.tokens[i].text for i in sorted(indices)]


def _extract_constraint(tree: DependencyTree, head: int) -> str | None:
    for adv in tree.children(head, "advmod"):
        token = tree.tokens[adv]
        inner = tree.children(adv, "advmod")
        if inner and tree.tokens[inner[0]].tag == "RBS":
            return f"{tree.tokens[inner[0]].lower} {token.lower}"
        if token.tag == "RBS":
            return token.lower
    return None


def _child_any(
    tree: DependencyTree, head: int, labels: tuple[str, ...]
) -> int | None:
    for label in labels:
        child = tree.child(head, label)
        if child is not None:
            return child
    return None


def _oblique_with_case(
    tree: DependencyTree, obliques: list[int], case: str
) -> int | None:
    for oblique in obliques:
        case_child = tree.child(oblique, "case")
        if case_child is not None and tree.tokens[case_child].lower == case:
            return oblique
    return None


# ---------------------------------------------------------------------------
# question typing
# ---------------------------------------------------------------------------

def _classify_question(
    tree: DependencyTree, spoc: SPOC
) -> tuple[QuestionType, str]:
    """Question type + answer slot of the main clause."""
    for role in ("subject", "object"):
        term = spoc.slot(role)
        if term is not None and term.is_wh:
            # WH slot present: counting if "how many", else reasoning
            if _wh_is_counting(tree, spoc, role):
                return QuestionType.COUNTING, role
            return QuestionType.REASONING, role
    # no WH phrase: yes/no question
    return QuestionType.JUDGMENT, "subject"


def _wh_is_counting(tree: DependencyTree, spoc: SPOC, role: str) -> bool:
    """Distinguish "how many dogs ..." from "what kind of ..."."""
    for index, token in enumerate(tree.tokens):
        if token.lower == "how":
            nxt = index + 1
            if nxt < len(tree.tokens) and \
                    tree.tokens[nxt].lower in {"many", "much"}:
                return True
    return False


def validate_spoc(spoc: SPOC) -> None:
    """Reject degenerate SPOCs early with a clear, attributable error.

    The raised :class:`~repro.errors.QueryParseError` carries the
    clause index and the offending clause text as structured
    attributes, so Fig. 8(a)-style failures point at a specific
    clause.
    """
    if spoc.subject is None and spoc.object is None:
        raise QueryParseError(
            f"clause {spoc.clause_index} has neither subject nor object: "
            f"{spoc.source_text!r}",
            clause_index=spoc.clause_index,
            term=spoc.source_text,
        )
    if not spoc.predicate:
        raise QueryParseError(
            f"clause {spoc.clause_index} has no predicate: "
            f"{spoc.source_text!r}",
            clause_index=spoc.clause_index,
            term=spoc.source_text,
        )
