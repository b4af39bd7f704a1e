"""Reference implementations the NLP substrate is tested against.

:class:`~repro.nlp.depparse.DependencyTree` indexes each head's
dependents once; the scans below over every arc are the oracle for
the differential tests in ``test_depparse_oracle.py``.  The score
memo (``repro.nlp.score_memo``) is fuzzed against the linear
:func:`rank_scores` scan, and the answer tests filter ``kind of``
labels with the lexicon's hypernym walk, :func:`is_kind_of`.
"""

import numpy as np

from repro.nlp.depparse import MULTIWORD_PREPOSITIONS
from repro.nlp.embeddings import phrase_vector
from repro.nlp.pos import TaggedToken
from repro.nlp.semlex import hypernym_chain


def rank_scores(query, candidates):
    """All candidates with similarities, best first (a linear scan)."""
    query_vec = phrase_vector(query)
    scored = [
        (c, float(np.dot(query_vec, phrase_vector(c)))) for c in candidates
    ]
    return sorted(scored, key=lambda cs: -cs[1])


def is_kind_of(child, ancestor):
    """Whether ``ancestor`` appears anywhere above ``child``."""
    return ancestor.lower() in hypernym_chain(child)


def children(tree, head, label=None):
    """Dependent indices of ``head``: a scan of every arc."""
    return [
        i for i, (h, lab) in enumerate(zip(tree.heads, tree.labels, strict=True))
        if h == head and (label is None or lab == label)
    ]


def subtree(tree, index):
    """All indices under ``index`` (sorted): every arc rescanned per node."""
    result = {index}
    frontier = [index]
    while frontier:
        current = frontier.pop()
        for i, head in enumerate(tree.heads):
            if head == current and i not in result:
                result.add(i)
                frontier.append(i)
    return sorted(result)


def text_of_subtree(tree, index, exclude_labels=frozenset(),
                    exclude_direct=frozenset()):
    """Surface text of a subtree, computing the subtree twice."""
    excluded = set()
    for i in subtree(tree, index):
        if i == index or i in excluded:
            continue
        label = tree.labels[i]
        if label in exclude_labels or (
            label in exclude_direct and tree.heads[i] == index
        ):
            excluded.update(subtree(tree, i))
    words = []
    for i in subtree(tree, index):
        if i in excluded or tree.tokens[i].tag in {".", ",", ":"}:
            continue
        words.append(tree.tokens[i].text)
    return " ".join(words)


def merge_multiword_prepositions(tagged):
    """Phase 1 of the parser, lowercasing each token once per pattern."""
    merged = []
    i = 0
    while i < len(tagged):
        hit = None
        for mwe in MULTIWORD_PREPOSITIONS:
            span = tagged[i:i + len(mwe)]
            if len(span) == len(mwe) and all(
                t.lower == w for t, w in zip(span, mwe, strict=True)
            ):
                hit = mwe
                break
        if hit is not None:
            text = " ".join(t.text for t in tagged[i:i + len(hit)])
            merged.append(TaggedToken(len(merged), text, "IN", text.lower()))
            i += len(hit)
        else:
            old = tagged[i]
            merged.append(TaggedToken(len(merged), old.text, old.tag, old.lemma))
            i += 1
    return merged
