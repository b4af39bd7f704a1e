"""Morphology: lemmatization, noun number, and verb (de)inflection.

§IV-B of the paper normalizes extracted predicates — e.g. the passive
"are worn" becomes the simple present "wear" before entering the SPOC —
so the executor can match predicate labels in the merged graph whose
edges are stored in base form ("wearing"/"wear" variants collapse).
"""

from __future__ import annotations

from repro.nlp.lexicon import (
    AUX_DO,
    AUX_HAVE,
    BE_FORMS,
    NOUN_TABLE,
    VERB_TABLE,
    verb_form_index,
)


def _full_verb_index() -> dict[str, tuple[str, str]]:
    index = verb_form_index()
    for form, tag in BE_FORMS.items():
        index.setdefault(form, (tag, "be"))
    for form, tag in AUX_DO.items():
        index.setdefault(form, (tag, "do"))
    for form, tag in AUX_HAVE.items():
        index.setdefault(form, (tag, "have"))
    return index


_VERB_INDEX = _full_verb_index()
_PLURAL_TO_SINGULAR = {
    plural: singular for singular, plural in NOUN_TABLE.items()
}


def verb_lemma(word: str) -> str:
    """Base form of a verb (``worn`` -> ``wear``); unknown words get a
    suffix-stripping guess."""
    lowered = word.lower()
    if lowered in _VERB_INDEX:
        return _VERB_INDEX[lowered][1]
    return _strip_verb_suffix(lowered)


def _strip_verb_suffix(word: str) -> str:
    if word.endswith("ies") and len(word) > 4:
        return word[:-3] + "y"
    if word.endswith("ing") and len(word) > 4:
        stem = word[:-3]
        return _undouble(stem)
    if word.endswith("ed") and len(word) > 3:
        stem = word[:-2]
        return _undouble(stem)
    if word.endswith("es") and len(word) > 3:
        return word[:-2]
    if word.endswith("s") and len(word) > 2:
        return word[:-1]
    return word


def _undouble(stem: str) -> str:
    """sitt -> sit, runn -> run; leave 'watch' style stems alone."""
    if len(stem) >= 3 and stem[-1] == stem[-2] and stem[-1] not in "aeiou":
        return stem[:-1]
    return stem


def noun_singular(word: str) -> str:
    """Singular form of a noun (``animals`` -> ``animal``)."""
    lowered = word.lower()
    if lowered in _PLURAL_TO_SINGULAR:
        return _PLURAL_TO_SINGULAR[lowered]
    if lowered in NOUN_TABLE:
        return lowered
    if lowered.endswith("ies") and len(lowered) > 4:
        return lowered[:-3] + "y"
    if lowered.endswith(("ches", "shes", "sses", "xes")):
        return lowered[:-2]
    if lowered.endswith("s") and not lowered.endswith("ss") and len(lowered) > 2:
        return lowered[:-1]
    return lowered


def noun_plural(word: str) -> str:
    """Plural form of a noun (``man`` -> ``men``)."""
    lowered = word.lower()
    if lowered in NOUN_TABLE:
        return NOUN_TABLE[lowered]
    if lowered.endswith(("ch", "sh", "ss", "x", "s")):
        return lowered + "es"
    if lowered.endswith("y") and len(lowered) > 1 and lowered[-2] not in "aeiou":
        return lowered[:-1] + "ies"
    return lowered + "s"


def gerund(lemma: str) -> str:
    """Present participle of a verb lemma (``sit`` -> ``sitting``)."""
    lowered = lemma.lower()
    if lowered in VERB_TABLE:
        return VERB_TABLE[lowered][2]
    if lowered.endswith("e") and not lowered.endswith("ee"):
        return lowered[:-1] + "ing"
    return lowered + "ing"


def past_participle(lemma: str) -> str:
    """Past participle of a verb lemma (``wear`` -> ``worn``)."""
    lowered = lemma.lower()
    if lowered in VERB_TABLE:
        return VERB_TABLE[lowered][3]
    if lowered.endswith("e"):
        return lowered + "d"
    return lowered + "ed"


def normalize_predicate(words: list[str]) -> str:
    """Normalize a predicate word group to its active base form.

    This is the §IV-B voice normalization: ``["are", "worn"]`` becomes
    ``"wear"``; particles and prepositions that are part of a phrasal
    predicate are kept (``["is", "hanging", "out"]`` -> ``"hang out"``).

    >>> normalize_predicate(["are", "worn"])
    'wear'
    >>> normalize_predicate(["is", "hanging", "out", "with"])
    'hang out with'
    """
    content: list[str] = []
    for word in words:
        lowered = word.lower()
        entry = _VERB_INDEX.get(lowered)
        if entry is not None and entry[1] in {"be", "do", "have"}:
            continue  # auxiliary — drop
        if entry is not None:
            content.append(entry[1])
        elif lowered in {"not", "n't"}:
            continue
        elif _looks_like_verb(lowered) and not content:
            content.append(_strip_verb_suffix(lowered))
        else:
            content.append(lowered)
    if not content:
        return "be"
    return " ".join(content)


def _looks_like_verb(word: str) -> bool:
    return word.endswith(("ing", "ed", "en", "s"))
