"""Dependency parser producing Universal-Dependencies-style trees.

The paper parses questions with the Stanford neural transition parser
(Eq. 5).  This substitution is a deterministic *rule-cascade* parser
specialized for the English question grammar SVQA manipulates: WH
questions, passives, relative clauses (full and reduced), possessives,
"of"-chains, multiword prepositions, and adverbial constraints.  It
emits the same UD labels §IV-B consumes — ``nsubj``, ``nsubj:pass``,
``obj``, ``obl``, ``nmod``, ``nmod:poss``, ``case``, ``acl``,
``acl:relcl``, ``aux``, ``aux:pass``, ``cop``, ``det``, ``amod``,
``advmod``, ``compound``, ``compound:prt``, ``expl``, ``attr``,
``punct``, ``root``.

Parsing proceeds in phases:

1. merge multiword prepositions ("in front of" -> one IN node);
2. chunk noun phrases (determiner/adjective/noun spans, "of"-chains,
   possessives, proper-name compounds);
3. find verb groups (auxiliary + adverb + verb sequences, particles,
   passive detection);
4. attach: relative clauses first (consuming their complements), then
   the main clause (subject, object, obliques), with copular and
   existential questions special-cased.

A tree is always returned for inputs the grammar covers; questions
outside it (or containing FW-tagged foreign words in head positions)
raise :class:`repro.errors.ParseError` — the same observable failure
as Fig. 8(a).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ParseError
from repro.nlp.pos import TaggedToken, tag

NOUN_TAGS = {"NN", "NNS", "NNP", "NNPS"}
ADJ_TAGS = {"JJ", "JJR", "JJS", "CD"}
VERB_TAGS = {"VB", "VBZ", "VBP", "VBG", "VBN", "VBD"}
RELATIVIZERS = {"who", "that", "which", "whom"}
_PUNCT_TAGS = frozenset({".", ",", ":"})

#: multiword prepositions merged into a single IN node before chunking
MULTIWORD_PREPOSITIONS = (
    ("in", "front", "of"),
    ("on", "top", "of"),
    ("next", "to"),
    ("close", "to"),
    ("out", "of"),
)


@dataclass
class DependencyTree:
    """A parsed question: tokens plus a head/label arc per token.

    ``heads[i]`` is the token index of ``i``'s head, or ``-1`` for the
    root.  Exactly one root exists and the arcs form a tree.  Trees
    are not mutated after construction: the per-head dependents index
    is built once, so ``children`` and ``subtree`` cost the size of
    their answer rather than a scan of every arc.
    """

    tokens: list[TaggedToken]
    heads: list[int]
    labels: list[str]
    _dependents: dict[int, list[int]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._dependents = {}
        for i, head in enumerate(self.heads):
            self._dependents.setdefault(head, []).append(i)

    @property
    def root(self) -> int:
        return self.heads.index(-1)

    def children(self, head: int, label: str | None = None) -> list[int]:
        """Dependent indices of ``head`` (optionally filtered by label)."""
        deps = self._dependents.get(head, [])
        if label is None:
            return list(deps)
        return [i for i in deps if self.labels[i] == label]

    def child(self, head: int, label: str) -> int | None:
        """First dependent with ``label``, or None."""
        for i in self._dependents.get(head, ()):
            if self.labels[i] == label:
                return i
        return None

    def word(self, index: int) -> str:
        return self.tokens[index].text

    def subtree(self, index: int) -> list[int]:
        """All indices in the subtree rooted at ``index`` (sorted)."""
        result = [index]
        frontier = [index]
        while frontier:
            deps = self._dependents.get(frontier.pop(), ())
            result.extend(deps)
            frontier.extend(deps)
        return sorted(result)

    def text_of_subtree(
        self,
        index: int,
        exclude_labels: set[str] = frozenset(),
        exclude_direct: set[str] = frozenset(),
    ) -> str:
        """Surface text of a subtree.

        ``exclude_labels`` drops any descendant carrying the label
        *together with its whole subtree*; ``exclude_direct`` does the
        same but only for direct children of ``index`` (e.g. drop the
        head's own case marker while keeping a nested "of").
        """
        nodes = self.subtree(index)
        excluded: set[int] = set()
        for i in nodes:
            if i == index or i in excluded:
                continue
            label = self.labels[i]
            if label in exclude_labels or (
                label in exclude_direct and self.heads[i] == index
            ):
                excluded.update(self.subtree(i))
        return " ".join(
            self.tokens[i].text for i in nodes
            if i not in excluded and self.tokens[i].tag not in _PUNCT_TAGS
        )


@dataclass
class NounPhrase:
    """A chunked noun phrase: token span plus its head index."""

    start: int
    end: int  # exclusive
    head: int
    of_heads: list[int] = field(default_factory=list)  # heads of "of"-chained NPs

    def covers(self, index: int) -> bool:
        return self.start <= index < self.end


@dataclass
class VerbGroup:
    """A verb group: auxiliaries + adverbs + main verb (+ particle)."""

    start: int
    end: int  # exclusive
    main: int
    auxiliaries: list[int] = field(default_factory=list)
    adverbs: list[int] = field(default_factory=list)
    particles: list[int] = field(default_factory=list)
    passive: bool = False
    relativizer: int | None = None  # index of who/that/which, if any
    reduced_anchor: int | None = None  # NP head for reduced relatives


class _ArcSet:
    """Accumulates arcs while the parser runs."""

    def __init__(self, n: int) -> None:
        self.heads = [None] * n
        self.labels = [None] * n

    def attach(self, dep: int, head: int, label: str) -> None:
        if self.heads[dep] is not None:
            return  # first attachment wins
        self.heads[dep] = head
        self.labels[dep] = label

    def attached(self, dep: int) -> bool:
        return self.heads[dep] is not None


def parse(question: str) -> DependencyTree:
    """Tokenize, tag, and parse a question into a dependency tree."""
    return parse_tagged(tag(question))


def parse_tagged(tagged: list[TaggedToken]) -> DependencyTree:
    """Parse an already-tagged token sequence."""
    tokens = _merge_multiword_prepositions(tagged)
    _reject_foreign_heads(tokens)
    noun_phrases = _chunk_noun_phrases(tokens)
    verb_groups = _find_verb_groups(tokens, noun_phrases)
    return _attach(tokens, noun_phrases, verb_groups)


# ---------------------------------------------------------------------------
# phase 1: multiword prepositions
# ---------------------------------------------------------------------------

def _merge_multiword_prepositions(tagged: list[TaggedToken]) -> list[TaggedToken]:
    merged: list[TaggedToken] = []
    lowered = [t.lower for t in tagged]
    i = 0
    while i < len(tagged):
        hit = None
        for mwe in MULTIWORD_PREPOSITIONS:
            if tuple(lowered[i:i + len(mwe)]) == mwe:
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


def _reject_foreign_heads(tokens: list[TaggedToken]) -> None:
    """FW words in noun positions break the parse, as in Fig. 8(a)."""
    for i, token in enumerate(tokens):
        if token.tag != "FW":
            continue
        prev = tokens[i - 1] if i > 0 else None
        if prev is not None and (prev.tag in {"DT", "IN", "POS"} or
                                 prev.tag in ADJ_TAGS):
            raise ParseError(
                f"cannot parse: unknown foreign word {token.text!r} "
                f"in a noun position (POS tag FW)",
                term=token.text,
            )


# ---------------------------------------------------------------------------
# phase 2: noun-phrase chunking
# ---------------------------------------------------------------------------

def _chunk_noun_phrases(tokens: list[TaggedToken]) -> list[NounPhrase]:
    phrases: list[NounPhrase] = []
    i = 0
    n = len(tokens)
    while i < n:
        start = i
        # optional WH determiner ("what kind", "which dog", "how many dogs")
        if tokens[i].lower in {"what", "which"} and i + 1 < n and (
            tokens[i + 1].tag in NOUN_TAGS or tokens[i + 1].tag in ADJ_TAGS
        ):
            i += 1
        elif tokens[i].lower == "how" and i + 1 < n and \
                tokens[i + 1].lower in {"many", "much"}:
            i += 2
        # optional determiner
        if i < n and tokens[i].tag == "DT":
            i += 1
        # adjectives / numbers
        while i < n and tokens[i].tag in ADJ_TAGS:
            i += 1
        # noun head sequence
        noun_start = i
        while i < n and tokens[i].tag in NOUN_TAGS:
            i += 1
        if i == noun_start:
            i = start + 1
            continue
        head = i - 1  # last noun of the sequence heads the compound
        phrase = NounPhrase(start, i, head)
        # possessive: NP + 's + NP  -> continue, the possessed NP heads
        if i + 1 < n and tokens[i].tag == "POS":
            possessed = _chunk_single_np(tokens, i + 1)
            if possessed is not None:
                phrase = NounPhrase(start, possessed.end, possessed.head,
                                    of_heads=[head])
                i = possessed.end
        # "of"-chain: kind of clothes; attach chained heads
        while i + 1 < len(tokens) and tokens[i].lower == "of":
            chained = _chunk_single_np(tokens, i + 1)
            if chained is None:
                break
            phrase.of_heads.append(chained.head)
            phrase = NounPhrase(phrase.start, chained.end, phrase.head,
                                of_heads=phrase.of_heads)
            i = chained.end
        phrases.append(phrase)
    return phrases


def _chunk_single_np(tokens: list[TaggedToken], start: int) -> NounPhrase | None:
    """A single NP (no of-chain) beginning at ``start``, or None."""
    i = start
    n = len(tokens)
    if i < n and tokens[i].tag == "DT":
        i += 1
    while i < n and tokens[i].tag in ADJ_TAGS:
        i += 1
    noun_start = i
    while i < n and tokens[i].tag in NOUN_TAGS:
        i += 1
    if i == noun_start:
        return None
    return NounPhrase(start, i, i - 1)


# ---------------------------------------------------------------------------
# phase 3: verb groups
# ---------------------------------------------------------------------------

_AUX_LEMMAS = {"be", "do", "have"}


def _find_verb_groups(
    tokens: list[TaggedToken], noun_phrases: list[NounPhrase]
) -> list[VerbGroup]:
    covered = set()
    for np in noun_phrases:
        covered.update(range(np.start, np.end))

    groups: list[VerbGroup] = []
    i = 0
    n = len(tokens)
    while i < n:
        token = tokens[i]
        if i in covered or token.tag not in VERB_TAGS and token.tag != "MD":
            i += 1
            continue
        start = i
        auxiliaries: list[int] = []
        adverbs: list[int] = []
        # leading auxiliaries / modals / adverbs
        while i < n and (
            tokens[i].tag == "MD"
            or (tokens[i].lemma in _AUX_LEMMAS and _has_later_verb(tokens, i, covered))
            or tokens[i].tag in {"RB", "RBS"}
        ):
            if tokens[i].tag in {"RB", "RBS"}:
                adverbs.append(i)
            else:
                auxiliaries.append(i)
            i += 1
        if i >= n or tokens[i].tag not in VERB_TAGS or i in covered:
            # bare auxiliary (copula or do-support with distant verb)
            if auxiliaries:
                main = auxiliaries[-1]
                groups.append(VerbGroup(start, main + 1, main,
                                        auxiliaries[:-1], adverbs))
            i = max(i, start + 1)
            continue
        main = i
        i += 1
        particles: list[int] = []
        # verb particle: IN immediately after verb, followed by another IN
        # ("hanging out with") or clause end — a true preposition would be
        # followed by its NP instead.
        if i < n and tokens[i].tag == "IN" and (
            i + 1 >= n or tokens[i + 1].tag in {"IN", "."}
        ):
            particles.append(i)
            i += 1
        passive = tokens[main].tag == "VBN" and any(
            tokens[a].lemma == "be" for a in auxiliaries
        )
        groups.append(VerbGroup(start, i, main, auxiliaries, adverbs,
                                particles, passive))
    _mark_relatives(tokens, noun_phrases, groups)
    return groups


def _has_later_verb(tokens: list[TaggedToken], i: int, covered: set[int]) -> bool:
    """Whether an auxiliary at ``i`` is followed by a content verb within
    its own group (adverbs may intervene)."""
    j = i + 1
    while j < len(tokens) and tokens[j].tag in {"RB", "RBS"}:
        j += 1
    return j < len(tokens) and tokens[j].tag in VERB_TAGS and j not in covered


def _mark_relatives(
    tokens: list[TaggedToken],
    noun_phrases: list[NounPhrase],
    groups: list[VerbGroup],
) -> None:
    np_heads = [np.head for np in noun_phrases]
    all_of_heads = {h for np in noun_phrases for h in np.of_heads}
    for group in groups:
        before = group.start - 1
        # skip adverbs directly before the group start (already inside)
        if before >= 0 and tokens[before].lower in RELATIVIZERS and \
                tokens[before].tag in {"WP", "WDT"}:
            group.relativizer = before
        elif tokens[group.main].tag == "VBG" and not group.auxiliaries:
            # reduced relative: "the dog sitting on the sofa"
            anchor = _nearest_np_head_before(group.start, np_heads,
                                             all_of_heads)
            if anchor is not None:
                group.reduced_anchor = anchor


def _nearest_np_head_before(
    position: int, np_heads: list[int], of_heads: set[int]
) -> int | None:
    candidates = [h for h in np_heads if h < position]
    of_candidates = [h for h in of_heads if h < position]
    pool = candidates + of_candidates
    return max(pool) if pool else None


# ---------------------------------------------------------------------------
# phase 4: attachment
# ---------------------------------------------------------------------------

def _attach(
    tokens: list[TaggedToken],
    noun_phrases: list[NounPhrase],
    groups: list[VerbGroup],
) -> DependencyTree:
    n = len(tokens)
    arcs = _ArcSet(n)
    consumed_nps: set[int] = set()  # indices into noun_phrases

    _attach_np_internal(tokens, noun_phrases, arcs)

    relative_groups = [g for g in groups
                       if g.relativizer is not None or g.reduced_anchor is not None]
    main_groups = [g for g in groups
                   if g.relativizer is None and g.reduced_anchor is None]

    np_by_head = {np.head: i for i, np in enumerate(noun_phrases)}

    for group in relative_groups:
        _attach_verb_group_internal(tokens, group, arcs)
        if group.relativizer is not None:
            anchor = _nearest_np_head_before(
                group.relativizer,
                [np.head for np in noun_phrases],
                {h for np in noun_phrases for h in np.of_heads},
            )
            if anchor is None:
                raise ParseError(
                    f"relative clause at {tokens[group.main].text!r} "
                    "has no noun to attach to",
                    term=tokens[group.main].text,
                )
            arcs.attach(group.main, anchor, "acl:relcl")
            label = "nsubj:pass" if group.passive else "nsubj"
            arcs.attach(group.relativizer, group.main, label)
        else:
            arcs.attach(group.main, group.reduced_anchor, "acl")
        _attach_complements(tokens, noun_phrases, np_by_head, group, arcs,
                            consumed_nps, groups)

    tree_root = _attach_main_clause(tokens, noun_phrases, np_by_head,
                                    main_groups, groups, arcs, consumed_nps)

    # punctuation and stragglers
    for i in range(n):
        if not arcs.attached(i) and i != tree_root:
            label = "punct" if tokens[i].is_punct else "dep"
            arcs.attach(i, tree_root, label)

    heads = [h if h is not None else -1 for h in arcs.heads]
    heads[tree_root] = -1
    labels = [lab if lab is not None else "dep" for lab in arcs.labels]
    labels[tree_root] = "root"
    _validate_tree(heads)
    return DependencyTree(tokens, heads, labels)


def _attach_np_internal(
    tokens: list[TaggedToken], noun_phrases: list[NounPhrase], arcs: _ArcSet
) -> None:
    for np in noun_phrases:
        segment_heads = _np_segment_heads(tokens, np)
        primary = np.head
        for i in range(np.start, np.end):
            if i == primary or arcs.attached(i):
                continue
            token = tokens[i]
            local_head = _local_segment_head(i, segment_heads)
            if token.tag == "DT" or token.lower in {"what", "which"}:
                arcs.attach(i, local_head, "det")
            elif token.lower == "how":
                continue  # attaches to "many" below
            elif token.lower in {"many", "much"}:
                arcs.attach(i, local_head, "amod")
                if i > 0 and tokens[i - 1].lower == "how":
                    arcs.attach(i - 1, i, "advmod")
            elif token.tag in ADJ_TAGS:
                arcs.attach(i, local_head, "amod")
            elif token.tag in NOUN_TAGS and i < local_head:
                arcs.attach(i, local_head, "compound")
            elif token.lower == "of":
                nxt = _next_segment_head(i, segment_heads)
                arcs.attach(i, nxt if nxt is not None else local_head, "case")
            elif token.tag == "POS":
                # "'s" marks the possessor: case on the preceding head
                arcs.attach(i, _local_segment_head(i - 1, segment_heads),
                            "case")
        # of-chain / possessive links between segment heads
        if np.of_heads:
            if np.start <= np.of_heads[0] < np.head and \
                    tokens[np.of_heads[0] + 1].tag == "POS":
                # possessive: possessor -> nmod:poss of possessed head
                arcs.attach(np.of_heads[0], np.head, "nmod:poss")
                remaining = np.of_heads[1:]
            else:
                remaining = np.of_heads
            previous = np.head
            for chained in remaining:
                arcs.attach(chained, previous, "nmod")
                previous = chained


def _np_segment_heads(tokens: list[TaggedToken], np: NounPhrase) -> list[int]:
    """All segment heads of an NP in order (primary + of/poss chain)."""
    heads = sorted({np.head, *np.of_heads})
    return heads


def _local_segment_head(i: int, segment_heads: list[int]) -> int:
    """The segment head governing position ``i`` (nearest head >= i,
    else the last head)."""
    for head in segment_heads:
        if head >= i:
            return head
    return segment_heads[-1]


def _next_segment_head(i: int, segment_heads: list[int]) -> int | None:
    for head in segment_heads:
        if head > i:
            return head
    return None


def _attach_verb_group_internal(
    tokens: list[TaggedToken], group: VerbGroup, arcs: _ArcSet
) -> None:
    main = group.main
    for aux in group.auxiliaries:
        label = "aux:pass" if group.passive and tokens[aux].lemma == "be" \
            else "aux"
        arcs.attach(aux, main, label)
    previous_adverb: int | None = None
    for adv in group.adverbs:
        if tokens[adv].tag == "RBS" and previous_adverb is None:
            # "most frequently": most -> advmod of frequently
            nxt = adv + 1
            if nxt < len(tokens) and tokens[nxt].tag in {"RB", "JJ"}:
                arcs.attach(adv, nxt, "advmod")
                previous_adverb = adv
                continue
        arcs.attach(adv, main, "advmod")
        previous_adverb = adv
    for particle in group.particles:
        arcs.attach(particle, main, "compound:prt")


def _attach_complements(
    tokens: list[TaggedToken],
    noun_phrases: list[NounPhrase],
    np_by_head: dict[int, int],
    group: VerbGroup,
    arcs: _ArcSet,
    consumed_nps: set[int],
    all_groups: list[VerbGroup],
) -> None:
    """Attach NPs/PPs right after a verb group as its obj/obl."""
    group_starts = {g.start for g in all_groups if g is not group}
    position = group.end
    n = len(tokens)
    saw_complement = False
    while position < n:
        if position in group_starts or tokens[position].lower in RELATIVIZERS:
            break
        token = tokens[position]
        if token.tag == "IN":
            np = _np_starting_at(noun_phrases, position + 1)
            if np is None:
                break
            arcs.attach(token.index, np.head, "case")
            arcs.attach(np.head, group.main, "obl")
            consumed_nps.add(np_by_head[np.head])
            position = np.end
            saw_complement = True
        elif token.tag in NOUN_TAGS or token.tag == "DT" or \
                token.tag in ADJ_TAGS:
            if saw_complement:
                # a bare NP after a PP is not this verb's object (it
                # belongs to the enclosing clause, e.g. the "a cat" of
                # "Is the X that is sitting on the sofa a cat?")
                break
            np = _np_starting_at(noun_phrases, position)
            if np is None:
                break
            arcs.attach(np.head, group.main, "obj")
            consumed_nps.add(np_by_head[np.head])
            position = np.end
            saw_complement = True
        else:
            break


def _np_starting_at(noun_phrases: list[NounPhrase], position: int) -> NounPhrase | None:
    for np in noun_phrases:
        if np.start == position:
            return np
    return None


def _attach_main_clause(
    tokens: list[TaggedToken],
    noun_phrases: list[NounPhrase],
    np_by_head: dict[int, int],
    main_groups: list[VerbGroup],
    all_groups: list[VerbGroup],
    arcs: _ArcSet,
    consumed_nps: set[int],
) -> int:
    if not main_groups:
        raise ParseError("no main verb found in question")

    # do-support / copular questions start with a bare auxiliary group
    first = main_groups[0]
    content_groups = [
        g for g in main_groups
        if tokens[g.main].lemma not in _AUX_LEMMAS
    ]

    if content_groups:
        main = content_groups[0]
        root = main.main
        _attach_verb_group_internal(tokens, main, arcs)
        # clause-initial bare auxiliary ("Does ... appear") -> aux of root
        if first is not main and tokens[first.main].lemma in _AUX_LEMMAS:
            arcs.attach(first.main, root, "aux")
            for aux in first.auxiliaries:
                arcs.attach(aux, root, "aux")
        subject = _find_subject(tokens, noun_phrases, np_by_head, main,
                                arcs, consumed_nps)
        if subject is not None:
            label = "nsubj:pass" if main.passive else "nsubj"
            arcs.attach(subject, root, label)
        _attach_complements(tokens, noun_phrases, np_by_head, main, arcs,
                            consumed_nps, all_groups)
        # trailing conjunct main groups (rare) -> conj
        for extra in content_groups[1:]:
            _attach_verb_group_internal(tokens, extra, arcs)
            arcs.attach(extra.main, root, "conj")
            _attach_complements(tokens, noun_phrases, np_by_head, extra,
                                arcs, consumed_nps, all_groups)
        return root

    # no content verb in the main clause: copular or existential question
    cop = first.main
    _attach_verb_group_internal(tokens, first, arcs)
    after = cop + 1
    if after < len(tokens) and tokens[after].tag == "EX":
        # "Is there a dog near the fence?"
        arcs.attach(after, cop, "expl")
        np = _next_unconsumed_np(noun_phrases, np_by_head, after + 1,
                                 consumed_nps)
        if np is not None:
            arcs.attach(np.head, cop, "nsubj")
            consumed_nps.add(np_by_head[np.head])
        _attach_complements(
            tokens, noun_phrases, np_by_head,
            VerbGroup(first.start, np.end if np else after + 1, cop),
            arcs, consumed_nps, all_groups,
        )
        return cop

    # copular main clause: two word orders occur in the grammar —
    # subject-before-copula ("How many kinds of animals ARE near the
    # fence?") and inverted yes/no ("IS the animal ... a cat?")
    before = [
        (i, np) for i, np in enumerate(noun_phrases)
        if np.head < cop and i not in consumed_nps
        and not arcs.attached(np.head)
    ]
    if before:
        index, subj_np = before[-1]
        arcs.attach(subj_np.head, cop, "nsubj")
        consumed_nps.add(index)
        _attach_complements(tokens, noun_phrases, np_by_head,
                            VerbGroup(first.start, first.end, cop),
                            arcs, consumed_nps, all_groups)
        return cop
    subj_np = _next_unconsumed_np(noun_phrases, np_by_head, after,
                                  consumed_nps)
    if subj_np is None:
        raise ParseError("copular question without a subject")
    arcs.attach(subj_np.head, cop, "nsubj")
    consumed_nps.add(np_by_head[subj_np.head])
    attr_np = _next_unconsumed_np(noun_phrases, np_by_head, subj_np.end,
                                  consumed_nps)
    if attr_np is not None:
        arcs.attach(attr_np.head, cop, "attr")
        consumed_nps.add(np_by_head[attr_np.head])
    return cop


def _next_unconsumed_np(
    noun_phrases: list[NounPhrase],
    np_by_head: dict[int, int],
    position: int,
    consumed_nps: set[int],
) -> NounPhrase | None:
    """The first unconsumed NP starting at or after ``position``."""
    for np in noun_phrases:
        if np.start >= position and np_by_head[np.head] not in consumed_nps:
            return np
    return None


def _find_subject(
    tokens: list[TaggedToken],
    noun_phrases: list[NounPhrase],
    np_by_head: dict[int, int],
    group: VerbGroup,
    arcs: _ArcSet,
    consumed_nps: set[int],
) -> int | None:
    """The subject NP head: last unconsumed, unattached NP before the verb."""
    candidates = [
        (i, np) for i, np in enumerate(noun_phrases)
        if np.head < group.start and i not in consumed_nps
        and not arcs.attached(np.head)
    ]
    if not candidates:
        return None
    index, np = candidates[-1]
    consumed_nps.add(index)
    return np.head


def _validate_tree(heads: list[int]) -> None:
    roots = [i for i, h in enumerate(heads) if h == -1]
    if len(roots) != 1:
        raise ParseError(f"parse produced {len(roots)} roots, expected 1")
    # cycle check: walk up from each node
    for start in range(len(heads)):
        seen = set()
        current = start
        while current != -1:
            if current in seen:
                raise ParseError("parse produced a cycle")
            seen.add(current)
            current = heads[current]
