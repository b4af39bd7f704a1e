"""SPOC quadruples and query terms (§II, §IV).

A complex query decomposes into clauses; each clause reduces to a SPOC
— subject, predicate, object, constraint.  Subjects and objects are
:class:`Term` values: a head noun plus the structure ``matchVertex``
needs (is it a "kind of X" phrase? does it have a possessive owner?).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class QuestionType(str, Enum):
    """The three MVQA answer types (§V, §VI)."""

    JUDGMENT = "judgment"
    COUNTING = "counting"
    REASONING = "reasoning"


@dataclass(frozen=True)
class Term:
    """A subject/object slot of a SPOC.

    Attributes
    ----------
    text:
        Full surface text of the noun phrase ("kind of clothes").
    head:
        The lemmatized main noun ("clothes"); for possessives, the
        possessed relation noun ("girlfriend").
    kind_of:
        True for "kind/type/sort of X" phrases — the executor resolves
        these through the knowledge graph's ``is a`` hierarchy.
    owner:
        The possessor for possessive phrases ("Harry Potter").
    is_wh:
        True when this slot holds the question word (the answer slot).
    """

    text: str
    head: str
    kind_of: bool = False
    owner: str | None = None
    is_wh: bool = False

    def __str__(self) -> str:
        """The term's surface text."""
        return self.text


@dataclass(frozen=True)
class SPOC:
    """One clause's quadruple ``[c_s, c_p, c_o, c_c]`` (§IV-B).

    ``answer_role`` names the slot ("subject"/"object") whose matches
    constitute this clause's output — for the main clause that is the
    final answer, for condition clauses it is what propagates along
    query-graph edges.  Frozen: a session shares one parsed graph
    between every request that asks the same question.
    """

    subject: Term | None
    predicate: str
    object: Term | None
    constraint: str | None = None
    clause_index: int = 0
    depth: int = 0
    is_main: bool = False
    question_type: QuestionType | None = None
    answer_role: str = "object"
    source_text: str = ""

    def slot(self, role: str) -> Term | None:
        """The Term in the named slot."""
        if role == "subject":
            return self.subject
        if role == "object":
            return self.object
        raise ValueError(f"unknown slot role: {role!r}")

    def __repr__(self) -> str:
        """Compact ``s=.. p=.. o=..`` rendering for debugging."""
        parts = [
            f"s={self.subject.text if self.subject else '?'}",
            f"p={self.predicate}",
            f"o={self.object.text if self.object else '?'}",
        ]
        if self.constraint:
            parts.append(f"c={self.constraint}")
        return f"SPOC({', '.join(parts)})"


class DependencyKind(str, Enum):
    """The five clause-dependency types of §IV-C.

    An edge ``u --X2Y--> v`` means vertex ``v``'s slot ``X`` is
    replaced by the ``Y``-side matches of ``u``'s answer pairs
    (Algorithm 3, Update Stage).
    """

    S2S = "S2S"
    S2O = "S2O"
    O2S = "O2S"
    O2O = "O2O"
    NULL = "NULL"

    @property
    def consumer_slot(self) -> str:
        """Which slot of the consumer vertex gets replaced."""
        return "subject" if self.value[0] == "S" else "object"

    @property
    def provider_slot(self) -> str:
        """Which side of the provider's answer pairs propagates."""
        return "subject" if self.value[2] == "S" else "object"


@dataclass(frozen=True)
class QueryGraph:
    """The ordered query graph ``G_q`` (Definition 3).

    Vertices are SPOCs; directed edges run from *provider* clauses
    (conditions, executed first) to *consumer* clauses, ending at the
    main clause, which yields the final answer.  Immutable (vertices
    and edges are stored as tuples), so one parsed graph can be
    shared across requests.
    """

    vertices: tuple[SPOC, ...]
    edges: tuple[tuple[int, int, DependencyKind], ...] = ()
    question: str = ""
    #: the hash of the fields above, computed once: a served graph
    #: keys the diagnostics memo on every ask, and hashing it anew
    #: walks every SPOC
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Store ``vertices``/``edges`` as tuples whatever was passed,
        and the graph's hash."""
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "_hash",
                           hash((self.vertices, self.edges, self.question)))

    def __hash__(self) -> int:
        """The hash of the fields, computed once."""
        return self._hash

    @property
    def main_index(self) -> int:
        """Index of the main clause (the one carrying the answer)."""
        for i, spoc in enumerate(self.vertices):
            if spoc.is_main:
                return i
        raise ValueError("query graph has no main clause")

    @property
    def question_type(self) -> QuestionType:
        """The main clause's judgment/counting/reasoning type."""
        qtype = self.vertices[self.main_index].question_type
        if qtype is None:
            raise ValueError("main clause has no question type")
        return qtype

    def start_vertices(self) -> list[int]:
        """Vertices with in-degree 0 — executed first (Algorithm 3)."""
        targets = {dst for _, dst, _ in self.edges}
        return [i for i in range(len(self.vertices)) if i not in targets]

    def out_edges(self, index: int) -> list[tuple[int, DependencyKind]]:
        """Dependency edges leaving clause ``index``."""
        return [(dst, kind) for src, dst, kind in self.edges if src == index]

    def in_degree(self, index: int) -> int:
        """Number of dependency edges entering clause ``index``."""
        return sum(1 for _, dst, _ in self.edges if dst == index)
