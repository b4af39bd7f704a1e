"""Knowledge-graph builders: the external graph ``G`` of the paper.

Two flavors are provided:

* :func:`build_commonsense_kg` — concept vertices for every scene
  category plus their hypernyms, connected by ``is a`` edges.  This is
  the *external knowledge* MVQA questions need ("pets" resolves to
  dog/cat/bird instances only through the graph, as in Example 7).
* :func:`build_movie_kg` — the Figure-1-style movie graph: named
  characters, their relationships (girlfriend of / friend of), their
  occupations, and the movies they appear in.  This drives the paper's
  flagship example question about Harry Potter's girlfriend.

Vertex props carry ``kind``: ``concept`` for category/hypernym nodes,
``entity`` for named individuals.
"""

from __future__ import annotations

from repro.graph import IS_A, Graph
from repro.nlp.semlex import HYPERNYMS
from repro.synth.taxonomy import CATEGORIES


def build_commonsense_kg() -> Graph:
    """Concepts for all scene categories + hypernym hierarchy."""
    kg = Graph(name="commonsense-kg")
    concepts: dict[str, int] = {}

    def concept(name: str) -> int:
        if name not in concepts:
            vertex = kg.add_vertex(name, {"kind": "concept"})
            concepts[name] = vertex.id
        return concepts[name]

    for category in CATEGORIES:
        concept(category.name)
    for child, parent in HYPERNYMS.items():
        kg.add_edge(concept(child), concept(parent), IS_A)
    return kg


#: (character, occupation) — occupation links via "is a" to a concept
_CHARACTERS: tuple[tuple[str, str], ...] = (
    ("Harry Potter", "wizard"),
    ("Ginny Weasley", "witch"),
    ("Cho Chang", "witch"),
    ("Ron Weasley", "wizard"),
    ("Hermione Granger", "witch"),
    ("Neville Longbottom", "wizard"),
    ("Luna Lovegood", "witch"),
    ("Draco Malfoy", "wizard"),
    ("Dudley Dursley", "muggle"),
)

_RELATIONSHIPS: tuple[tuple[str, str, str], ...] = (
    ("Harry Potter", "girlfriend of", "Ginny Weasley"),
    ("Harry Potter", "girlfriend of", "Cho Chang"),
    ("Ron Weasley", "girlfriend of", "Hermione Granger"),
    ("Harry Potter", "friend of", "Ron Weasley"),
    ("Harry Potter", "friend of", "Hermione Granger"),
    ("Ron Weasley", "friend of", "Harry Potter"),
    ("Hermione Granger", "friend of", "Harry Potter"),
    ("Ginny Weasley", "friend of", "Luna Lovegood"),
    ("Neville Longbottom", "friend of", "Harry Potter"),
    ("Draco Malfoy", "rival of", "Harry Potter"),
)

_MOVIES: tuple[str, ...] = (
    "The Philosopher's Stone",
    "The Chamber of Secrets",
    "The Goblet of Fire",
)


def build_movie_kg(include_commonsense: bool = True) -> Graph:
    """The movie-domain knowledge graph of Example 1 / Figure 1.

    With ``include_commonsense`` the category/hypernym concepts are
    embedded too, so one merged graph serves both named-entity and
    commonsense reasoning.
    """
    kg = build_commonsense_kg() if include_commonsense \
        else Graph(name="movie-kg")
    kg.name = "movie-kg"

    by_label = {v.label: v.id for v in kg.vertices()}

    def vertex(label: str, kind: str) -> int:
        if label not in by_label:
            by_label[label] = kg.add_vertex(label, {"kind": kind}).id
        return by_label[label]

    for occupation in ("wizard", "witch", "muggle"):
        vertex(occupation, "concept")
    for name, occupation in _CHARACTERS:
        character = vertex(name, "entity")
        kg.add_edge(character, vertex(occupation, "concept"), IS_A)
    for src, relation, dst in _RELATIONSHIPS:
        kg.add_edge(vertex(src, "entity"), vertex(dst, "entity"), relation)
    for movie in _MOVIES:
        movie_vertex = vertex(movie, "entity")
        for name, _ in _CHARACTERS[:6]:
            kg.add_edge(vertex(name, "entity"), movie_vertex, "appears in")
    return kg
