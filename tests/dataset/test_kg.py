"""Unit tests for the knowledge-graph builders."""

from repro.dataset.kg import _CHARACTERS, build_commonsense_kg, build_movie_kg
from repro.graph import IS_A
from repro.synth.taxonomy import CATEGORIES


class TestCommonsenseKG:
    def test_every_category_has_a_concept(self):
        kg = build_commonsense_kg()
        for category in CATEGORIES:
            assert kg.find_vertices(category.name)

    def test_hypernym_edges(self):
        kg = build_commonsense_kg()
        dog = kg.find_vertices("dog")[0]
        parents = [kg.vertex(e.dst).label for e in kg.out_edges(dog.id)
                   if e.label == IS_A]
        assert parents == ["pet"]

    def test_hypernym_chain_reaches_animal(self):
        kg = build_commonsense_kg()
        pet = kg.find_vertices("pet")[0]
        parents = [kg.vertex(e.dst).label for e in kg.out_edges(pet.id)]
        assert "animal" in parents

    def test_all_vertices_are_concepts(self):
        kg = build_commonsense_kg()
        assert all(v.props.get("kind") == "concept" for v in kg.vertices())

    def test_deterministic(self):
        a = build_commonsense_kg()
        b = build_commonsense_kg()
        assert a.vertex_count == b.vertex_count
        assert a.edge_count == b.edge_count


class TestMovieKG:
    def test_characters_present(self):
        kg = build_movie_kg()
        for name, _ in _CHARACTERS:
            vertices = kg.find_vertices(name)
            assert vertices and vertices[0].props["kind"] == "entity"

    def test_girlfriend_edges(self):
        kg = build_movie_kg()
        harry = kg.find_vertices("Harry Potter")[0]
        girlfriends = sorted(
            kg.vertex(e.dst).label for e in kg.out_edges(harry.id)
            if e.label == "girlfriend of"
        )
        assert girlfriends == ["Cho Chang", "Ginny Weasley"]

    def test_occupations(self):
        kg = build_movie_kg()
        wizards = [name for name, occ in _CHARACTERS if occ == "wizard"]
        assert "Harry Potter" in wizards
        harry = kg.find_vertices("Harry Potter")[0]
        occupations = [kg.vertex(e.dst).label
                       for e in kg.out_edges(harry.id)
                       if e.label == IS_A]
        assert occupations == ["wizard"]

    def test_includes_commonsense_by_default(self):
        kg = build_movie_kg()
        assert kg.find_vertices("dog")

    def test_without_commonsense(self):
        kg = build_movie_kg(include_commonsense=False)
        assert not kg.find_vertices("dog")
        assert kg.find_vertices("Harry Potter")
