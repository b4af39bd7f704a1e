"""Unit tests for the QueryGraphExecutor (Algorithm 3).

Uses a hand-built merged graph so every behaviour is fully controlled:
no detector noise, known instances, known relations.
"""

import pytest

from repro.core import (
    DependencyKind,
    ExecutorStats,
    KeyCentricCache,
    MergedGraph,
    QueryGraph,
    QueryGraphExecutor,
    QuestionType,
    SPOC,
    Term,
    generate_query_graph,
)
from repro.core.aggregator import MergeStats
from repro.dataset.kg import build_movie_kg
from repro.graph import INSTANCE_OF, Graph
from repro.simtime import SimClock


def make_merged():
    """A small, fully hand-specified merged graph.

    Images:
      0: dog standing on grass; fence near grass
      1: dog carrying bird
      2: cat sitting on sofa
      3: dog standing on grass
    KG: commonsense + movie entities.
    """
    kg = build_movie_kg()
    graph = Graph(name="merged")
    for vertex in kg.vertices():
        graph.add_vertex(vertex.label, vertex.props, vertex_id=vertex.id)
    for edge in kg.edges():
        graph.add_edge(edge.src, edge.dst, edge.label, edge.props)
    concepts = {v.label: v.id for v in graph.vertices()}
    instances = []

    def instance(label, image_id):
        v = graph.add_vertex(label, {"kind": "instance",
                                     "image_id": image_id})
        graph.add_edge(v.id, concepts[label], INSTANCE_OF)
        instances.append(v.id)
        return v

    def relate(src, dst, predicate, image_id):
        graph.add_edge(src.id, dst.id, predicate, {"image_id": image_id})

    dog0 = instance("dog", 0)
    grass0 = instance("grass", 0)
    fence0 = instance("fence", 0)
    relate(dog0, grass0, "standing on", 0)
    relate(fence0, grass0, "near", 0)

    dog1 = instance("dog", 1)
    bird1 = instance("bird", 1)
    relate(dog1, bird1, "carrying", 1)

    cat2 = instance("cat", 2)
    sofa2 = instance("sofa", 2)
    relate(cat2, sofa2, "sitting on", 2)

    dog3 = instance("dog", 3)
    grass3 = instance("grass", 3)
    relate(dog3, grass3, "standing on", 3)

    stats = MergeStats({}, [], 0.0, 0.0, 0, 0, 0)
    return MergedGraph(graph=graph, stats=stats, instance_ids=instances)


@pytest.fixture(scope="module")
def executor():
    return QueryGraphExecutor(make_merged())


def vertices(executor, ids):
    """The executor's graph's vertices with ``ids``, in order."""
    return executor.graph.vertices_by_id(ids)


class TestMatchVertex:
    def test_exact_label(self, executor):
        graph = generate_query_graph("Is there a dog near the fence?")
        term = graph.vertices[0].subject
        matches = vertices(executor, executor.match_vertex(term))
        labels = {v.label for v in matches}
        assert labels == {"dog"}

    def test_plural_resolves(self, executor):
        matches = vertices(executor, executor.match_vertex_label("dogs"))
        assert all(v.label == "dog" for v in matches)
        assert any(v.props.get("kind") == "instance" for v in matches)

    def test_hypernym_expansion(self, executor):
        matches = vertices(executor, executor.match_vertex_label("pet"))
        labels = {v.label for v in matches}
        # concept pet + hyponym concepts + their instances
        assert {"pet", "dog", "cat", "bird"} <= labels

    def test_synonym_non_category(self, executor):
        matches = vertices(executor, executor.match_vertex_label("puppy"))
        assert any(v.label == "dog" for v in matches)

    def test_category_does_not_bleed(self, executor):
        # "cat" must not match "dog" instances via any fuzzy path
        matches = vertices(executor, executor.match_vertex_label("cat"))
        assert all(v.label in {"cat", "kitten", "feline"}
                   for v in matches)

    def test_possessive_resolution(self, executor):
        graph = generate_query_graph(
            "What kind of clothes are worn by the wizard who is hanging "
            "out with Harry Potter's girlfriend?"
        )
        condition = graph.vertices[1]
        matches = vertices(executor, executor.match_vertex(condition.object))
        labels = {v.label for v in matches}
        assert "Ginny Weasley" in labels
        assert "Cho Chang" in labels


class TestExecution:
    def test_judgment_yes(self, executor):
        graph = generate_query_graph(
            "Does the dog that is standing on the grass appear near the "
            "fence?"
        )
        # note: 'near' edge is fence->grass, dog->fence has no edge: the
        # executor looks for dog--near-->fence which does not exist
        answer = executor.execute(graph)
        assert answer.value in {"yes", "no"}

    def test_judgment_existential_yes(self, executor):
        graph = generate_query_graph("Is there a fence near the grass?")
        answer = executor.execute(graph)
        assert answer.value == "yes"

    def test_judgment_no_for_absent_relation(self, executor):
        graph = generate_query_graph("Is there a cat near the grass?")
        answer = executor.execute(graph)
        assert answer.value == "no"

    def test_reasoning_cross_image(self, executor):
        # Example 7: condition in image 0/3, answer evidence in image 1
        graph = generate_query_graph(
            "What kind of animals is carried by the pets that are "
            "standing on the grass?"
        )
        answer = executor.execute(graph)
        assert answer.value == "bird"
        assert answer.supporting_images == [1]

    def test_counting_instances(self, executor):
        graph = generate_query_graph(
            "How many dogs are standing on the grass?"
        )
        answer = executor.execute(graph)
        assert answer.value == "2"
        assert answer.question_type is QuestionType.COUNTING

    def test_judgment_identity(self, executor):
        graph = generate_query_graph(
            "Is the animal that is sitting on the sofa a cat?"
        )
        answer = executor.execute(graph)
        assert answer.value == "yes"

    def test_judgment_identity_negative(self, executor):
        graph = generate_query_graph(
            "Is the animal that is sitting on the sofa a dog?"
        )
        answer = executor.execute(graph)
        assert answer.value == "no"

    def test_answers_deterministic(self, executor):
        graph = generate_query_graph(
            "How many dogs are standing on the grass?"
        )
        assert executor.execute(graph).value == \
            executor.execute(graph).value


class TestFlagshipQuestion:
    """The paper's Example 1, over a merged graph with named instances."""

    @pytest.fixture(scope="class")
    def movie_executor(self):
        merged = make_merged()
        graph = merged.graph
        concepts = {v.label: v.id for v in graph.vertices()
                    if v.props.get("kind") in {"concept", "entity"}}

        def named(name, image_id):
            v = graph.add_vertex(name, {"kind": "instance",
                                        "image_id": image_id})
            graph.add_edge(v.id, concepts[name], INSTANCE_OF)
            return v

        def item(label, image_id):
            v = graph.add_vertex(label, {"kind": "instance",
                                         "image_id": image_id})
            graph.add_edge(v.id, concepts[label], INSTANCE_OF)
            return v

        # Neville appears with Ginny in images 10 and 11, wearing a robe
        # in image 12; Draco appears with Cho once, wearing a coat.
        for image_id in (10, 11):
            neville = named("Neville Longbottom", image_id)
            ginny = named("Ginny Weasley", image_id)
            graph.add_edge(neville.id, ginny.id, "hanging out with",
                           {"image_id": image_id})
        neville12 = named("Neville Longbottom", 12)
        robe = item("robe", 12)
        graph.add_edge(neville12.id, robe.id, "wearing", {"image_id": 12})
        draco = named("Draco Malfoy", 13)
        cho = named("Cho Chang", 13)
        graph.add_edge(draco.id, cho.id, "hanging out with",
                       {"image_id": 13})
        coat = item("coat", 13)
        graph.add_edge(draco.id, coat.id, "wearing", {"image_id": 13})
        return QueryGraphExecutor(merged)

    def test_flagship_answer(self, movie_executor):
        graph = generate_query_graph(
            "What kind of clothes are worn by the wizard who is most "
            "frequently hanging out with Harry Potter's girlfriend?"
        )
        answer = movie_executor.execute(graph)
        # Neville (2 images with Ginny) beats Draco (1 with Cho), and
        # Neville wears a robe
        assert answer.value == "robe"


class TestTwoProviderBinding:
    """Regression: two condition clauses constraining the same slot
    must intersect their label sets, not let the last writer win."""

    @staticmethod
    def make_two_provider_setup():
        """dog sits on sofa AND stands on grass; cat only stands on
        grass; both eat food.  Condition A (sitting on sofa) yields
        {dog}; condition B (standing on grass) yields {cat, dog}."""
        graph = Graph(name="merged")

        def instance(label, image_id):
            return graph.add_vertex(
                label, {"kind": "instance", "image_id": image_id}
            )

        dog = instance("dog", 0)
        cat = instance("cat", 0)
        sofa = instance("sofa", 1)
        grass = instance("grass", 0)
        food = instance("food", 2)
        graph.add_edge(dog.id, sofa.id, "sitting on", {"image_id": 1})
        graph.add_edge(dog.id, grass.id, "standing on", {"image_id": 0})
        graph.add_edge(cat.id, grass.id, "standing on", {"image_id": 0})
        graph.add_edge(dog.id, food.id, "eating", {"image_id": 2})
        graph.add_edge(cat.id, food.id, "eating", {"image_id": 3})
        stats = MergeStats({}, [], 0.0, 0.0, 0, 0, 0)
        merged = MergedGraph(graph=graph, stats=stats,
                             instance_ids=[dog.id, cat.id])

        query_graph = QueryGraph(
            vertices=[
                SPOC(subject=None, predicate="sitting on",
                     object=Term("sofa", "sofa"),
                     answer_role="subject"),
                SPOC(subject=None, predicate="standing on",
                     object=Term("grass", "grass"),
                     answer_role="subject"),
                SPOC(subject=None, predicate="eating",
                     object=Term("food", "food"), is_main=True,
                     question_type=QuestionType.COUNTING,
                     answer_role="subject"),
            ],
            edges=[
                (0, 2, DependencyKind.S2S),
                (1, 2, DependencyKind.S2S),
            ],
            question="How many animals that sit on the sofa and stand "
                     "on the grass are eating food?",
        )
        return merged, query_graph

    def test_repeated_slot_writes_intersect(self):
        merged, query_graph = self.make_two_provider_setup()
        executor = QueryGraphExecutor(merged)
        answer = executor.execute(query_graph)
        # only the dog satisfies BOTH conditions; keeping just the
        # last-executed provider's labels would also count the cat
        assert answer.value == "1"


class TestPathCacheAliasing:
    """Regression: the path cache must never hand out the list object
    it stores, or caller mutations corrupt later hits."""

    def test_mutating_returned_pairs_keeps_cache_intact(self):
        executor = QueryGraphExecutor(
            make_merged(), cache=KeyCentricCache.create(pool_size=50)
        )
        graph = generate_query_graph("Is there a fence near the grass?")
        spoc = graph.vertices[0]
        binding = {"subject": None, "object": None}

        first = executor._execute_vertex(spoc, binding).pairs
        assert first
        first.clear()  # in-place caller mutation
        second = executor._execute_vertex(spoc, binding).pairs
        assert second  # the cached entry survived the mutation
        assert second is not first
        assert executor.cache.path.counters() == (1, 1)


class TestCachingConsistency:
    def test_cache_never_changes_answers(self):
        questions = [
            "How many dogs are standing on the grass?",
            "Is there a fence near the grass?",
            "What kind of animals is carried by the pets that are "
            "standing on the grass?",
            "How many dogs are standing on the grass?",
        ]
        merged = make_merged()
        plain = QueryGraphExecutor(merged)
        cached = QueryGraphExecutor(
            merged, cache=KeyCentricCache.create(pool_size=50)
        )
        for question in questions:
            graph = generate_query_graph(question)
            assert plain.execute(graph).value == \
                cached.execute(graph).value

    def test_cache_reduces_simulated_time(self):
        merged = make_merged()
        question = "How many dogs are standing on the grass?"
        graph = generate_query_graph(question)

        clock_cold = SimClock()
        QueryGraphExecutor(merged, clock=clock_cold).execute(graph)
        QueryGraphExecutor(merged, clock=clock_cold).execute(graph)

        clock_warm = SimClock()
        executor = QueryGraphExecutor(
            merged, cache=KeyCentricCache.create(pool_size=50),
            clock=clock_warm,
        )
        executor.execute(graph)
        executor.execute(graph)
        assert clock_warm.elapsed < clock_cold.elapsed


class TestEpochInvalidation:
    """Regression: scope/path cache keys carrying the label alone
    replay stale results after the merged graph mutates — the executor
    must key on the graph epoch and retire entries from dead epochs."""

    QUESTION = "How many dogs are standing on the grass?"

    @staticmethod
    def make_mutable_setup():
        """Two dogs standing on grass, no KG concepts: relabeling or
        removing one dog must visibly change the count (with concepts,
        instance-of expansion would mask scope staleness)."""
        graph = Graph(name="merged")

        def instance(label, image_id):
            return graph.add_vertex(
                label, {"kind": "instance", "image_id": image_id}
            )

        dog0 = instance("dog", 0)
        grass0 = instance("grass", 0)
        dog1 = instance("dog", 1)
        grass1 = instance("grass", 1)
        graph.add_edge(dog0.id, grass0.id, "standing on", {"image_id": 0})
        graph.add_edge(dog1.id, grass1.id, "standing on", {"image_id": 1})
        stats = MergeStats({}, [], 0.0, 0.0, 0, 0, 0)
        merged = MergedGraph(graph=graph, stats=stats,
                             instance_ids=[dog0.id, dog1.id])
        return merged, dog1

    def test_relabel_between_identical_queries(self):
        merged, dog1 = self.make_mutable_setup()
        executor = QueryGraphExecutor(
            merged, cache=KeyCentricCache.create(pool_size=50)
        )
        first = executor.execute(generate_query_graph(self.QUESTION))
        assert first.value == "2"
        merged.graph.relabel_vertex(dog1.id, "cat")
        # a label-only cache key replays the stale scope (the relabeled
        # vertex still exists, so no liveness filter can save it)
        second = executor.execute(generate_query_graph(self.QUESTION))
        assert second.value == "1"

    def test_removal_between_identical_queries(self):
        merged, dog1 = self.make_mutable_setup()
        executor = QueryGraphExecutor(
            merged, cache=KeyCentricCache.create(pool_size=50)
        )
        assert executor.execute(
            generate_query_graph(self.QUESTION)
        ).value == "2"
        merged.graph.remove_vertex(dog1.id)
        # stale path-cache pairs would still count the removed dog
        assert executor.execute(
            generate_query_graph(self.QUESTION)
        ).value == "1"

    def test_stale_entries_are_retired_and_counted(self):
        merged, dog1 = self.make_mutable_setup()
        stats = ExecutorStats()
        executor = QueryGraphExecutor(
            merged, cache=KeyCentricCache.create(pool_size=50),
            stats=stats,
        )
        executor.execute(generate_query_graph(self.QUESTION))
        assert stats.snapshot().stale_scope_drops == 0
        merged.graph.relabel_vertex(dog1.id, "cat")
        executor.execute(generate_query_graph(self.QUESTION))
        assert stats.snapshot().stale_scope_drops > 0

    def test_unmutated_graph_still_hits_the_cache(self):
        merged, _ = self.make_mutable_setup()
        stats = ExecutorStats()
        executor = QueryGraphExecutor(
            merged, cache=KeyCentricCache.create(pool_size=50),
            stats=stats,
        )
        executor.execute(generate_query_graph(self.QUESTION))
        executor.execute(generate_query_graph(self.QUESTION))
        report = stats.snapshot()
        assert report.scope_hits > 0
        assert report.stale_scope_drops == 0


class TestPossessiveShortCircuit:
    """An owner with no candidate out-edges has nothing to score: no
    embed_score charge, no maxScore call, empty result."""

    def test_no_out_edges_charges_nothing(self):
        graph = Graph(name="merged")
        owner = graph.add_vertex(
            "Harry Potter", {"kind": "instance", "image_id": 0}
        )
        stats = MergeStats({}, [], 0.0, 0.0, 0, 0, 0)
        merged = MergedGraph(graph=graph, stats=stats,
                             instance_ids=[owner.id])
        clock = SimClock()
        executor = QueryGraphExecutor(merged, clock=clock)
        term = Term("Harry Potter's girlfriend", "girlfriend",
                    owner="Harry Potter")
        assert executor.match_vertex(term) == ()
        assert clock.counts.get("embed_score", 0) == 0

    def test_owner_with_out_edges_still_scores(self, executor):
        clock = SimClock()
        merged = make_merged()
        charged = QueryGraphExecutor(merged, clock=clock)
        term = Term("Harry Potter's girlfriend", "girlfriend",
                    owner="Harry Potter")
        matches = vertices(charged, charged.match_vertex(term))
        assert {v.label for v in matches} >= {"Ginny Weasley"}
        assert clock.counts.get("embed_score", 0) > 0
