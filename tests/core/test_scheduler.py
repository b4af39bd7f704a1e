"""Unit tests for the frequency-ratio query scheduler (§V-B)."""

from repro.core.query_graph import generate_query_graph
from repro.core.scheduler import schedule_queries, vertex_key


def graphs_for(questions):
    return [generate_query_graph(q) for q in questions]


class TestVertexKey:
    def test_key_is_normalized(self):
        g1 = generate_query_graph("Is there a dog near the fence?")
        g2 = generate_query_graph("Is there a dog near the fence?")
        assert vertex_key(g1.vertices[0]) == vertex_key(g2.vertices[0])

    def test_different_questions_different_keys(self):
        g1 = generate_query_graph("Is there a dog near the fence?")
        g2 = generate_query_graph("Is there a cat near the fence?")
        assert vertex_key(g1.vertices[0]) != vertex_key(g2.vertices[0])


class TestSchedule:
    def test_empty(self):
        plan = schedule_queries([])
        assert plan.order == []

    def test_order_is_permutation(self):
        graphs = graphs_for([
            "Is there a dog near the fence?",
            "Is there a cat near the sofa?",
            "How many dogs are standing on the grass?",
        ])
        plan = schedule_queries(graphs)
        assert sorted(plan.order) == [0, 1, 2]

    def test_shared_vertices_run_first(self):
        # two questions share the dog/fence clause; the unique one is last
        graphs = graphs_for([
            "Is there a bus near the station?",
            "Is there a dog near the fence?",
            "Is there a dog near the fence?",
        ])
        plan = schedule_queries(graphs)
        assert plan.order[-1] == 0

    def test_more_vertices_break_ties(self):
        # same frequencies; the graph with more clauses goes first
        graphs = graphs_for([
            "Is there a dog near the fence?",
            "Does the dog that is holding the frisbee appear near the "
            "fence?",
        ])
        plan = schedule_queries(graphs)
        assert plan.order[0] == 1

    def test_scheduled_returns_graphs_in_order(self):
        graphs = graphs_for([
            "Is there a bus near the station?",
            "Is there a dog near the fence?",
            "Is there a dog near the fence?",
        ])
        plan = schedule_queries(graphs)
        # the order is a permutation of the input slots
        assert sorted(plan.order) == list(range(len(graphs)))

    def test_key_frequency_counts(self):
        graphs = graphs_for([
            "Is there a dog near the fence?",
            "Is there a dog near the fence?",
        ])
        plan = schedule_queries(graphs)
        assert max(plan.key_frequency.values()) == 2


class TestDeterminism:
    def test_equal_scores_keep_input_order(self):
        # identical graphs tie on score AND vertex count; the index
        # tiebreaker must keep them in input order
        graphs = graphs_for(["Is there a dog near the fence?"] * 4)
        plan = schedule_queries(graphs)
        assert plan.order == [0, 1, 2, 3]

    def test_repeated_scheduling_is_stable(self):
        graphs = graphs_for([
            "Is there a bus near the station?",
            "Is there a dog near the fence?",
            "Is there a cat near the sofa?",
            "Is there a dog near the fence?",
        ])
        first = schedule_queries(graphs)
        for _ in range(5):
            assert schedule_queries(graphs).order == first.order
