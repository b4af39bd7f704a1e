"""Reference implementations the one execution path is tested against.

``answer_many`` always plans (cross-query plan sharing) and every
executor scores embeddings through the graph's score memo.  The
differential tests compare that path with the simplest execution that
must give the same answers:

* :class:`LinearScores` — the linear
  :func:`~repro.nlp.embeddings.rank_scores` /
  :func:`~repro.nlp.embeddings.max_score` scans in place of the score
  memo, every score charged fresh (``embed_score``);
* :func:`unplanned_answers` — each question parsed and executed on its
  own by a fresh executor with no cache and no plan overlay, in input
  order.
"""

from repro.core import Answer, QueryGraphExecutor, SVQA, generate_query_graph
from repro.nlp.embeddings import max_score, rank_scores


class LinearScores:
    """Drop-in for ``QueryGraphExecutor._ann``: the linear scans, with
    every score reported fresh and no memo probes."""

    def rank(self, query, candidates):
        return rank_scores(query, candidates), len(candidates), 0

    def best(self, query, candidates):
        best, score = max_score(query, candidates)
        return best, score, len(candidates), 0


def unplanned_answers(system: SVQA, questions: list[str]) -> list[Answer]:
    """Answer ``questions`` one by one, unplanned and uncached.

    Parsing and execution charge ``system.clock``, like
    ``answer_many`` does, so charge counts are comparable.
    """
    answers = []
    for question in questions:
        graph = generate_query_graph(question, clock=system.clock)
        executor = QueryGraphExecutor(system.merged, clock=system.clock,
                                      config=system.config.executor)
        answers.append(executor.execute(graph))
    return answers
