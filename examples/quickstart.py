"""Quickstart: the paper's Example 1, end to end.

An online analytics service holds movie images and a knowledge graph of
character relationships (Figure 1).  SVQA merges both into one graph
and answers the flagship complex question:

    What kind of clothes are worn by the wizard who is most
    frequently hanging out with Harry Potter's girlfriend?

Run:  python examples/quickstart.py
"""

from repro.core import SVQA, SVQAConfig, describe_query_graph
from repro.dataset.kg import build_movie_kg
from repro.dataset.movie import build_movie_scenes
from repro.vision.detector import DetectorConfig


def main() -> None:
    # 1. the data sources: images with identity metadata + the KG
    movie = build_movie_scenes(seed=5)
    kg = build_movie_kg()
    print(f"images: {len(movie.scenes)}   "
          f"knowledge graph: {kg.vertex_count} vertices, "
          f"{kg.edge_count} edges")
    for scene in movie.scenes[:3]:
        print(f"  image {scene.image_id}: {scene.caption}")

    # 2. build the merged graph (scene-graph generation + Algorithm 1)
    config = SVQAConfig(
        detector=DetectorConfig(label_noise=0.0, miss_rate=0.0),
    )
    svqa = SVQA(movie.scenes, kg, config, annotations=movie.annotations)
    merged = svqa.build()
    print(f"\nmerged graph: {merged.graph.vertex_count} vertices, "
          f"{merged.graph.edge_count} edges")

    # 3. decompose the complex question (Algorithm 2)
    question = movie.flagship_question
    print(f"\n{describe_query_graph(svqa.parse_question(question))}")

    # 4. answer it: parse and execute over the merged graph
    #    (Algorithm 3); the latency is the execute phase's
    answer = svqa.answer(question)
    print(f"\nQ: {question}")
    print(f"A: {answer.value}   "
          f"(expected: {movie.flagship_answer}; "
          f"evidence image(s): {answer.supporting_images}; "
          f"simulated latency: {answer.latency:.3f}s)")

    # 5. a few more questions over the same merged graph
    for extra in (
        "Is there a man standing on the grass?",
        "How many men are hanging out with the woman?",
    ):
        result = svqa.answer(extra)
        print(f"Q: {extra}\nA: {result.value}")


if __name__ == "__main__":
    main()
