"""Semantic lexicon: synonym clusters and hypernym links.

The paper relies on distributional similarity twice:

* ``maxScore`` (Algorithm 3) matches a SPOC predicate/constraint to the
  most similar merged-graph edge label by embedding cosine similarity;
* reasoning-answer scoring treats "dog" and "puppy" as consistent
  (§VII, experimental setting).

With no pretrained word2vec available offline, similarity structure is
injected through explicit synonym clusters: words in one cluster get
embeddings pulled toward a shared centroid (see
:mod:`repro.nlp.embeddings`).  Hypernym links back the "kind of X"
resolution in ``matchVertex`` and the external-knowledge edges of the
knowledge graph (pet -> dog).
"""

from __future__ import annotations

#: Each tuple is one synonym cluster.  A word may appear in only one
#: cluster (validated below) — multi-sense words would need per-sense
#: embeddings, which the question grammar never requires.
SYNONYM_CLUSTERS: tuple[tuple[str, ...], ...] = (
    # entities
    ("dog", "puppy", "canine", "canis", "hound"),
    ("cat", "kitten", "feline"),
    ("horse", "pony", "stallion"),
    ("bird", "owl", "fowl"),
    ("man", "woman", "person", "human", "people", "boy", "girl", "child",
     "guy", "adult"),
    ("wizard", "sorcerer", "mage"),
    ("car", "vehicle", "automobile", "truck", "bus", "van"),
    ("bicycle", "bike", "motorcycle"),
    ("house", "building", "home", "castle", "tower"),
    ("clothes", "clothing", "garment", "outfit", "robe", "cloak", "coat",
     "jacket", "dress", "suit", "shirt", "scarf"),
    ("hat", "helmet", "cap"),
    ("frisbee", "disc"),
    ("ball", "baseball", "football"),
    ("sofa", "couch", "settee"),
    ("tv", "television", "screen"),
    ("grass", "lawn", "field", "meadow"),
    ("road", "street", "sidewalk", "pavement"),
    ("kind", "type", "sort", "category"),
    ("girlfriend", "sweetheart"),
    ("friend", "pal", "companion"),
    ("food", "meal", "pizza", "sandwich"),
    ("toy", "plaything"),
    # predicates
    ("wear", "wearing", "dressed", "worn"),
    ("carry", "carrying", "hold", "holding", "held"),
    ("sit", "sitting", "seated", "situated", "situate"),
    ("stand", "standing"),
    ("ride", "riding", "mounted"),
    ("watch", "watching", "look", "looking", "observe", "face", "facing"),
    ("hang", "accompany", "together"),
    ("near", "beside", "close", "nearby", "next"),
    ("behind", "rear"),
    ("under", "below", "beneath"),
    ("above", "over"),
    ("walk", "walking", "stroll"),
    ("run", "running", "chase", "chasing"),
    ("jump", "jumping", "leap"),
    ("catch", "catching", "grab"),
    ("eat", "eating", "feed", "feeding", "graze", "grazing"),
    ("play", "playing"),
    ("sleep", "sleeping", "rest", "resting", "lie", "lying"),
    ("drive", "driving"),
    ("park", "parked"),
    ("pull", "pulling", "drag"),
    ("appear", "appearing", "present"),
    # constraints
    ("most", "maximum", "highest"),
    ("least", "minimum", "lowest", "fewest"),
    ("frequently", "often", "frequent", "usually", "commonly"),
)

#: hyponym -> hypernym ("a dog is a pet", "a pet is an animal").  These
#: become ``is a`` edges in the knowledge graph and drive "kind of X"
#: resolution.
HYPERNYMS: dict[str, str] = {
    "dog": "pet",
    "cat": "pet",
    "bird": "pet",
    "pet": "animal",
    "horse": "animal",
    "cow": "animal",
    "sheep": "animal",
    "bear": "animal",
    "elephant": "animal",
    "zebra": "animal",
    "giraffe": "animal",
    "man": "person",
    "woman": "person",
    "boy": "person",
    "girl": "person",
    "child": "person",
    "wizard": "person",
    "witch": "person",
    "car": "vehicle",
    "bus": "vehicle",
    "truck": "vehicle",
    "bicycle": "vehicle",
    "motorcycle": "vehicle",
    "train": "vehicle",
    "boat": "vehicle",
    "airplane": "vehicle",
    "house": "building",
    "castle": "building",
    "tower": "building",
    "station": "building",
    "robe": "clothes",
    "cloak": "clothes",
    "coat": "clothes",
    "jacket": "clothes",
    "shirt": "clothes",
    "dress": "clothes",
    "suit": "clothes",
    "scarf": "clothes",
    "hat": "clothes",
    "helmet": "clothes",
    "pizza": "food",
    "sandwich": "food",
    "apple": "food",
    "banana": "food",
    "frisbee": "toy",
    "ball": "toy",
    "kite": "toy",
}


def cluster_of(word: str) -> tuple[str, ...] | None:
    """The synonym cluster containing ``word`` (lowercased), if any."""
    return _CLUSTER_INDEX.get(word.lower())


def are_synonyms(a: str, b: str) -> bool:
    """Whether two words share a synonym cluster (or are equal)."""
    if a.lower() == b.lower():
        return True
    cluster = cluster_of(a)
    return cluster is not None and b.lower() in cluster


def hypernym_chain(word: str) -> list[str]:
    """The chain of hypernyms above ``word`` (nearest first)."""
    chain = []
    current = word.lower()
    while current in HYPERNYMS:
        current = HYPERNYMS[current]
        if current in chain:  # defensive: cycles would loop forever
            break
        chain.append(current)
    return chain


def _build_cluster_index() -> dict[str, tuple[str, ...]]:
    index: dict[str, tuple[str, ...]] = {}
    for cluster in SYNONYM_CLUSTERS:
        for word in cluster:
            if word in index:
                raise ValueError(f"word {word!r} appears in two clusters")
            index[word] = cluster
    return index


_CLUSTER_INDEX = _build_cluster_index()
