"""Category taxonomy for synthetic scenes.

MVQA selects COCO images whose types are "humans, animals, vehicles,
and buildings, which have the highest proportion and crossover rate in
COCO" (§VI-B).  The taxonomy here mirrors that: every category belongs
to a group, and the group drives both scene generation (which objects
co-occur) and the MVQA image filter.

Category names are drawn from the shared noun table in
:mod:`repro.nlp.lexicon`, so the vision vocabulary, the question
vocabulary, and the knowledge-graph vocabulary can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.nlp.lexicon import NOUN_TABLE


class Group(str, Enum):
    """Top-level category groups (the MVQA image-type filter)."""

    HUMAN = "human"
    ANIMAL = "animal"
    VEHICLE = "vehicle"
    BUILDING = "building"
    OBJECT = "object"
    SCENE = "scene"


@dataclass(frozen=True)
class Category:
    """One object category.

    Attributes
    ----------
    name:
        Singular noun, present in the NLP lexicon.
    group:
        The category's :class:`Group`.
    size:
        Typical (min, max) box side length, in pixels of the 128-canvas.
    depth_bias:
        0.0 = tends to be in front, 1.0 = tends to be background.
    """

    name: str
    group: Group
    size: tuple[int, int]
    depth_bias: float


CATEGORIES: tuple[Category, ...] = (
    # humans
    Category("man", Group.HUMAN, (18, 40), 0.4),
    Category("woman", Group.HUMAN, (18, 40), 0.4),
    Category("boy", Group.HUMAN, (12, 28), 0.35),
    Category("girl", Group.HUMAN, (12, 28), 0.35),
    # animals
    Category("dog", Group.ANIMAL, (10, 26), 0.3),
    Category("cat", Group.ANIMAL, (8, 20), 0.3),
    Category("horse", Group.ANIMAL, (20, 44), 0.4),
    Category("bird", Group.ANIMAL, (4, 12), 0.25),
    Category("cow", Group.ANIMAL, (20, 44), 0.45),
    Category("sheep", Group.ANIMAL, (14, 30), 0.45),
    Category("bear", Group.ANIMAL, (18, 40), 0.4),
    Category("elephant", Group.ANIMAL, (30, 60), 0.5),
    Category("zebra", Group.ANIMAL, (20, 44), 0.45),
    Category("giraffe", Group.ANIMAL, (24, 56), 0.5),
    # vehicles
    Category("car", Group.VEHICLE, (24, 50), 0.5),
    Category("bus", Group.VEHICLE, (40, 70), 0.55),
    Category("truck", Group.VEHICLE, (36, 64), 0.55),
    Category("bicycle", Group.VEHICLE, (14, 30), 0.4),
    Category("motorcycle", Group.VEHICLE, (16, 34), 0.4),
    Category("train", Group.VEHICLE, (60, 100), 0.65),
    Category("boat", Group.VEHICLE, (24, 56), 0.55),
    Category("airplane", Group.VEHICLE, (40, 80), 0.6),
    # buildings / structures
    Category("house", Group.BUILDING, (40, 80), 0.8),
    Category("building", Group.BUILDING, (50, 100), 0.85),
    Category("tower", Group.BUILDING, (24, 60), 0.85),
    Category("bridge", Group.BUILDING, (50, 110), 0.8),
    Category("fence", Group.BUILDING, (40, 90), 0.7),
    Category("bench", Group.BUILDING, (16, 34), 0.5),
    Category("station", Group.BUILDING, (50, 100), 0.85),
    # objects
    Category("frisbee", Group.OBJECT, (4, 9), 0.2),
    Category("ball", Group.OBJECT, (4, 10), 0.2),
    Category("kite", Group.OBJECT, (8, 18), 0.3),
    Category("umbrella", Group.OBJECT, (10, 22), 0.3),
    Category("backpack", Group.OBJECT, (6, 14), 0.3),
    Category("hat", Group.OBJECT, (4, 9), 0.15),
    Category("helmet", Group.OBJECT, (4, 9), 0.15),
    Category("robe", Group.OBJECT, (10, 22), 0.25),
    Category("coat", Group.OBJECT, (10, 22), 0.25),
    Category("scarf", Group.OBJECT, (4, 10), 0.2),
    Category("leash", Group.OBJECT, (4, 12), 0.25),
    Category("sofa", Group.OBJECT, (24, 46), 0.55),
    Category("bed", Group.OBJECT, (28, 54), 0.6),
    Category("chair", Group.OBJECT, (12, 26), 0.5),
    Category("table", Group.OBJECT, (18, 38), 0.55),
    Category("tv", Group.OBJECT, (12, 26), 0.55),
    Category("laptop", Group.OBJECT, (8, 16), 0.35),
    Category("book", Group.OBJECT, (4, 10), 0.25),
    Category("bottle", Group.OBJECT, (3, 8), 0.25),
    Category("cup", Group.OBJECT, (3, 7), 0.2),
    Category("pizza", Group.OBJECT, (6, 14), 0.25),
    Category("sandwich", Group.OBJECT, (4, 10), 0.25),
    Category("apple", Group.OBJECT, (3, 7), 0.2),
    Category("banana", Group.OBJECT, (3, 8), 0.2),
    Category("skateboard", Group.OBJECT, (8, 16), 0.3),
    Category("surfboard", Group.OBJECT, (12, 26), 0.35),
    Category("toy", Group.OBJECT, (4, 10), 0.2),
    # scene elements
    Category("grass", Group.SCENE, (60, 120), 0.95),
    Category("tree", Group.SCENE, (24, 60), 0.85),
    Category("road", Group.SCENE, (70, 126), 0.95),
    Category("sidewalk", Group.SCENE, (50, 110), 0.9),
    Category("field", Group.SCENE, (70, 126), 0.97),
    Category("beach", Group.SCENE, (70, 126), 0.97),
    Category("window", Group.SCENE, (8, 20), 0.75),
    Category("door", Group.SCENE, (10, 24), 0.75),
    Category("wall", Group.SCENE, (50, 110), 0.9),
)

#: the four MVQA filter groups (§VI-B)
MVQA_GROUPS = (Group.HUMAN, Group.ANIMAL, Group.VEHICLE, Group.BUILDING)


def category_by_name(name: str) -> Category:
    """Look up a category by its (singular) name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown category: {name!r}") from None


def category_index(name: str) -> int:
    """Stable integer id of a category (used by the raster renderer)."""
    return _INDEX[name]


def category_names() -> list[str]:
    return [c.name for c in CATEGORIES]


def _validate() -> None:
    names = [c.name for c in CATEGORIES]
    if len(names) != len(set(names)):
        raise ValueError("duplicate category names in taxonomy")
    missing = [n for n in names if n not in NOUN_TABLE]
    if missing:
        raise ValueError(f"categories missing from the NLP lexicon: {missing}")


_BY_NAME = {c.name: c for c in CATEGORIES}
_INDEX = {c.name: i + 1 for i, c in enumerate(CATEGORIES)}  # 0 = background
_validate()
