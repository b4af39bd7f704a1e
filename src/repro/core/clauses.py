"""Clause segmentation from the dependency tree (§IV-B, step 1).

A clause is identified by its verbal head: the tree root (main clause)
plus every ``acl`` / ``acl:relcl`` dependent (relative clauses, full or
reduced).  Each clause records its *antecedent* — the noun its
relativizer refers to — which drives both pronoun replacement ("who"
-> "wizard") and the query-graph dependency edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nlp.depparse import DependencyTree


@dataclass(frozen=True)
class Clause:
    """One clause of the complex query.

    ``head`` is the clause's verbal head token index; ``antecedent``
    the modified noun's index for relative clauses (None for the main
    clause); ``depth`` the nesting level (main = 0).
    """

    head: int
    depth: int
    antecedent: int | None
    is_main: bool


def segment_clauses(tree: DependencyTree) -> list[Clause]:
    """All clauses of the question, main clause first, outside-in.

    >>> from repro.nlp import parse
    >>> tree = parse("Does the dog that is holding the frisbee appear "
    ...              "in front of the man?")
    >>> [c.is_main for c in segment_clauses(tree)]
    [True, False]
    """
    clauses = [Clause(tree.root, 0, None, True)]
    depth_of = {tree.root: 0}
    # relative clauses, discovered breadth-first so depth is correct
    frontier = [tree.root]
    while frontier:
        current = frontier.pop(0)
        for index, (head, label) in enumerate(zip(tree.heads, tree.labels, strict=True)):
            if label not in {"acl", "acl:relcl"}:
                continue
            if index in depth_of:
                continue
            # the antecedent noun must live inside the current clause's
            # span of influence; we approximate by walking up from the
            # antecedent to the nearest known clause head
            owner = _owning_clause(tree, head, depth_of)
            if owner != current:
                continue
            depth = depth_of[current] + 1
            clauses.append(Clause(index, depth, head, False))
            depth_of[index] = depth
            frontier.append(index)
    return clauses


def _owning_clause(
    tree: DependencyTree, index: int, clause_heads: dict[int, int]
) -> int | None:
    """Walk up the tree from ``index`` to the nearest clause head."""
    current = index
    seen = set()
    while current != -1 and current not in seen:
        seen.add(current)
        if current in clause_heads:
            return current
        current = tree.heads[current]
    return None
