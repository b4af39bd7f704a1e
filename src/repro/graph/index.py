"""Incremental label index for graph elements.

Maps a label string to the set of element ids carrying it.  Maintained
by :class:`repro.graph.model.Graph` on every mutation, so label lookups
(the hot path of ``matchVertex`` in Algorithm 3) are O(1) instead of a
full vertex scan.  A graph's two label indexes are its only label
counts: the candidate index and the score memo follow the labels they
gain and lose.
"""

from __future__ import annotations

from collections.abc import Iterator


class LabelIndex:
    """label -> sorted-insertion set of integer ids."""

    def __init__(self) -> None:
        self._by_label: dict[str, dict[int, None]] = {}

    def add(self, label: str, element_id: int) -> None:
        """Register ``element_id`` under ``label``."""
        self._by_label.setdefault(label, {})[element_id] = None

    def remove(self, label: str, element_id: int) -> None:
        """Unregister ``element_id``; removes the label bucket if empty."""
        bucket = self._by_label.get(label)
        if bucket is None or element_id not in bucket:
            raise KeyError(f"{element_id} not indexed under {label!r}")
        del bucket[element_id]
        if not bucket:
            del self._by_label[label]

    def ids(self, label: str) -> list[int]:
        """Ids carrying ``label``, in insertion order (empty if unknown)."""
        return list(self._by_label.get(label, ()))

    def labels(self) -> Iterator[str]:
        """All labels with at least one element."""
        return iter(self._by_label)

    def count(self, label: str) -> int:
        """Number of elements carrying ``label``."""
        return len(self._by_label.get(label, ()))

    def counts(self) -> dict[str, int]:
        """Mapping of every label to its element count."""
        return {label: len(bucket) for label, bucket in self._by_label.items()}

    def __contains__(self, label: str) -> bool:
        """Whether any element is registered under ``label``."""
        return label in self._by_label

    def __len__(self) -> int:
        """Number of distinct labels with at least one element."""
        return len(self._by_label)

    def __iter__(self) -> Iterator[str]:
        """Iterate over the registered labels."""
        return iter(self._by_label)
