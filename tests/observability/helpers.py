"""Shared views for the span tests."""

from collections import Counter


def span_multiset(spans):
    """The worker-count-invariant view of a run's spans.

    Counts ``(name, sorted attribute items)`` pairs, dropping timing
    and trace assignment — the two properties that legitimately move
    between lanes under concurrency (see :mod:`repro.observability.spans`).
    """
    return Counter(
        (span.name,
         tuple(sorted((k, repr(v)) for k, v in span.attributes.items())))
        for span in spans
    )
