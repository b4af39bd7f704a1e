"""Resilience layer: fault injection, retry/deadline, degradation.

The production-scale north star means the pipeline must fail *soft per
query*, never *hard per batch*.  This package provides the machinery,
threaded through every pipeline layer:

* :mod:`repro.resilience.faults` — a deterministic, seeded
  :class:`FaultInjector` over the closed :data:`FAULT_SITES` registry
  (chaos testing);
* :mod:`repro.resilience.retry` — :class:`RetryPolicy` (bounded
  attempts, exponential backoff, deterministic jitter) and
  :class:`DeadlineBudget` (per-query simulated-time budgets);
* :mod:`repro.resilience.breaker` — per-stage :class:`CircuitBreaker`
  that trips after repeated faults and routes around the stage;
* :mod:`repro.resilience.manager` — :class:`ResilienceManager`, the
  single guard wrapper call sites use, configured by
  :class:`ResilienceConfig`;
* :mod:`repro.resilience.degrade` — the graceful-degradation ladder
  (keyword-match parse fallback, partial answers, attributed
  ``"unknown"``).

All timing stays on the :class:`~repro.simtime.SimClock`.  The layer
is always on: the default :class:`ResilienceConfig` injects no faults,
so it changes only what would otherwise fail.
"""

from repro.resilience.breaker import CLOSED, CircuitBreaker, HALF_OPEN, OPEN
from repro.resilience.events import FaultEvent
from repro.resilience.faults import FAULT_SITES, FaultInjector, FaultSpec
from repro.resilience.manager import ResilienceConfig, ResilienceManager
from repro.resilience.retry import DeadlineBudget, RetryPolicy

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "DeadlineBudget",
    "FAULT_SITES",
    "FaultEvent",
    "FaultInjector",
    "FaultSpec",
    "HALF_OPEN",
    "OPEN",
    "ResilienceConfig",
    "ResilienceManager",
    "RetryPolicy",
]
