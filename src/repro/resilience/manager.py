"""The resilience layer's central guard: retries, breakers, fallbacks.

``ResilienceManager.call(site, key, fn)`` is the one wrapper every
guarded pipeline stage goes through:

1. the site's :class:`~repro.resilience.breaker.CircuitBreaker` is
   consulted — when open, the call is short-circuited and the caller's
   ``fallback`` routes around the stage (cache bypass, skip-image, ...);
2. the seeded :class:`~repro.resilience.faults.FaultInjector` decides
   whether this attempt faults (charging fault latency on the clock);
3. faults are retried under the :data:`RETRY` policy
   with exponential backoff charged in simulated seconds;
4. an exhausted retry budget either raises
   :class:`~repro.errors.FaultToleranceError` or, when the caller
   provided a ``fallback``, degrades gracefully to it.

Every incident is recorded twice: as a
:class:`~repro.resilience.events.FaultEvent` on the caller's event
list (per-answer provenance) and as a counter on the shared
:class:`~repro.core.stats.ExecutorStats` (fleet-level observability).

The layer is always on.  With no fault specs (the default
:class:`ResilienceConfig`) nothing is injected, so ``call`` retries
nothing and charges nothing: it only routes real failures — a question
the grammar rejects, a crashed query — down the degradation ladder.
Only an injected fault moves a breaker, so the breaker of a site with
no fault spec stays closed for good: ``call`` runs ``fn`` there
directly, after publishing the site's gauge on its first consultation.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from repro.errors import (
    CircuitOpenError,
    FaultToleranceError,
    InjectedFaultError,
)
from repro.observability.spans import Tracer, maybe_span
from repro.resilience.breaker import (
    BREAKER_COOLDOWN,
    BREAKER_THRESHOLD,
    CircuitBreaker,
)
from repro.resilience.events import FaultEvent
from repro.resilience.faults import FAULT_SITES, FaultInjector, FaultSpec
from repro.resilience.retry import DeadlineBudget, RetryPolicy
from repro.locks import wrap_lock
from repro.simtime import SimClock

if TYPE_CHECKING:
    from repro.core.stats import ExecutorStats

#: sentinel distinguishing "no fallback" from "fallback returns None"
_RAISE = object()

#: the retry budget and backoff of every guarded call
RETRY = RetryPolicy()

#: of the keys a chaos configuration faults, the share that never
#: recover
CHAOS_PERSISTENT_FRACTION = 0.25

#: simulated seconds each injected chaos fault charges
CHAOS_FAULT_LATENCY = 0.02


@dataclass
class ResilienceConfig:
    """What a run injects and how long a query may take; the retry
    policy and breaker limits are the module constants above.

    ``fault_specs`` maps registered site names to
    :class:`~repro.resilience.faults.FaultSpec` values (empty = no
    injection, the production setting: retries/breakers/deadlines
    still guard real failures).  ``query_deadline`` is the per-query
    budget in simulated seconds (``None`` = unbounded).
    """

    seed: int = 0
    fault_specs: dict[str, FaultSpec] = field(default_factory=dict)
    query_deadline: float | None = None

    @classmethod
    def chaos(
        cls,
        rate: float,
        seed: int = 0,
        query_deadline: float | None = None,
    ) -> ResilienceConfig:
        """A uniform chaos-testing configuration: the same fault rate
        at every registered site, :data:`CHAOS_PERSISTENT_FRACTION` of
        the faulted keys never recovering and each fault charging
        :data:`CHAOS_FAULT_LATENCY`."""
        spec = FaultSpec(rate=rate,
                         persistent_fraction=CHAOS_PERSISTENT_FRACTION,
                         latency=CHAOS_FAULT_LATENCY)
        return cls(
            seed=seed,
            fault_specs=dict.fromkeys(FAULT_SITES, spec),
            query_deadline=query_deadline,
        )


def _private_stats() -> ExecutorStats:
    # imported here: repro.core imports this module
    from repro.core.stats import ExecutorStats

    return ExecutorStats()


class ResilienceManager:
    """Shared, thread-safe guard state for one SVQA system.

    One manager is created per :class:`~repro.core.pipeline.SVQA`
    instance and threaded through the SGG pipeline, the aggregator,
    the executor, the batch engine and the durable store; breakers are
    per-site and shared across worker threads.  A component built on
    its own holds a private default manager, which counts into a
    private collector.
    """

    def __init__(
        self,
        config: ResilienceConfig | None = None,
        stats: ExecutorStats | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config or ResilienceConfig()
        self.injector = FaultInjector(seed=self.config.seed,
                                      specs=self.config.fault_specs)
        self.stats = stats if stats is not None else _private_stats()
        self.tracer = tracer
        self._breakers: dict[str, CircuitBreaker] = {}
        #: the breaker state last written to the gauge, per site
        self._published: dict[str, str] = {}
        self._lock = wrap_lock(threading.Lock(), "resilience.manager")

    def _breaker(self, site: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(site)
            if breaker is None:
                breaker = CircuitBreaker(failure_threshold=BREAKER_THRESHOLD,
                                         cooldown=BREAKER_COOLDOWN)
                self._breakers[site] = breaker
            return breaker

    def breaker_states(self) -> dict[str, str]:
        """Every registered site's breaker state, sorted by site name.

        Sites whose breaker was never consulted report ``closed`` —
        the serving layer's ``/healthz`` endpoint needs the full map,
        not just the breakers that happen to exist yet.
        """
        return {site: self._breaker(site).state
                for site in sorted(FAULT_SITES)}

    def publish_breaker_states(self) -> None:
        """Publish the ``svqa_breaker_state`` gauge for every site.

        Normally the gauge only gains a series when a site's guard is
        first consulted, which makes the metrics exposition depend on
        *which* pipeline stages ran.  The serving layer calls this
        once at startup so cold-build and snapshot-warm-started
        servers expose identical gauge series.
        """
        for site in sorted(FAULT_SITES):
            self._publish_breaker_state(site, self._breaker(site))

    def deadline(
        self, clock: SimClock, limit: float | None = None
    ) -> DeadlineBudget | None:
        """A fresh per-query budget, or ``None`` when unconfigured.

        ``limit`` is a per-query override in simulated seconds (the
        serving layer's ``Deadline-Ms`` header lands here); the
        effective budget is the tighter of the override and the
        configured :attr:`ResilienceConfig.query_deadline`.
        """
        limits = [value for value in (limit, self.config.query_deadline)
                  if value is not None]
        if not limits:
            return None
        return DeadlineBudget.start(clock, min(limits))

    # ------------------------------------------------------------------
    # the guard
    # ------------------------------------------------------------------
    def call(
        self,
        site: str,
        key: object,
        fn: Callable[[], Any],
        clock: SimClock | None = None,
        events: list[FaultEvent] | None = None,
        fallback: Any = _RAISE,
    ) -> Any:
        """Run ``fn`` under this site's breaker + retry policy.

        ``key`` is the stable identity of the operation (image id,
        cache key, term label), or a zero-argument callable that
        builds it, called only at a site with a fault spec: fault
        decisions are a pure function of ``(seed, site, key)``, so
        runs are reproducible regardless of thread interleaving.
        ``fallback`` (a zero-arg callable) routes around the stage on
        breaker-open or retry exhaustion; without it those conditions
        raise :class:`~repro.errors.CircuitOpenError` /
        :class:`~repro.errors.FaultToleranceError`.
        """
        if site not in self.injector.specs:
            # nothing can fault here, so the breaker never leaves
            # closed and there is nothing to retry
            if site not in self._published:
                if site not in FAULT_SITES:
                    raise ValueError(f"unregistered fault site: {site!r}")
                self._publish_breaker_state(site, self._breaker(site))
            return fn()
        if callable(key):
            key = key()
        clock = clock if clock is not None else SimClock()
        breaker = self._breaker(site)
        allowed = breaker.allow()
        self._publish_breaker_state(site, breaker)
        if not allowed:
            self._record("breaker_short_circuit", site)
            if events is not None:
                events.append(FaultEvent(site, "short-circuit",
                                         detail=str(key)))
            if fallback is _RAISE:
                raise CircuitOpenError(
                    f"circuit open at {site} (key={key!r})", site=site,
                )
            return fallback()
        policy = RETRY
        last_fault: InjectedFaultError | None = None
        for attempt in range(policy.max_attempts):
            try:
                self.injector.check(site, key, attempt=attempt, clock=clock)
            except InjectedFaultError as fault:
                last_fault = fault
                self._record("fault", site)
                if events is not None:
                    events.append(FaultEvent(site, "fault",
                                             attempts=attempt + 1,
                                             detail=str(key)))
                tripped = breaker.record_failure()
                if tripped:
                    self._record("breaker_trip", site)
                self._publish_breaker_state(site, breaker)
                if attempt + 1 < policy.max_attempts:
                    with maybe_span(self.tracer, "resilience.retry",
                                    site=site, attempt=attempt + 1):
                        clock.charge_amount(
                            "retry_backoff",
                            policy.backoff(attempt, site, str(key)),
                        )
                    self._record("retry", site)
                    if events is not None:
                        events.append(FaultEvent(site, "retry",
                                                 attempts=attempt + 1))
                continue
            value = fn()
            breaker.record_success()
            self._publish_breaker_state(site, breaker)
            if attempt > 0:
                self._record("recovery", site)
                if events is not None:
                    events.append(FaultEvent(site, "recovered",
                                             attempts=attempt + 1))
            return value
        self._record("exhausted", site)
        if events is not None:
            events.append(FaultEvent(site, "exhausted",
                                     attempts=policy.max_attempts,
                                     detail=str(key)))
        if fallback is _RAISE:
            raise FaultToleranceError(
                f"{site} failed permanently after "
                f"{policy.max_attempts} attempts (key={key!r})",
                site=site,
                attempts=policy.max_attempts,
            ) from last_fault
        if events is not None:
            events.append(FaultEvent(site, "degraded", detail=str(key)))
        return fallback()

    def _publish_breaker_state(
        self, site: str, breaker: CircuitBreaker
    ) -> None:
        """Refresh the ``svqa_breaker_state`` gauge after a transition.

        Called after every breaker consultation; the gauge is written
        only when the state differs from the one last published for
        ``site`` (the first consultation always publishes).
        """
        with self._lock:
            state = breaker.state
            if self._published.get(site) != state:
                self._published[site] = state
                self.stats.record_breaker_state(site, state)

    def _record(self, incident: str, site: str) -> None:
        if incident == "fault":
            self.stats.record_fault(site)
        elif incident == "retry":
            self.stats.record_retry()
        elif incident == "recovery":
            self.stats.record_recovery()
        elif incident == "exhausted":
            self.stats.record_retry_exhausted()
        elif incident == "breaker_trip":
            self.stats.record_breaker_trip()
        elif incident == "breaker_short_circuit":
            self.stats.record_breaker_short_circuit()


__all__ = ["ResilienceConfig", "ResilienceManager"]
