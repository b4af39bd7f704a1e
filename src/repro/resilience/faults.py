"""Deterministic, seeded fault injection at named pipeline sites.

Chaos testing needs faults that are (a) *attributable* — every fault
names the stage it hit — and (b) *reproducible* — two runs with the
same seed inject exactly the same faults.  The injector therefore
derives every decision from a stable hash of ``(seed, site, key)``
rather than from a stateful RNG: thread interleaving cannot perturb
which calls fault, and raising the fault rate strictly grows the
faulted-key set (the decay curves of ``repro chaos`` are monotone by
construction).

Fault *sites* are a closed registry (:data:`FAULT_SITES`); the
RP006 lint rule rejects guard calls against unregistered site names,
so every injection point in the codebase is discoverable from one
table.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import InjectedFaultError
from repro.simtime import SimClock

#: The closed fault-site registry: every site the resilience layer can
#: inject faults at, with the pipeline stage it guards.  Guard calls
#: (``ResilienceManager.call`` / ``FaultInjector.check``) must name a
#: registered site — enforced by lint rule RP006.
FAULT_SITES: dict[str, str] = {
    "parse.question": "question -> query-graph decomposition (Algorithm 2)",
    "detector.detect": "per-image object detection in SGGPipeline.run",
    "relation.predict": "per-image relation prediction in SGGPipeline.run",
    "aggregator.merge": "attaching one scene graph in DataAggregator.merge",
    "cache.scope": "scope-store lookup in the key-centric cache",
    "cache.path": "path-store lookup in the key-centric cache",
    "executor.match": "matchVertex slot resolution in QueryGraphExecutor",
    "store.snapshot": "writing one durable-store snapshot of G_mg",
    "store.wal_append": "appending one mutation to the write-ahead log",
    "store.recover": "snapshot load + WAL replay in DurableStore.recover",
}


@dataclass(frozen=True)
class FaultSpec:
    """How one site misbehaves.

    ``rate`` is the probability that a given ``(site, key)`` faults at
    all; of the faulted keys, ``persistent_fraction`` never recover
    (every attempt fails) while the rest are *transient* and clear
    after ``fail_times`` failed attempts — the shape retry policies are
    built for.  ``latency`` is charged to the :class:`SimClock` per
    fired fault, modelling the time a real failed call burns before
    erroring.
    """

    rate: float = 0.0
    persistent_fraction: float = 0.0
    latency: float = 0.0
    fail_times: int = 1

    def __post_init__(self) -> None:
        """Validate rates and fractions fall in their legal ranges."""
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if not 0.0 <= self.persistent_fraction <= 1.0:
            raise ValueError(
                "persistent_fraction must be in [0, 1], "
                f"got {self.persistent_fraction}"
            )
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.fail_times < 1:
            raise ValueError(
                f"fail_times must be >= 1, got {self.fail_times}"
            )


def _roll(seed: int, site: str, key: str, salt: str) -> float:
    """A uniform [0, 1) value fully determined by its inputs."""
    payload = f"{seed}|{site}|{key}|{salt}".encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


class FaultInjector:
    """Injects faults at registered sites, deterministically.

    The injector is *stateless*: whether attempt ``n`` on
    ``(site, key)`` faults is a pure function of the seed, so the
    injector is trivially thread-safe and identical across runs.
    """

    def __init__(
        self,
        seed: int = 0,
        specs: dict[str, FaultSpec] | None = None,
    ) -> None:
        specs = specs or {}
        for site in specs:
            if site not in FAULT_SITES:
                raise ValueError(
                    f"unregistered fault site: {site!r} "
                    f"(expected one of {sorted(FAULT_SITES)})"
                )
        self.seed = seed
        self.specs = dict(specs)

    def spec_for(self, site: str) -> FaultSpec | None:
        """The fault spec registered for ``site``, if any."""
        if site not in FAULT_SITES:
            raise ValueError(f"unregistered fault site: {site!r}")
        return self.specs.get(site)

    def would_fault(self, site: str, key: object, attempt: int = 0) -> bool:
        """Whether attempt number ``attempt`` on ``(site, key)`` faults."""
        spec = self.spec_for(site)
        if spec is None or spec.rate <= 0.0:
            return False
        key_text = str(key)
        if _roll(self.seed, site, key_text, "fault") >= spec.rate:
            return False
        if _roll(self.seed, site, key_text, "persist") \
                < spec.persistent_fraction:
            return True  # persistent: every attempt fails
        return attempt < spec.fail_times

    def check(
        self,
        site: str,
        key: object,
        attempt: int = 0,
        clock: SimClock | None = None,
    ) -> None:
        """Raise :class:`~repro.errors.InjectedFaultError` if this
        attempt faults, charging the fault's latency on ``clock``."""
        if not self.would_fault(site, key, attempt):
            return
        spec = self.specs[site]
        if clock is not None and spec.latency > 0:
            clock.charge_amount("fault_delay", spec.latency)
        raise InjectedFaultError(
            f"injected fault at {site} (key={key!r}, attempt {attempt})",
            site=site,
            attempts=attempt + 1,
        )


__all__ = ["FAULT_SITES", "FaultInjector", "FaultSpec"]
