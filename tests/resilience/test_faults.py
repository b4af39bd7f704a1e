"""Tests for the deterministic seeded fault injector."""

import pytest

from repro.errors import InjectedFaultError
from repro.resilience import (
    FAULT_SITES,
    FaultInjector,
    FaultSpec,
    ResilienceConfig,
)
from repro.simtime import SimClock

SITE = "executor.match"
KEYS = [f"key-{i}" for i in range(400)]


def chaos_injector(rate, seed=0):
    """The injector a chaos run at ``rate`` builds: one spec at every
    registered site."""
    specs = ResilienceConfig.chaos(rate, seed=seed).fault_specs
    return FaultInjector(seed=seed, specs=specs)


class TestFaultSpec:
    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultSpec(rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(rate=-0.1)

    def test_fail_times_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultSpec(rate=0.1, fail_times=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(rate=0.1, latency=-1.0)


class TestRegistry:
    def test_unregistered_site_rejected_at_construction(self):
        with pytest.raises(ValueError):
            FaultInjector(specs={"nonexistent.site": FaultSpec(rate=0.5)})

    def test_unregistered_site_rejected_at_query(self):
        injector = chaos_injector(0.5)
        with pytest.raises(ValueError):
            injector.would_fault("nonexistent.site", "k")

    def test_uniform_covers_every_site(self):
        injector = chaos_injector(0.5)
        assert set(injector.specs) == set(FAULT_SITES)


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        a = chaos_injector(0.3, seed=7)
        b = chaos_injector(0.3, seed=7)
        decisions_a = [a.would_fault(SITE, k) for k in KEYS]
        decisions_b = [b.would_fault(SITE, k) for k in KEYS]
        assert decisions_a == decisions_b

    def test_different_seeds_differ(self):
        a = chaos_injector(0.3, seed=1)
        b = chaos_injector(0.3, seed=2)
        assert [a.would_fault(SITE, k) for k in KEYS] != \
            [b.would_fault(SITE, k) for k in KEYS]

    def test_rate_zero_never_faults(self):
        injector = chaos_injector(0.0)
        assert not any(injector.would_fault(SITE, k) for k in KEYS)

    def test_rate_one_always_faults(self):
        injector = chaos_injector(1.0)
        assert all(injector.would_fault(SITE, k) for k in KEYS)

    def test_raising_rate_grows_faulted_set_monotonically(self):
        low = chaos_injector(0.05, seed=3)
        high = chaos_injector(0.4, seed=3)
        low_set = {k for k in KEYS if low.would_fault(SITE, k)}
        high_set = {k for k in KEYS if high.would_fault(SITE, k)}
        assert low_set  # the sample is large enough to fault something
        assert low_set <= high_set


class TestTransience:
    def test_transient_faults_clear_after_fail_times(self):
        spec = FaultSpec(rate=1.0, persistent_fraction=0.0, fail_times=2)
        injector = FaultInjector(seed=0, specs={SITE: spec})
        assert injector.would_fault(SITE, "k", attempt=0)
        assert injector.would_fault(SITE, "k", attempt=1)
        assert not injector.would_fault(SITE, "k", attempt=2)

    def test_persistent_faults_never_clear(self):
        spec = FaultSpec(rate=1.0, persistent_fraction=1.0, fail_times=1)
        injector = FaultInjector(seed=0, specs={SITE: spec})
        assert all(injector.would_fault(SITE, "k", attempt=n)
                   for n in range(10))


class TestCheck:
    def test_check_raises_and_charges_latency(self):
        spec = FaultSpec(rate=1.0, latency=0.5)
        injector = FaultInjector(seed=0, specs={SITE: spec})
        clock = SimClock()
        with pytest.raises(InjectedFaultError) as excinfo:
            injector.check(SITE, "k", clock=clock)
        assert excinfo.value.site == SITE
        assert clock.elapsed == pytest.approx(0.5)

    def test_check_passes_quietly_when_no_fault(self):
        injector = chaos_injector(0.0)
        clock = SimClock()
        injector.check(SITE, "k", clock=clock)
        assert clock.elapsed == 0.0
