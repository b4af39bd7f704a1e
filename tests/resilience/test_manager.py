"""Tests for the ResilienceManager guard (retry + breaker + fallback)."""

import pytest

from repro.core.stats import BREAKER_STATE_VALUES, ExecutorStats
from repro.errors import CircuitOpenError, FaultToleranceError
from repro.resilience import (
    FaultSpec,
    OPEN,
    ResilienceConfig,
    ResilienceManager,
    RetryPolicy,
)
from repro.observability import parse_prometheus
from repro.resilience import manager as manager_module
from repro.resilience.faults import FAULT_SITES
from repro.simtime import SimClock

SITE = "executor.match"


def manager(spec=None, stats=None, **config_kwargs):
    specs = {SITE: spec} if spec is not None else {}
    return ResilienceManager(
        ResilienceConfig(fault_specs=specs, **config_kwargs), stats=stats
    )


def limits(monkeypatch, **constants):
    """Patch the manager's retry and breaker constants for one test
    (``breaker_threshold=1`` sets ``BREAKER_THRESHOLD``)."""
    for name, value in constants.items():
        monkeypatch.setattr(manager_module, name.upper(), value)


class TestGuard:
    def test_value_passes_through_unguarded(self):
        assert manager().call(SITE, "k", lambda: 42) == 42

    def test_unregistered_site_rejected(self):
        with pytest.raises(ValueError):
            manager().call("not.a.site", "k", lambda: 42)

    def test_transient_fault_retries_then_succeeds(self):
        stats = ExecutorStats()
        guard = manager(FaultSpec(rate=1.0, fail_times=1), stats=stats)
        events = []
        clock = SimClock()
        assert guard.call(SITE, "k", lambda: "ok", clock=clock,
                          events=events) == "ok"
        kinds = [e.kind for e in events]
        assert kinds == ["fault", "retry", "recovered"]
        report = stats.snapshot()
        assert report.faults_injected == 1
        assert report.retry_attempts == 1
        assert report.retry_recoveries == 1
        assert report.retries_exhausted == 0
        assert clock.elapsed > 0  # fault latency + backoff were charged

    def test_persistent_fault_exhausts_and_raises(self):
        stats = ExecutorStats()
        guard = manager(FaultSpec(rate=1.0, persistent_fraction=1.0),
                        stats=stats)
        calls = []
        with pytest.raises(FaultToleranceError) as excinfo:
            guard.call(SITE, "k", lambda: calls.append(1))
        assert excinfo.value.site == SITE
        assert excinfo.value.attempts == manager_module.RETRY.max_attempts
        assert not calls  # the guarded fn never ran
        assert stats.snapshot().retries_exhausted == 1

    def test_exhaustion_runs_fallback_instead_of_raising(self):
        guard = manager(FaultSpec(rate=1.0, persistent_fraction=1.0))
        events = []
        value = guard.call(SITE, "k", lambda: "never", events=events,
                           fallback=lambda: "salvaged")
        assert value == "salvaged"
        assert events[-1].kind == "degraded"
        assert any(e.kind == "exhausted" for e in events)

    def test_backoff_is_charged_in_simulated_time(self, monkeypatch):
        limits(monkeypatch, retry=RetryPolicy(max_attempts=3,
                                              backoff_base=0.1,
                                              backoff_multiplier=2.0,
                                              jitter=0.0))
        guard = manager(FaultSpec(rate=1.0, persistent_fraction=1.0))
        clock = SimClock()
        with pytest.raises(FaultToleranceError):
            guard.call(SITE, "k", lambda: None, clock=clock)
        # two backoffs between three attempts: 0.1 + 0.2
        assert clock.elapsed == pytest.approx(0.3)


class TestBreakerIntegration:
    def trip_site(self, guard):
        """Exhaust retries until the site's breaker opens."""
        while guard.breaker_states()[SITE] != OPEN:
            with pytest.raises(FaultToleranceError):
                guard.call(SITE, "k", lambda: None)

    def test_repeated_faults_trip_the_breaker(self, monkeypatch):
        limits(monkeypatch, breaker_threshold=3)
        stats = ExecutorStats()
        guard = manager(FaultSpec(rate=1.0, persistent_fraction=1.0),
                        stats=stats)
        self.trip_site(guard)
        assert stats.snapshot().breaker_trips == 1

    def test_open_breaker_short_circuits_to_fallback(self, monkeypatch):
        limits(monkeypatch, breaker_threshold=3, breaker_cooldown=100)
        stats = ExecutorStats()
        guard = manager(FaultSpec(rate=1.0, persistent_fraction=1.0),
                        stats=stats)
        self.trip_site(guard)
        events = []
        value = guard.call(SITE, "other", lambda: "never",
                           events=events, fallback=lambda: "bypassed")
        assert value == "bypassed"
        assert events[0].kind == "short-circuit"
        assert stats.snapshot().breaker_short_circuits == 1

    def test_open_breaker_raises_without_fallback(self, monkeypatch):
        limits(monkeypatch, breaker_threshold=3, breaker_cooldown=100)
        guard = manager(FaultSpec(rate=1.0, persistent_fraction=1.0))
        self.trip_site(guard)
        with pytest.raises(CircuitOpenError):
            guard.call(SITE, "other", lambda: "never")

    def test_breaker_recovers_through_half_open_probe(self, monkeypatch):
        limits(monkeypatch, breaker_threshold=1, breaker_cooldown=2)
        guard = manager(FaultSpec(rate=0.0))
        breaker = guard._breaker(SITE)
        breaker.record_failure()  # trip
        assert guard.breaker_states()[SITE] == OPEN
        # first guarded call is rejected (cooldown), second is the probe
        assert guard.call(SITE, "k", lambda: "ok",
                          fallback=lambda: "rejected") == "rejected"
        assert guard.call(SITE, "k", lambda: "ok") == "ok"
        assert guard.breaker_states()[SITE] == "closed"


class TestBreakerGauge:
    """``svqa_breaker_state`` is written on transitions only, yet every
    state the breaker passes through still reaches ``/metrics``."""

    @staticmethod
    def exposed(stats):
        """The site's gauge value in the Prometheus exposition."""
        families = parse_prometheus(stats.registry.to_prometheus())
        samples = families.get("svqa_breaker_state", {"samples": []})
        for _, labels, value in samples["samples"]:
            if labels["site"] == SITE:
                return value
        return None

    @staticmethod
    def recording(stats):
        writes = []
        publish = stats.record_breaker_state

        def record(site, state):
            writes.append(state)
            publish(site, state)

        stats.record_breaker_state = record
        return writes

    def test_trip_half_open_and_recovery_reach_metrics(self, monkeypatch):
        limits(monkeypatch, breaker_threshold=1, breaker_cooldown=2)
        stats = ExecutorStats()
        writes = self.recording(stats)
        guard = manager(FaultSpec(rate=0.0), stats=stats)
        for _ in range(3):
            assert guard.call(SITE, "k", lambda: "ok") == "ok"
        assert writes == ["closed"]
        assert self.exposed(stats) == BREAKER_STATE_VALUES["closed"]
        guard._breaker(SITE).record_failure()  # trip
        assert guard.call(SITE, "k", lambda: "ok",
                          fallback=lambda: "rejected") == "rejected"
        assert self.exposed(stats) == BREAKER_STATE_VALUES["open"]
        # the next call is the half-open probe: read the gauge inside it
        probed = guard.call(SITE, "k", lambda: self.exposed(stats))
        assert probed == BREAKER_STATE_VALUES["half-open"]
        assert self.exposed(stats) == BREAKER_STATE_VALUES["closed"]
        assert writes == ["closed", "open", "half-open", "closed"]

    def test_injected_faults_trip_the_gauge_open(self, monkeypatch):
        limits(monkeypatch, breaker_threshold=3, breaker_cooldown=100)
        stats = ExecutorStats()
        guard = manager(FaultSpec(rate=1.0, persistent_fraction=1.0),
                        stats=stats)
        TestBreakerIntegration().trip_site(guard)
        assert self.exposed(stats) == BREAKER_STATE_VALUES["open"]

    def test_publish_breaker_states_covers_every_site(self):
        stats = ExecutorStats()
        guard = manager(stats=stats)
        guard.call(SITE, "k", lambda: "ok")
        writes = self.recording(stats)
        guard.publish_breaker_states()
        # the consulted site was already published
        assert writes == ["closed"] * (len(FAULT_SITES) - 1)
        samples = parse_prometheus(stats.registry.to_prometheus())[
            "svqa_breaker_state"]["samples"]
        assert sorted(labels["site"] for _, labels, _ in samples) == \
            sorted(FAULT_SITES)


class TestDeadlineFactory:
    def test_no_deadline_configured_returns_none(self):
        assert manager().deadline(SimClock()) is None

    def test_deadline_budget_starts_at_current_elapsed(self):
        guard = manager(query_deadline=1.5)
        clock = SimClock()
        clock.charge_amount("warmup", 2.0)
        budget = guard.deadline(clock)
        assert budget is not None
        assert budget.limit == 1.5
        assert budget.consumed == pytest.approx(0.0)


class TestChaosConfig:
    def test_chaos_config_covers_all_sites(self):
        from repro.resilience import FAULT_SITES

        config = ResilienceConfig.chaos(0.2, seed=9)
        assert set(config.fault_specs) == set(FAULT_SITES)
        assert all(s.rate == 0.2 for s in config.fault_specs.values())
        assert config.seed == 9
