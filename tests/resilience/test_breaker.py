"""Tests for the call-count circuit breaker state machine."""

import pytest

from repro.resilience import CLOSED, CircuitBreaker, HALF_OPEN, OPEN


def trip(breaker):
    """Fail until the breaker opens; how many failures tripped it."""
    return sum(breaker.record_failure()
               for _ in range(breaker.failure_threshold))


class TestTrip:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0)

    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.record_failure()  # third consecutive: trips
        assert breaker.state == OPEN
        assert not breaker.record_failure()  # already open: no new trip

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert not breaker.record_failure()
        assert breaker.state == CLOSED


class TestCooldownAndHalfOpen:
    def test_open_rejects_for_cooldown_calls_then_probes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=3)
        trip(breaker)
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.allow()  # third rejection exhausts the cooldown
        assert breaker.state == HALF_OPEN

    def test_half_open_rejects_concurrent_probes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        trip(breaker)
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # concurrent call while probing

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        trip(breaker)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1)
        trips = trip(breaker)
        assert breaker.allow()
        assert breaker.record_failure()
        trips += 1
        assert breaker.state == OPEN
        assert trips == 2
