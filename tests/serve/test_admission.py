"""Admission control: token buckets, in-flight accounting, and determinism."""

import pytest

from repro.serve.admission import AdmissionController, TokenBucket


class FakeClock:
    """A settable simulated-time source."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_burst_then_empty(self):
        bucket = TokenBucket(rate=1.0, burst=2, now=0.0)
        assert bucket.try_take(0.0) == (True, 0.0)
        assert bucket.try_take(0.0) == (True, 0.0)
        granted, retry_after = bucket.try_take(0.0)
        assert not granted
        assert retry_after == pytest.approx(1.0)

    def test_refills_with_simulated_time(self):
        bucket = TokenBucket(rate=2.0, burst=1, now=0.0)
        assert bucket.try_take(0.0)[0]
        assert not bucket.try_take(0.0)[0]
        # half a simulated second accrues one token at rate 2/s
        assert bucket.try_take(0.5)[0]

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3, now=0.0)
        bucket._refill(1000.0)
        assert bucket.tokens == 3.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1, now=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0, now=0.0)


class TestRateLimiting:
    def test_429_after_burst_with_retry_hint(self):
        clock = FakeClock()
        admission = AdmissionController(clock, rate=1.0, burst=2)
        assert admission.admit("alice").admitted
        admission.release()
        assert admission.admit("alice").admitted
        admission.release()
        decision = admission.admit("alice")
        assert not decision.admitted
        assert decision.status == 429
        assert decision.reason == "rate-limited"
        assert decision.retry_after_s == pytest.approx(1.0)

    def test_buckets_are_per_client(self):
        admission = AdmissionController(FakeClock(), rate=1.0, burst=1)
        assert admission.admit("alice").admitted
        # alice is out of tokens; bob is not
        assert admission.admit("bob").admitted

    def test_tokens_refill_as_simulated_time_advances(self):
        clock = FakeClock()
        admission = AdmissionController(clock, rate=10.0, burst=1)
        assert admission.admit("c").admitted
        admission.release()
        assert admission.admit("c").status == 429
        clock.now = 0.1  # one token at 10 tokens/sim-second
        assert admission.admit("c").admitted


class TestInFlight:
    def test_in_flight_counts_admitted_until_release(self):
        admission = AdmissionController(FakeClock(), rate=1.0, burst=1)
        assert admission.admit("a").admitted
        assert admission.admit("b").admitted
        assert admission.in_flight == 2
        admission.release()
        assert admission.in_flight == 1
        # a refusal is never counted in flight
        assert admission.admit("a").status == 429
        assert admission.in_flight == 1

    def test_release_requires_matching_admit(self):
        admission = AdmissionController(FakeClock())
        with pytest.raises(RuntimeError):
            admission.release()


class TestDeterminism:
    def drive(self):
        admission = AdmissionController(FakeClock(), rate=5.0, burst=3)
        held = 0
        decisions = []
        for step in range(60):
            client = f"client-{step % 3}"
            decision = admission.admit(client)
            decisions.append((client, decision.reason,
                              decision.status,
                              decision.retry_after_s))
            if decision.admitted:
                held += 1
            if held and step % 4 == 3:
                admission.release()
                held -= 1
        return decisions

    def test_same_sequence_same_decisions(self):
        decisions = self.drive()
        assert decisions == self.drive()
        assert {reason for _, reason, _, _ in decisions} == \
            {"admitted", "rate-limited"}
