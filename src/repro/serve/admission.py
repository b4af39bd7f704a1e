"""Admission control: per-client rate limiting.

The serving layer refuses work it cannot absorb *before* the work
starts, with structured, attributable errors: each client id owns a
token bucket of ``burst`` tokens refilled at ``rate`` tokens per
*simulated* second (the service clock is the SVQA system's
:class:`~repro.simtime.SimClock`, so admission behaviour is a pure
function of the request sequence and replays byte-identically); an
empty bucket answers **429** with a ``retry_after_s`` hint.  How many
requests may wait is bounded elsewhere: the front end caps open
connections (``MAX_CONNECTIONS``) and the app runs on at most
``max_batch`` threads.

Every decision is an :class:`AdmissionDecision` carrying the HTTP
status, machine-readable reason, and retry hint the contract layer
serializes into the error body.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass

from repro.locks import wrap_lock


@dataclass(frozen=True)
class AdmissionDecision:
    """One admit-or-refuse verdict, ready for serialization.

    ``reason`` is the machine-readable outcome (``admitted`` or
    ``rate-limited``, the ``outcome`` label of
    ``svqa_admission_total``); ``retry_after_s`` is
    the simulated seconds until the client's bucket accrues a token
    (rate-limit refusals only).
    """

    admitted: bool
    reason: str
    status: int
    retry_after_s: float | None = None


class TokenBucket:
    """A single client's bucket: ``burst`` capacity, ``rate``/sim-s.

    Not thread-safe on its own — the owning
    :class:`AdmissionController` serializes access under its lock.
    """

    __slots__ = ("rate", "burst", "tokens", "updated_at")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated_at = now

    def _refill(self, now: float) -> None:
        if now > self.updated_at:
            self.tokens = min(
                self.burst,
                self.tokens + (now - self.updated_at) * self.rate,
            )
            self.updated_at = now

    def try_take(self, now: float) -> tuple[bool, float]:
        """``(granted, retry_after_s)`` for one request at ``now``."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / self.rate


class AdmissionController:
    """Thread-safe admission state shared by every request thread.

    ``clock`` is a zero-arg callable returning the current simulated
    time (the serving layer passes ``lambda: svqa.clock.elapsed``);
    because simulated time only advances when queries do work, two
    identical request sequences against fresh servers see identical
    bucket levels — decision sequences are byte-identical.

    Callers must pair every admitted request with exactly one
    :meth:`release` (the request's ``finally`` block).
    """

    def __init__(
        self,
        clock: Callable[[], float],
        rate: float = 10.0,
        burst: int = 20,
    ) -> None:
        self.clock = clock
        self.rate = rate
        self.burst = burst
        self._lock = wrap_lock(threading.Lock(), "serve.admission")
        self._buckets: dict[str, TokenBucket] = {}
        self._in_flight = 0

    @property
    def in_flight(self) -> int:
        """Requests admitted and not yet released."""
        with self._lock:
            return self._in_flight

    def admit(self, client: str) -> AdmissionDecision:
        """Decide one request; pairs with :meth:`release` if admitted."""
        now = self.clock()
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, now)
                self._buckets[client] = bucket
            granted, retry_after = bucket.try_take(now)
            if not granted:
                return AdmissionDecision(
                    False, "rate-limited", 429,
                    retry_after_s=round(retry_after, 9),
                )
            self._in_flight += 1
            return AdmissionDecision(True, "admitted", 200)

    def release(self) -> None:
        """One admitted request finished (success or failure)."""
        with self._lock:
            if self._in_flight <= 0:
                raise RuntimeError(
                    "release() without a matching admitted request"
                )
            self._in_flight -= 1


__all__ = ["AdmissionController", "AdmissionDecision", "TokenBucket"]
