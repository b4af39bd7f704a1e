"""Per-stage circuit breaker: trip after repeated faults, route around.

Classic three-state breaker, except the open-state cooldown is counted
in *rejected calls* rather than wall-clock time — call counts are
deterministic under the SimClock regime, wall-clock is not.

* **closed** — calls flow; ``failure_threshold`` consecutive failures
  trip the breaker open.
* **open** — calls are short-circuited (the caller routes around the
  stage, e.g. cache bypass); after ``cooldown`` rejections the breaker
  moves to half-open.
* **half-open** — exactly one probe call is let through: success
  closes the breaker, failure re-opens it.

The class is lock-disciplined (RP003): every public method mutates
state only under ``self._lock``.
"""

from __future__ import annotations

import threading

from repro.locks import wrap_lock

#: breaker states
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: consecutive failures that open a circuit
BREAKER_THRESHOLD = 3

#: calls an open circuit short-circuits before it half-opens
BREAKER_COOLDOWN = 8


class CircuitBreaker:
    """One stage's trip/half-open/reset state machine."""

    def __init__(self, failure_threshold: int = BREAKER_THRESHOLD,
                 cooldown: int = BREAKER_COOLDOWN) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown < 1:
            raise ValueError(f"cooldown must be >= 1, got {cooldown}")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._lock = wrap_lock(threading.Lock(), "resilience.breaker")
        self._state = CLOSED
        self._consecutive_failures = 0
        self._rejections_since_open = 0

    @property
    def state(self) -> str:
        """Current breaker state: closed, half-open, or open."""
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether the next call may proceed.

        Open-state rejections count toward the cooldown; the call that
        finds the cooldown exhausted becomes the half-open probe.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN:
                # one probe is already in flight; reject concurrents
                return False
            self._rejections_since_open += 1
            if self._rejections_since_open >= self.cooldown:
                self._state = HALF_OPEN
                return True
            return False

    def record_success(self) -> None:
        """The guarded call succeeded: reset (closes a half-open probe)."""
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0
            self._rejections_since_open = 0

    def record_failure(self) -> bool:
        """The guarded call failed; returns True when this trips open."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._state = OPEN
                self._rejections_since_open = 0
                return True
            self._consecutive_failures += 1
            if self._state == CLOSED and \
                    self._consecutive_failures >= self.failure_threshold:
                self._state = OPEN
                self._rejections_since_open = 0
                return True
            return False


__all__ = ["CLOSED", "CircuitBreaker", "HALF_OPEN", "OPEN"]
