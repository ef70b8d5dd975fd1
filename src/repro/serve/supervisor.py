"""Supervision layer between the serve daemon and its execution backends.

The daemon (:mod:`repro.serve.daemon`) trusts nothing below it to behave:
workers crash, hang, wedge and OOM; cache appends tear. This module is the
policy brain that keeps the *serving path* alive through all of that, in
three pieces the daemon composes:

* :class:`AdmissionController` — a bounded in-flight request budget with
  per-kind concurrency limits. Admission is grant-or-shed, never queue:
  an over-budget request gets a structured ``overloaded`` error with a
  ``retry_after`` hint instead of parking on an unbounded wait. Shed
  counts and live depth are reported through ``stats``.
* :class:`CircuitBreaker` / :class:`BreakerBoard` — per-key failure
  history. ``failure_threshold`` consecutive crash/hang/memout outcomes
  trip the key open; while open, requests for it get an immediate
  structured ``poisoned`` error carrying the last failure, with no worker
  spawned. After ``cooldown`` seconds the breaker goes half-open and lets
  exactly one probe through: success closes it, failure re-opens it.
* :class:`Supervisor` — the bundle the daemon owns: one admission
  controller, one breaker board and the memout and poisoned counters, with a
  single ``snapshot()`` merged into the daemon's ``stats`` response.

Everything takes an injectable ``clock`` so the state machines are tested
with a fake clock instead of sleeps.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple

#: breaker states, as reported in ``stats``.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: consecutive failures that trip a breaker open.
DEFAULT_FAILURE_THRESHOLD = 3
#: seconds an open breaker waits before allowing a half-open probe.
DEFAULT_COOLDOWN = 30.0


class OverloadedError(Exception):
    """Admission shed: the in-flight budget (total or per-kind) is full.

    Carries ``retry_after`` — a coarse client hint, seconds — and the
    dimension that was full (``"total"`` or the request kind).
    """

    def __init__(self, message: str, retry_after: float, dimension: str):
        super().__init__(message)
        self.retry_after = retry_after
        self.dimension = dimension


class PoisonedError(Exception):
    """Breaker open: this key has failed repeatedly; request refused.

    ``last_failure`` is the recorded ``{"status": ..., "error": ...}`` of
    the failure that tripped (or most recently re-opened) the breaker, and
    ``retry_after`` the seconds until the next half-open probe window.
    """

    def __init__(self, message: str, last_failure: Dict[str, object], retry_after: float):
        super().__init__(message)
        self.last_failure = last_failure
        self.retry_after = retry_after


class AdmissionController:
    """Grant-or-shed admission with a total and per-kind in-flight budget.

    ``admit(kind)`` either returns a release callable (call it exactly once
    when the request finishes, success or not) or raises
    :class:`OverloadedError`. Nothing ever queues here — bounded waiting
    happens *after* admission, on the daemon's executor slots, and is
    bounded precisely because admission is.
    """

    def __init__(
        self,
        total_limit: int,
        kind_limits: Optional[Dict[str, int]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if total_limit < 1:
            raise ValueError("total_limit must be >= 1")
        self.total_limit = total_limit
        self.kind_limits = dict(kind_limits or {})
        self._clock = clock
        self.inflight_total = 0
        self.inflight: Dict[str, int] = {}
        self.shed: Dict[str, int] = {}
        self.admitted = 0

    def _retry_after(self) -> float:
        """Coarse hint: scale with how saturated the budget is."""
        return round(0.5 * (1 + self.inflight_total), 2)

    def admit(self, kind: str) -> Callable[[], None]:
        limit = self.kind_limits.get(kind)
        if self.inflight_total >= self.total_limit:
            self.shed[kind] = self.shed.get(kind, 0) + 1
            raise OverloadedError(
                "overloaded: %d requests in flight (budget %d)"
                % (self.inflight_total, self.total_limit),
                retry_after=self._retry_after(),
                dimension="total",
            )
        if limit is not None and self.inflight.get(kind, 0) >= limit:
            self.shed[kind] = self.shed.get(kind, 0) + 1
            raise OverloadedError(
                "overloaded: %d %r requests in flight (per-kind budget %d)"
                % (self.inflight.get(kind, 0), kind, limit),
                retry_after=self._retry_after(),
                dimension=kind,
            )
        self.inflight_total += 1
        self.inflight[kind] = self.inflight.get(kind, 0) + 1
        self.admitted += 1
        released = [False]

        def release() -> None:
            if released[0]:  # idempotent: error paths may double-release
                return
            released[0] = True
            self.inflight_total -= 1
            self.inflight[kind] -= 1

        return release

    def snapshot(self) -> Dict[str, object]:
        return {
            "inflight": self.inflight_total,
            "inflight_by_kind": {k: v for k, v in self.inflight.items() if v},
            "limit": self.total_limit,
            "kind_limits": dict(self.kind_limits),
            "admitted": self.admitted,
            "shed": dict(self.shed),
            "shed_total": sum(self.shed.values()),
        }


class CircuitBreaker:
    """Per-key failure history: closed → open → half-open → closed.

    Success in any state resets to closed. ``failure_threshold``
    *consecutive* failures trip open. While open, :meth:`check` raises
    :class:`PoisonedError`; after ``cooldown`` seconds one probe is let
    through (half-open) — its failure re-opens, its success closes.
    """

    def __init__(
        self,
        key: str,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        cooldown: float = DEFAULT_COOLDOWN,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.key = key
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self.state = CLOSED
        self.consecutive_failures = 0
        self.trips = 0
        self.opened_at: Optional[float] = None
        self.last_failure: Optional[Dict[str, object]] = None
        self._probe_out = False

    def check(self) -> None:
        """Gate a request on this key; raises :class:`PoisonedError` when
        the breaker is open (or a half-open probe is already out)."""
        if self.state == CLOSED:
            return
        now = self._clock()
        opened_at = self.opened_at if self.opened_at is not None else now
        elapsed = now - opened_at
        if self.state == OPEN and elapsed >= self.cooldown:
            self.state = HALF_OPEN
            self._probe_out = False
        if self.state == HALF_OPEN and not self._probe_out:
            self._probe_out = True  # this request is the probe
            return
        retry_after = max(0.0, self.cooldown - elapsed) if self.state == OPEN else self.cooldown
        raise PoisonedError(
            "poisoned: %s failed %d consecutive time(s); breaker %s"
            % (self.key, self.consecutive_failures, self.state),
            last_failure=dict(self.last_failure or {}),
            retry_after=round(retry_after, 2),
        )

    def record_failure(self, status: str, error: Optional[str] = None) -> None:
        self.consecutive_failures += 1
        self.last_failure = {"status": status, "error": error}
        if self.state == HALF_OPEN or (
            self.state == CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            if self.state != OPEN:
                self.trips += 1
            self.state = OPEN
            self.opened_at = self._clock()
            self._probe_out = False

    def record_success(self) -> None:
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = None
        self._probe_out = False


class BreakerBoard:
    """All the daemon's breakers, created on first failure-capable use."""

    def __init__(
        self,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        cooldown: float = DEFAULT_COOLDOWN,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._breakers: Dict[str, CircuitBreaker] = {}

    def breaker(self, key: str) -> CircuitBreaker:
        b = self._breakers.get(key)
        if b is None:
            b = CircuitBreaker(
                key,
                failure_threshold=self.failure_threshold,
                cooldown=self.cooldown,
                clock=self._clock,
            )
            self._breakers[key] = b
        return b

    def snapshot(self) -> Dict[str, object]:
        by_state = {CLOSED: 0, OPEN: 0, HALF_OPEN: 0}
        open_keys = []
        trips = 0
        for b in self._breakers.values():
            by_state[b.state] += 1
            trips += b.trips
            if b.state != CLOSED:
                open_keys.append(b.key)
        return {
            "tracked": len(self._breakers),
            "open": by_state[OPEN],
            "half_open": by_state[HALF_OPEN],
            "trips": trips,
            "open_keys": sorted(open_keys)[:16],
        }


class Supervisor:
    """The daemon's one-stop supervision bundle."""

    #: statuses a breaker counts as key-poisoning failures. ``deadline``
    #: and ``interrupted`` deliberately excluded: time ran out or the
    #: operator preempted — neither says the *key* is poisonous.
    FAILURE_STATUSES = ("crash", "hard-timeout", "memout", "stuck")

    def __init__(
        self,
        total_limit: int,
        kind_limits: Optional[Dict[str, int]] = None,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        cooldown: float = DEFAULT_COOLDOWN,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.admission = AdmissionController(total_limit, kind_limits, clock=clock)
        self.breakers = BreakerBoard(
            failure_threshold=failure_threshold, cooldown=cooldown, clock=clock
        )
        self.memouts = 0
        self.poisoned = 0

    # -- admission ---------------------------------------------------------

    def admit(self, kind: str) -> Callable[[], None]:
        return self.admission.admit(kind)

    # -- breakers ----------------------------------------------------------

    @staticmethod
    def task_breaker_key(key: Tuple[str, str, str]) -> str:
        return "task:%s|%s|%s" % key

    @staticmethod
    def family_breaker_key(family: str) -> str:
        return "family:%s" % family

    def check(self, breaker_key: str) -> CircuitBreaker:
        """Breaker gate; counts the shed and re-raises on open."""
        breaker = self.breakers.breaker(breaker_key)
        try:
            breaker.check()
        except PoisonedError:
            self.poisoned += 1
            raise
        return breaker

    def record_outcome(
        self, breaker: CircuitBreaker, status: str, error: Optional[str] = None
    ) -> None:
        if status in self.FAILURE_STATUSES:
            if status == "memout":
                self.memouts += 1
            breaker.record_failure(status, error)
        else:
            breaker.record_success()

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "admission": self.admission.snapshot(),
            "breakers": self.breakers.snapshot(),
            "memouts": self.memouts,
            "poisoned": self.poisoned,
        }
