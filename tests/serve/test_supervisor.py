"""Unit tests for the supervision layer: admission, breakers, socket
claiming, and the cache's ok-only gate.

Every state machine takes an injectable clock, so nothing here sleeps.
"""

import os
import socket

import pytest

from repro.core.result import Outcome
from repro.evalx.parallel import Record, ResultsLog, STATUS_OK
from repro.evalx.runner import Measurement
from repro.serve.daemon import ServeDaemon, claim_socket_path
from repro.serve.supervisor import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionController,
    BreakerBoard,
    CircuitBreaker,
    OverloadedError,
    PoisonedError,
    Supervisor,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- admission ---------------------------------------------------------------


class TestAdmissionController:
    def test_grants_until_total_budget_then_sheds(self):
        adm = AdmissionController(total_limit=2, clock=FakeClock())
        r1 = adm.admit("solve")
        r2 = adm.admit("solve")
        with pytest.raises(OverloadedError) as exc:
            adm.admit("solve")
        assert exc.value.dimension == "total"
        assert exc.value.retry_after > 0
        r1()
        r2()
        adm.admit("solve")  # budget freed: grants again

    def test_per_kind_budget_sheds_before_total(self):
        adm = AdmissionController(
            total_limit=10, kind_limits={"smv-diameter": 1}, clock=FakeClock()
        )
        adm.admit("smv-diameter")
        with pytest.raises(OverloadedError) as exc:
            adm.admit("smv-diameter")
        assert exc.value.dimension == "smv-diameter"
        # Other kinds are unaffected by the full smv lane.
        adm.admit("solve")

    def test_release_is_idempotent(self):
        adm = AdmissionController(total_limit=1, clock=FakeClock())
        release = adm.admit("solve")
        release()
        release()  # double-release must not free a phantom slot
        assert adm.inflight_total == 0
        adm.admit("solve")
        with pytest.raises(OverloadedError):
            adm.admit("solve")

    def test_snapshot_reconciles_with_traffic(self):
        adm = AdmissionController(
            total_limit=2, kind_limits={"solve": 2}, clock=FakeClock()
        )
        release = adm.admit("solve")
        adm.admit("smv-diameter")
        for _ in range(3):
            with pytest.raises(OverloadedError):
                adm.admit("solve")
        release()
        snap = adm.snapshot()
        assert snap["admitted"] == 2
        assert snap["shed_total"] == 3
        assert snap["shed"] == {"solve": 3}
        assert snap["inflight"] == 1
        assert snap["inflight_by_kind"] == {"smv-diameter": 1}


# -- circuit breakers --------------------------------------------------------


class TestCircuitBreaker:
    def make(self, clock, threshold=3, cooldown=30.0):
        return CircuitBreaker(
            "task:x", failure_threshold=threshold, cooldown=cooldown, clock=clock
        )

    def test_trips_open_at_threshold(self):
        b = self.make(FakeClock())
        b.record_failure("crash", "boom 1")
        b.record_failure("crash", "boom 2")
        assert b.state == CLOSED
        b.record_failure("memout", "boom 3")
        assert b.state == OPEN
        assert b.trips == 1

    def test_open_breaker_refuses_with_last_failure(self):
        clock = FakeClock()
        b = self.make(clock)
        for i in range(3):
            b.record_failure("crash", "boom %d" % i)
        with pytest.raises(PoisonedError) as exc:
            b.check()
        assert exc.value.last_failure == {"status": "crash", "error": "boom 2"}
        assert 0 < exc.value.retry_after <= 30.0

    def test_success_resets_consecutive_count(self):
        b = self.make(FakeClock())
        b.record_failure("crash")
        b.record_failure("crash")
        b.record_success()
        b.record_failure("crash")
        b.record_failure("crash")
        assert b.state == CLOSED  # never 3 *consecutive* failures

    def test_half_open_allows_exactly_one_probe(self):
        clock = FakeClock()
        b = self.make(clock, cooldown=10.0)
        for _ in range(3):
            b.record_failure("crash")
        clock.advance(10.0)
        b.check()  # the probe: admitted silently
        assert b.state == HALF_OPEN
        with pytest.raises(PoisonedError):
            b.check()  # second request while the probe is out

    def test_probe_success_closes(self):
        clock = FakeClock()
        b = self.make(clock, cooldown=10.0)
        for _ in range(3):
            b.record_failure("crash")
        clock.advance(10.0)
        b.check()
        b.record_success()
        assert b.state == CLOSED
        b.check()  # closed again: no exception

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        b = self.make(clock, cooldown=10.0)
        for _ in range(3):
            b.record_failure("crash")
        clock.advance(10.0)
        b.check()
        b.record_failure("hard-timeout", "wedged again")
        assert b.state == OPEN
        assert b.trips == 2
        clock.advance(5.0)  # cooldown restarted: 5s is not enough
        with pytest.raises(PoisonedError) as exc:
            b.check()
        assert exc.value.last_failure["status"] == "hard-timeout"

    def test_board_snapshot(self):
        clock = FakeClock()
        board = BreakerBoard(failure_threshold=1, cooldown=30.0, clock=clock)
        board.breaker("task:good").record_success()
        board.breaker("task:bad").record_failure("crash")
        snap = board.snapshot()
        assert snap["tracked"] == 2
        assert snap["open"] == 1
        assert snap["trips"] == 1
        assert snap["open_keys"] == ["task:bad"]


# -- supervisor bundle -------------------------------------------------------


class TestSupervisor:
    def test_deadline_and_interrupted_are_not_breaker_failures(self):
        sup = Supervisor(total_limit=4, failure_threshold=1, clock=FakeClock())
        breaker = sup.check("task:t")
        sup.record_outcome(breaker, "deadline")
        sup.record_outcome(breaker, "interrupted")
        assert breaker.state == CLOSED
        sup.record_outcome(breaker, "crash", "boom")
        assert breaker.state == OPEN

    def test_poisoned_and_memout_counters(self):
        sup = Supervisor(total_limit=4, failure_threshold=1, clock=FakeClock())
        breaker = sup.check("task:t")
        sup.record_outcome(breaker, "memout", "oom")
        assert sup.memouts == 1
        with pytest.raises(PoisonedError):
            sup.check("task:t")
        assert sup.poisoned == 1
        snap = sup.snapshot()
        assert snap["memouts"] == 1
        assert snap["poisoned"] == 1
        assert snap["breakers"]["open"] == 1


# -- stale socket claiming ---------------------------------------------------


class TestClaimSocketPath:
    def test_missing_path_is_fine(self, tmp_path):
        claim_socket_path(str(tmp_path / "absent.sock"))

    def test_stale_socket_is_unlinked(self, tmp_path):
        # Simulate a SIGKILLed daemon: a bound-then-dead socket file.
        path = str(tmp_path / "stale.sock")
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.bind(path)
        s.close()  # no listener behind the file any more
        assert os.path.exists(path)
        claim_socket_path(path)
        assert not os.path.exists(path)

    def test_live_daemon_is_refused(self, tmp_path):
        path = str(tmp_path / "live.sock")
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.bind(path)
        s.listen(1)
        try:
            with pytest.raises(RuntimeError, match="already listening"):
                claim_socket_path(path)
            assert os.path.exists(path)  # never unlinked from under a live one
        finally:
            s.close()

    def test_non_socket_file_is_refused(self, tmp_path):
        path = tmp_path / "not-a-socket"
        path.write_text("precious data\n")
        with pytest.raises(RuntimeError, match="non-socket"):
            claim_socket_path(str(path))
        assert path.read_text() == "precious data\n"


# -- cache gate: only settled ok verdicts persist ----------------------------


def _measurement(interrupted=False):
    return Measurement(
        instance="i",
        solver="PO",
        outcome=Outcome.TRUE,
        decisions=3,
        seconds=0.01,
        interrupted=interrupted,
    )


def _record(status, measurement, instance="i"):
    return Record(
        instance=instance,
        solver="PO",
        fingerprint="fp",
        status=status,
        measurement=measurement,
    )


class TestCachePutGate:
    def put(self, daemon, record):
        daemon._cache_put(record)

    def make_daemon(self, tmp_path):
        return ServeDaemon(
            socket_path=str(tmp_path / "d.sock"),
            cache_path=str(tmp_path / "cache.jsonl"),
        )

    def test_only_ok_records_enter_the_cache(self, tmp_path):
        daemon = self.make_daemon(tmp_path)
        self.put(daemon, _record(STATUS_OK, _measurement(), instance="good"))
        self.put(daemon, _record("crash", None, instance="crashed"))
        self.put(daemon, _record("hard-timeout", _measurement(), instance="late"))
        self.put(daemon, _record("memout", _measurement(), instance="fat"))
        self.put(
            daemon,
            _record(STATUS_OK, _measurement(interrupted=True), instance="preempted"),
        )
        self.put(daemon, _record(STATUS_OK, None, instance="measureless"))
        daemon.close()
        assert [k[0] for k in daemon._cache] == ["good"]
        # The persisted log agrees: one row, and it is the ok one.
        loaded = ResultsLog(str(tmp_path / "cache.jsonl")).load()
        assert len(loaded) == 1
        (record,) = loaded.values()
        assert record.instance == "good"
        assert record.status == STATUS_OK

