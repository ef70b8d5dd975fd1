"""Serve daemon smoke tests: the CI leg of ISSUE 6.

Starts a real daemon subprocess on a unix socket, submits two related SMV
bound requests, asserts the second is an incremental hit (the family's
persistent solver had prior state) and that a repeat is a fingerprint-cache
hit, then shuts the daemon down via the SIGTERM preemption path and checks
the exit is clean.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.io import qtree
from repro.robustness.interrupt import InterruptFlag
from repro.serve.client import request, wait_ready
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import (
    MAX_CLAUSES,
    MAX_SMV_SIZE,
    MAX_VARS,
    ProtocolError,
    parse_budget,
    parse_flag,
    validate_smv_request,
)
from repro.smv.diameter import diameter_qbf
from repro.smv.incremental import DiameterFamily
from repro.smv.models import model_by_name


def _start_daemon(socket_path, cache_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [env.get("PYTHONPATH"), os.path.join(os.getcwd(), "src")] if p
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "run",
         "--socket", socket_path, "--cache", cache_path],
        env=env,
    )


@pytest.fixture
def daemon(tmp_path):
    socket_path = str(tmp_path / "serve.sock")
    cache_path = str(tmp_path / "cache.jsonl")
    proc = _start_daemon(socket_path, cache_path)
    try:
        wait_ready(socket_path, timeout=60.0)
        yield proc, socket_path, cache_path
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30.0)


def test_serve_smoke_incremental_cache_and_sigterm(daemon):
    proc, socket_path, cache_path = daemon

    first = request(
        socket_path,
        {"kind": "smv-diameter", "family": "counter", "size": 2, "n": 0},
    )
    assert first["ok"] and first["outcome"] == "true"
    assert not first["cached"] and not first["incremental"]

    second = request(
        socket_path,
        {"kind": "smv-diameter", "family": "counter", "size": 2, "n": 1},
    )
    assert second["ok"] and second["outcome"] == "true"
    # related bound on the same family: served by the persistent
    # incremental solver (or, on a re-run against a warm cache, the cache)
    assert second["incremental"] or second["cached"]

    repeat = request(
        socket_path,
        {"kind": "smv-diameter", "family": "counter", "size": 2, "n": 1},
    )
    assert repeat["ok"] and repeat["cached"]
    assert repeat["outcome"] == second["outcome"]

    stats = request(socket_path, {"kind": "stats"})
    assert stats["cache_hits"] >= 1 and stats["solves"] >= 2

    # clean shutdown through the SIGTERM path
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30.0) == 0

    # the verdict cache was persisted
    with open(cache_path) as handle:
        rows = [json.loads(line) for line in handle if line.strip()]
    assert any(r["instance"].startswith("smv:counter2") for r in rows)


def test_serve_generic_solve_and_error_paths(daemon):
    proc, socket_path, _ = daemon
    qd = "p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n1 -2 0\n"
    first = request(
        socket_path,
        {"kind": "solve", "formula": qd, "format": "qdimacs", "instance": "smoke"},
    )
    assert first["ok"] and first["outcome"] == "true" and not first["cached"]
    again = request(
        socket_path,
        {"kind": "solve", "formula": qd, "format": "qdimacs", "instance": "smoke"},
    )
    assert again["ok"] and again["cached"] and again["outcome"] == "true"

    bad = request(socket_path, {"kind": "no-such-kind"})
    assert not bad["ok"] and "kind" in bad["error"]
    malformed = request(
        socket_path, {"kind": "solve", "formula": "p cnf oops\n", "id": 7}
    )
    assert not malformed["ok"] and malformed["id"] == 7


def _children(pid):
    """Live (non-zombie) child processes of ``pid``, read from /proc."""
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open("/proc/%s/stat" % entry) as handle:
                    state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
            except OSError:
                continue
            if int(ppid) == pid and state != "Z":
                kids.append(int(entry))
    return kids


def _alive(pid):
    try:
        with open("/proc/%d/stat" % pid) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _sigterm_mid_request(proc, socket_path, payload):
    """Send ``payload``, SIGTERM the daemon once it has forked a worker for
    it, and return (reply or None, the worker pids, seconds to exit)."""
    replies = []
    client = threading.Thread(
        target=lambda: replies.append(request(socket_path, payload, timeout=60.0))
    )
    client.start()
    end = time.monotonic() + 30.0
    workers = _children(proc.pid)
    while not workers and time.monotonic() < end:
        time.sleep(0.02)
        workers = _children(proc.pid)
    assert workers, "the daemon forked no worker for the request"
    start = time.monotonic()
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60.0) == 0
    exit_seconds = time.monotonic() - start
    client.join(timeout=30.0)
    return (replies[0] if replies else None), workers, exit_seconds


def test_sigterm_answers_a_solve_already_read(daemon):
    proc, socket_path, _ = daemon
    phi = diameter_qbf(model_by_name("counter", 3), 7, form="tree")
    reply, _, _ = _sigterm_mid_request(proc, socket_path, {
        "kind": "solve", "format": "qtree", "formula": qtree.dumps(phi),
        "budget": {"decisions": None}, "deadline": 60.0,
    })
    # The forked solve is not interrupted; the daemon waits for its verdict
    # and writes it before exiting.
    assert reply is not None, "the daemon exited without answering"
    assert reply["ok"] and reply["outcome"] == "false"


def test_sigterm_interrupts_an_smv_solve_and_stops_its_worker(daemon):
    proc, socket_path, cache_path = daemon
    reply, workers, exit_seconds = _sigterm_mid_request(proc, socket_path, {
        "kind": "smv-diameter", "family": "semaphore", "size": 3, "n": 3,
        "budget": {"decisions": None}, "deadline": 60.0,
    })
    assert reply is not None, "the daemon exited without answering"
    assert reply["ok"] and reply["outcome"] == "unknown"
    assert reply["interrupted"] is True
    assert exit_seconds < 5.0  # the cold solve takes over 15 s on a 2-vCPU host
    assert not [pid for pid in workers if _alive(pid)]
    # An interrupted UNKNOWN is never cached.
    if os.path.exists(cache_path):
        with open(cache_path) as handle:
            assert "semaphore3" not in handle.read()


def test_sigkill_leaves_no_family_worker_and_a_reclaimable_socket(daemon, tmp_path):
    proc, socket_path, _ = daemon
    for family in ("counter", "semaphore"):
        reply = request(socket_path, {"kind": "smv-diameter", "family": family, "size": 2, "n": 0})
        assert reply["ok"] and not reply["cached"]
    reply = request(socket_path, {"kind": "solve", "formula": "p cnf 1 1\na 1 0\n1 0\n"})
    assert reply["ok"] and reply["outcome"] == "false"
    workers = _children(proc.pid)
    assert len(workers) == 3  # one idle worker per family, one warm solve worker
    proc.kill()
    proc.wait(timeout=30.0)
    end = time.monotonic() + 10.0
    while any(_alive(pid) for pid in workers) and time.monotonic() < end:
        time.sleep(0.05)
    survivors = [pid for pid in workers if _alive(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert not survivors
    # No orphan holds the listening socket: a new daemon claims the stale
    # path instead of finding "a daemon already listening".
    successor = _start_daemon(socket_path, str(tmp_path / "successor.jsonl"))
    try:
        wait_ready(socket_path, timeout=60.0)
        assert request(socket_path, {"kind": "ping"})["pong"]
    finally:
        successor.send_signal(signal.SIGTERM)
        assert successor.wait(timeout=30.0) == 0


def test_sigterm_with_a_busy_and_an_idle_warm_worker_exits_clean(daemon):
    proc, socket_path, _ = daemon
    phi = diameter_qbf(model_by_name("counter", 3), 7, form="tree")  # ~3 s to solve
    replies = []
    slow = threading.Thread(target=lambda: replies.append(request(socket_path, {
        "kind": "solve", "format": "qtree", "formula": qtree.dumps(phi),
        "budget": {"decisions": None}, "deadline": 60.0,
    }, timeout=60.0)))
    slow.start()
    end = time.monotonic() + 30.0
    while not _children(proc.pid) and time.monotonic() < end:
        time.sleep(0.02)
    quick = request(socket_path, {"kind": "solve", "formula": "p cnf 1 1\na 1 0\n1 0\n"})
    assert quick["ok"] and quick["outcome"] == "false"
    workers = _children(proc.pid)
    assert len(workers) == 2  # the slow solve's worker busy, the quick one's idle
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=60.0) == 0
    slow.join(timeout=30.0)
    assert replies and replies[0]["ok"] and replies[0]["outcome"] == "false"
    assert not [pid for pid in workers if _alive(pid)]


def test_requests_read_after_shutdown_start_no_solve(tmp_path):
    daemon = ServeDaemon(str(tmp_path / "unused.sock"), jobs=1, interrupt=InterruptFlag())
    daemon.shutdown_event.set()
    req = {"kind": "solve", "formula": "p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n1 -2 0\n"}
    with pytest.raises(ProtocolError, match="shutting down"):
        asyncio.run(daemon.dispatch(req))
    assert asyncio.run(daemon.dispatch({"kind": "ping"}))["pong"]
    assert daemon.stats["solves"] == 0


def test_oversized_smv_bound_is_refused_and_the_daemon_stays_up(daemon):
    _, socket_path, _ = daemon
    start = time.monotonic()
    refused = request(
        socket_path,
        {"kind": "smv-diameter", "family": "counter", "size": 2, "n": 5000},
    )
    # phi_5000 has 225,038 clauses; encoding it took seconds
    assert time.monotonic() - start < 2.0
    assert not refused["ok"] and "too large" in refused["error"]
    assert request(socket_path, {"kind": "ping"})["pong"]
    assert request(socket_path, {"kind": "stats"})["solves"] == 0


def test_smv_request_field_validation():
    assert validate_smv_request({"family": "counter", "size": 2, "n": 3}) == (
        "counter", 2, 3,
    )
    for size, n in ((True, 1), (2, True), (2.0, 1), (2, 1.0), ("2", 1), (2, None),
                    (0, 1), (MAX_SMV_SIZE + 1, 0), (2000, 0), (2, -1)):
        with pytest.raises(ProtocolError):
            validate_smv_request({"family": "counter", "size": size, "n": n})
    with pytest.raises(ProtocolError):
        validate_smv_request({"family": 3, "size": 2, "n": 1})


def test_oversized_smv_bound_is_refused_without_encoding_it(monkeypatch):
    encoded = []
    formula = DiameterFamily.formula

    def recording(self, n):
        encoded.append(n)
        return formula(self, n)

    monkeypatch.setattr(DiameterFamily, "formula", recording)
    with pytest.raises(ProtocolError, match="225038 clauses"):
        validate_smv_request({"family": "counter", "size": 2, "n": 5000})
    with pytest.raises(ProtocolError, match="too large"):
        validate_smv_request({"family": "semaphore", "size": MAX_SMV_SIZE, "n": 2})
    assert validate_smv_request(
        {"family": "semaphore", "size": MAX_SMV_SIZE, "n": 1}
    ) == ("semaphore", MAX_SMV_SIZE, 1)
    assert set(encoded) <= {0, 1}


@pytest.mark.parametrize("family", ["counter", "ring", "dme", "semaphore"])
def test_smv_formula_size_is_affine_in_the_bound(family):
    # validate_smv_request predicts phi_n from phi_0 and phi_1
    for size in (2, 3):
        encoder = DiameterFamily(model_by_name(family, size))
        shapes = [(f.num_clauses, f.num_vars)
                  for f in (encoder.formula(n) for n in (0, 1, 2, 7))]
        (c0, v0), (c1, v1) = shapes[:2]
        assert shapes[2:] == [(c0 + n * (c1 - c0), v0 + n * (v1 - v0)) for n in (2, 7)]
        # the largest bound the caps admit is accepted, the next one refused
        n = min((MAX_CLAUSES - c0) // (c1 - c0), (MAX_VARS - v0) // (v1 - v0))
        assert validate_smv_request({"family": family, "size": size, "n": n})
        with pytest.raises(ProtocolError, match="too large"):
            validate_smv_request({"family": family, "size": size, "n": n + 1})


def test_parse_budget_validation():
    assert parse_budget(None).decisions == 2000
    assert parse_budget({"decisions": 10, "seconds": 1.5}).seconds == 1.5
    assert parse_budget({"decisions": None}).decisions is None
    for bad in (-1, 0, True, 1.5, "10"):
        with pytest.raises(ProtocolError):
            parse_budget({"decisions": bad})
    for bad in ("soon", True, 0, -2.0, float("nan"), float("inf")):
        with pytest.raises(ProtocolError):
            parse_budget({"seconds": bad})
    with pytest.raises(ProtocolError):
        parse_budget("fast")


def test_parse_flag_validation():
    assert parse_flag({}, "certify") is False
    assert parse_flag({"certify": True}, "certify") is True
    for bad in ("false", "true", 0, 1, None, [True]):
        with pytest.raises(ProtocolError):
            parse_flag({"certify": bad}, "certify")


@pytest.mark.parametrize("kind, flag", [("solve", "certify")])
def test_string_flags_are_refused_before_any_solve(tmp_path, kind, flag):
    # "false" is a truthy string: a flag read by truthiness would turn on.
    daemon = ServeDaemon(str(tmp_path / "unused.sock"), jobs=1)
    req = {"kind": kind, "formula": "p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n1 -2 0\n",
           flag: "false"}
    with pytest.raises(ProtocolError, match=flag):
        asyncio.run(daemon.dispatch(req))
    assert daemon.stats["solves"] == 0
