"""Serve daemon request limits: per-request deadlines and formula caps.

An unsolvable or oversized request gets a structured error, never a
connection that times out.
"""

import os
import signal
import subprocess
import sys

import pytest

from repro.core.formula import QBF
from repro.core.literals import EXISTS, FORALL
from repro.core.prefix import Prefix
from repro.serve.client import request, wait_ready
from repro.serve.protocol import (
    DEFAULT_DEADLINE_SECONDS,
    MAX_CLAUSES,
    MAX_FORMULA_BYTES,
    ProtocolError,
    check_formula_shape,
    check_formula_size,
    parse_deadline,
)


@pytest.fixture
def daemon(tmp_path):
    socket_path = str(tmp_path / "serve.sock")
    cache_path = str(tmp_path / "cache.jsonl")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [env.get("PYTHONPATH"), os.path.join(os.getcwd(), "src")] if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "run",
         "--socket", socket_path, "--cache", cache_path],
        env=env,
    )
    try:
        wait_ready(socket_path, timeout=60.0)
        yield proc, socket_path
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30.0)


QD_TRUE = "p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n1 -2 0\n"


def test_parse_deadline_validation():
    assert parse_deadline({}) == DEFAULT_DEADLINE_SECONDS
    assert parse_deadline({"deadline": 2}) == 2.0
    assert parse_deadline({"deadline": 0.5}) == 0.5
    for bad in (0, -3, "soon", True, [1], float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ProtocolError):
            parse_deadline({"deadline": bad})


def test_formula_caps():
    with pytest.raises(ProtocolError):
        check_formula_size("x" * (MAX_FORMULA_BYTES + 1))
    check_formula_size(QD_TRUE)
    big = QBF(
        Prefix.linear([(EXISTS, (1,)), (FORALL, (2,))]),
        [(1, 2)] * (MAX_CLAUSES + 1),
    )
    with pytest.raises(ProtocolError):
        check_formula_shape(big)


def test_oversized_request_gets_structured_error(daemon):
    _, socket_path = daemon
    # over the formula byte cap, but under the daemon's stream limit so the
    # request parses and the rejection arrives as a structured reply
    huge = QD_TRUE + "c pad\n" * 900_000
    out = request(
        socket_path,
        {"kind": "solve", "formula": huge, "format": "qdimacs"},
    )
    assert not out["ok"]
    assert "large" in out["error"] or "exceeds" in out["error"]


def test_bad_deadline_and_expired_deadline_are_structured(daemon):
    proc, socket_path = daemon
    bad = request(
        socket_path,
        {"kind": "solve", "formula": QD_TRUE, "format": "qdimacs",
         "deadline": "soon"},
    )
    assert not bad["ok"] and "deadline" in bad["error"]

    # a deadline too short for a real solve (ample decisions budget so the
    # wall clock is the binding constraint): structured error, daemon alive
    hopeless = request(
        socket_path,
        {"kind": "smv-diameter", "family": "counter", "size": 3, "n": 6,
         "budget": {"decisions": 10_000_000}, "deadline": 0.05},
        timeout=60.0,
    )
    assert not hopeless["ok"] and "deadline" in hopeless["error"]
    assert hopeless["status"] == "deadline"
    assert proc.poll() is None
    alive = request(socket_path, {"kind": "ping"})
    assert alive["ok"]
