"""Serve daemon: cube-solve lane, deadlines, and oversize rejection.

Covers ISSUE 7 satellite 1 (structured errors instead of connection
timeouts for unsolvable/oversized requests; per-request ``deadline``)
and the new ``cube-solve`` request kind.
"""

import os
import signal
import subprocess
import sys

import pytest

from repro.core.formula import QBF
from repro.core.literals import EXISTS, FORALL
from repro.core.prefix import Prefix
from repro.io import qtree
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
from repro.smv.diameter import diameter_qbf
from repro.smv.models import model_by_name


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
QD_FALSE = "p cnf 2 4\na 1 0\ne 2 0\n1 2 0\n-1 -2 0\n1 -2 0\n-1 2 0\n"


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


def test_cube_solve_roundtrip_and_certify(daemon):
    _, socket_path = daemon
    out = request(
        socket_path,
        {"kind": "cube-solve", "formula": QD_FALSE, "format": "qdimacs", "jobs": 2},
    )
    assert out["ok"] and out["outcome"] == "false"
    assert out["jobs"] == 2 and out["leaves"] >= 1

    certified = request(
        socket_path,
        {"kind": "cube-solve", "formula": QD_FALSE, "format": "qdimacs",
         "jobs": 2, "certify": True},
    )
    assert certified["ok"] and certified["outcome"] == "false"
    assert certified["certificate_status"] == "verified"
    assert certified["certificate_complete"]


def test_cube_solve_rejects_bad_jobs(daemon):
    _, socket_path = daemon
    out = request(
        socket_path,
        {"kind": "cube-solve", "formula": QD_TRUE, "format": "qdimacs",
         "jobs": 10_000},
    )
    assert not out["ok"] and "jobs" in out["error"]


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


def test_sequential_cube_solve_answers_deadline(daemon):
    _, socket_path = daemon
    # About 9000 decisions with no budget: seconds, well past the deadline.
    phi = diameter_qbf(model_by_name("counter", 3), 8, form="tree")
    out = request(
        socket_path,
        {"kind": "cube-solve", "formula": qtree.dumps(phi), "format": "qtree",
         "jobs": 1, "deadline": 0.3},
    )
    assert not out["ok"] and out["status"] == "deadline", out
    assert out["outcome"] == "unknown" and not out["interrupted"]
    assert out["seconds"] < 1.5
