"""Serve daemon request fields: engine and strategy validation, and the
refusal of an unknown request kind."""

import os
import signal
import subprocess
import sys

import pytest

from repro.serve.client import request, wait_ready
from repro.serve.protocol import ProtocolError, parse_engine

QD = "p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n1 -2 0\n"


@pytest.fixture
def daemon(tmp_path):
    socket_path = str(tmp_path / "serve.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [env.get("PYTHONPATH"), os.path.join(os.getcwd(), "src")] if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "run",
         "--socket", socket_path],
        env=env,
    )
    try:
        wait_ready(socket_path, timeout=60.0)
        yield proc, socket_path
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30.0)


def test_parse_engine_validation():
    assert parse_engine({}) is None
    assert parse_engine({"engine": "native"}) == "native"
    assert parse_engine({"engine": "watched"}) == "watched"  # alias
    for bad in ("magic", 7, None):
        with pytest.raises(ProtocolError, match="unknown engine"):
            parse_engine({"engine": bad})


def test_bad_engine_is_refused_before_any_worker(daemon):
    _, socket_path = daemon
    out = request(
        socket_path, {"kind": "solve", "formula": QD, "engine": "magic"}
    )
    assert not out["ok"] and "unknown engine" in out["error"], out
    stats = request(socket_path, {"kind": "stats"})
    assert stats["solves"] == 0
    assert stats["supervisor"]["breakers"]["tracked"] == 0


def test_parse_strategy_validation():
    from repro.serve.protocol import parse_strategy

    assert parse_strategy({}) == "eu_au"
    for name in ("eu_au", "eu_ad", "ed_au", "ed_ad"):
        assert parse_strategy({"strategy": name}) == name
    for bad in ("bogus", "EU_AU", 7, None, ["eu_au"]):
        with pytest.raises(ProtocolError, match="unknown strategy"):
            parse_strategy({"strategy": bad})


def test_bad_strategy_is_refused_before_any_worker(daemon):
    _, socket_path = daemon
    out = request(
        socket_path,
        {"kind": "solve", "formula": QD, "mode": "to", "strategy": "bogus"},
    )
    assert not out["ok"] and "unknown strategy" in out["error"], out
    stats = request(socket_path, {"kind": "stats"})
    assert stats["solves"] == 0
    assert stats["supervisor"]["breakers"]["tracked"] == 0


def test_unknown_kind_is_refused_before_admission(daemon):
    _, socket_path = daemon
    # Kinds of retired solving tiers, with the fields they used to take.
    for kind in ("portfolio", "cube-solve"):
        out = request(
            socket_path,
            {"kind": kind, "formula": QD, "jobs": 2, "certify": True},
        )
        assert not out["ok"] and "unknown request kind" in out["error"], out
        stats = request(socket_path, {"kind": "stats"})
        assert stats["solves"] == 0, kind
        admission = stats["supervisor"]["admission"]
        assert admission["admitted"] == 0, kind
        assert kind not in admission["kind_limits"], kind
        assert stats["supervisor"]["breakers"]["tracked"] == 0, kind
