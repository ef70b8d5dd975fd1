"""Smoke test of the end-to-end benchmark at tiny input sizes.

Run explicitly: ``PYTHONPATH=src python -m pytest benchmarks/e2e``. Every
workload runs once untraced and once traced; the test checks that every
metric BENCHMARK.json names is printed with its unit, that no verdict was
wrong, and that the tracer and the host-speed probe leave nothing behind.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

import run  # noqa: E402
from run import load_sibling  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_correct(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", trace,
                "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        printed = [l.split() for l in lines[:-1] if l.split()[:1] == [metric["name"]]]
        assert printed and printed[0][-1] == metric["unit"], metric["name"]
    if trace == "0":
        assert result["metrics"]["wall_s"]["value"] > 0


def test_tracer_restores_every_wrapper():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    trace = load_sibling("trace")
    from repro.core.engine.search import SearchEngine
    from repro.evalx import parallel, runner
    from repro.smv.diameter import diameter_qbf
    from repro.smv.models import model_by_name

    originals = (SearchEngine.__init__, parallel.execute_task, runner.prenex)
    phi = diameter_qbf(model_by_name("counter", 2), 3, "tree")
    plain = runner.solve_po(phi, budget=runner.Budget(8000))
    spool = os.path.join(HERE, ".test_spool")
    os.makedirs(spool, exist_ok=True)
    try:
        tracer = trace.Tracer(spool).install()
        try:
            assert SearchEngine.__init__ is not originals[0]
            traced = runner.solve_po(phi, budget=runner.Budget(8000))
            runner.solve_to(phi, budget=runner.Budget(8000))
        finally:
            tracer.flush()
            tracer.restore()
        merged = trace.merge(spool)
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    assert trace.leftover_wrappers() == []
    assert (SearchEngine.__init__, parallel.execute_task, runner.prenex) == originals
    assert traced.decisions == plain.decisions
    assert merged["spans"]["core.engine.loop"]["calls"] == 2
    assert merged["spans"]["prenexing.prenex"]["calls"] == 1


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run([sys.executable, "benchmarks/e2e/run.py", "--workload", "fig6-pure"],
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts(tmp_path):
    compare = load_sibling("compare")

    def write(name, values, metric="wall_s"):
        runs = [{"trace": False, "repeat": i,
                 "result": {"correct": True,
                            "metrics": {metric: {"value": v, "unit": "s"}}},
                 "detail": {"workload": "fig6-pure"}} for i, v in enumerate(values)]
        path = tmp_path / name
        path.write_text(json.dumps({"runs": runs}))
        return str(path)

    base = write("a.json", [10.0, 10.1, 9.9])
    assert compare.main([base, write("same.json", [10.05, 9.95, 10.0])]) == 0
    assert compare.main([base, write("slow.json", [14.0, 14.1, 13.9])]) == 1
    assert compare.verdict([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "lower", 0.1) == "worse"
    assert compare.verdict([10.0, 14.0, 7.0], [10.0, 10.1, 9.9], "lower", 0.1) == "unresolved"
    assert compare.verdict([10.0, 14.0, 7.0], [5.0, 5.1, 4.9], "lower", 0.1) == "ok"
    # setup_s may worsen by 0.2 s however short it is
    setup = write("setup.json", [0.10, 0.11, 0.10], "setup_s")
    assert compare.main([setup, write("setup_ok.json", [0.28, 0.29, 0.28], "setup_s")]) == 0
    assert compare.main([setup, write("setup_slow.json", [0.35, 0.36, 0.35], "setup_s")]) == 1


def test_host_speed_scales_and_restores_the_alarm():
    import signal
    import time

    hostspeed = load_sibling("hostspeed")
    before = signal.getsignal(signal.SIGALRM)
    speed = hostspeed.HostSpeed().start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            hostspeed.probe()
    finally:
        speed.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.at) >= hostspeed.MIN_SAMPLES
    slowdown = speed.slowdown(t0, t0 + 0.5)
    assert slowdown > 0
    assert speed.scaled(0.5, t0) == pytest.approx(0.5 / slowdown)
    # an interval with no sample in it still averages MIN_SAMPLES samples
    assert speed.slowdown(t0 + 0.25, t0 + 0.25) > 0


def test_tail_percentile_leaves_ten_beyond():
    assert [run.tail_percentile(n) for n in (24, 32, 48, 302, 600)] == [58, 68, 79, 95, 95]
    for n in (24, 32, 48, 302, 600):
        position = run.tail_percentile(n) / 100 * (n - 1)
        assert n - 1 - int(position) >= 10
