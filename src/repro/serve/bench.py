"""The serve/incremental benchmark harness — emits ``BENCH_serve.json``.

Two measurements, mirroring what the tentpole promises:

* **Sweeps** — for each bench family, run the full diameter sweep twice on
  the *identical* stable-id formulas (:mod:`repro.smv.incremental`): once
  on a persistent :class:`~repro.incremental.IncrementalSolver`, once from
  scratch per bound. Reports total decisions for both, the savings, and
  checks the diameters agree with the explicit-state BFS ground truth.

* **Serve** — start a real daemon subprocess, replay the family's bound
  requests over the socket (cold), then replay them again (every one a
  fingerprint-cache hit), and SIGTERM it. Reports request throughput,
  cache-hit latency, and the daemon's own counters, asserting the clean
  exit the preemption path promises.

* **Degraded** — the same daemon under an injected fault plan (a wedged
  family worker plus a worker that OOMs on every attempt): replay a mixed
  workload and report ``degraded_rps`` — sustained answered-requests per
  second where a structured refusal (``memout``/``stuck``/``poisoned``)
  counts as answered and a hang or wrong verdict fails the bench.

Schema history: 1 = initial layout; 2 = added the ``degraded`` entry
(``degraded_rps``).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

from repro.robustness.faults import FaultPlan
from repro.serve.client import request, wait_ready
from repro.smv.incremental import incremental_diameter, scratch_diameter
from repro.smv.models import model_by_name
from repro.smv.reachability import eccentricity

SCHEMA_VERSION = 2

#: (family, size) pairs swept by the bench; chosen to stay seconds-fast.
QUICK_FAMILIES = (("counter", 2), ("dme", 5), ("ring", 4))
FULL_FAMILIES = QUICK_FAMILIES + (("dme", 4), ("ring", 3), ("semaphore", 2))


def _sweep_entry(family: str, size: int) -> Dict[str, object]:
    model = model_by_name(family, size)
    truth = eccentricity(model)
    t0 = time.monotonic()
    inc = incremental_diameter(model)
    inc_seconds = time.monotonic() - t0
    t0 = time.monotonic()
    scratch = scratch_diameter(model)
    scratch_seconds = time.monotonic() - t0
    if inc.diameter != truth or scratch.diameter != truth:
        raise AssertionError(
            "%s: diameter mismatch (bfs=%s inc=%s scratch=%s)"
            % (model.name, truth, inc.diameter, scratch.diameter)
        )
    saved = scratch.total_decisions - inc.total_decisions
    return {
        "model": model.name,
        "diameter": truth,
        "incremental_decisions": inc.total_decisions,
        "scratch_decisions": scratch.total_decisions,
        "decisions_saved": saved,
        "savings_pct": round(100.0 * saved / max(1, scratch.total_decisions), 2),
        "retained_per_bound": inc.retained_per_bound,
        "incremental_seconds": round(inc_seconds, 3),
        "scratch_seconds": round(scratch_seconds, 3),
    }


def _serve_entry(family: str, size: int, max_n: int) -> Dict[str, object]:
    tmp = tempfile.mkdtemp(prefix="repro-serve-bench-")
    socket_path = os.path.join(tmp, "serve.sock")
    cache_path = os.path.join(tmp, "cache.jsonl")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "run",
            "--socket",
            socket_path,
            "--cache",
            cache_path,
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        wait_ready(socket_path, timeout=60.0)
        bounds = list(range(max_n + 1))

        def replay() -> List[float]:
            latencies = []
            for n in bounds:
                t0 = time.monotonic()
                resp = request(
                    socket_path,
                    {"kind": "smv-diameter", "family": family, "size": size, "n": n},
                )
                latencies.append(time.monotonic() - t0)
                if not resp.get("ok"):
                    raise AssertionError("serve request failed: %r" % (resp,))
            return latencies

        t0 = time.monotonic()
        cold = replay()
        warm = replay()
        elapsed = time.monotonic() - t0
        stats = request(socket_path, {"kind": "stats"})
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            returncode = proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            returncode = proc.wait()
    if returncode != 0:
        raise AssertionError("daemon exited %d after SIGTERM" % returncode)
    return {
        "model": "%s%d" % (family, size),
        "bounds": len(bounds),
        "requests_per_sec": round((2 * len(bounds)) / max(elapsed, 1e-9), 2),
        "cold_latency_ms": {
            "mean": round(1000 * sum(cold) / len(cold), 3),
            "max": round(1000 * max(cold), 3),
        },
        "cache_hit_latency_ms": {
            "mean": round(1000 * sum(warm) / len(warm), 3),
            "max": round(1000 * max(warm), 3),
        },
        "daemon_stats": {
            k: stats.get(k)
            for k in ("requests", "cache_hits", "solves", "incremental_solves")
        },
        "clean_sigterm_exit": returncode == 0,
    }


#: a trivially-true QBF served as the degraded bench's solve workload.
_TRUE_QD = "p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n1 -2 0\n"

#: refusals the supervised daemon is allowed to answer with under chaos.
_STRUCTURED = ("memout", "stuck", "poisoned", "overloaded", "deadline")


def _degraded_entry(family: str, size: int, max_n: int) -> Dict[str, object]:
    """Throughput with the supervisor absorbing injected faults.

    Every request must still get an answer — a verdict or a structured
    refusal. ``degraded_rps`` is answered requests per wall second over the
    whole chaotic replay.
    """
    model = model_by_name(family, size)
    tmp = tempfile.mkdtemp(prefix="repro-serve-bench-chaos-")
    socket_path = os.path.join(tmp, "serve.sock")
    cache_path = os.path.join(tmp, "cache.jsonl")
    plan_path = os.path.join(tmp, "faults.json")
    plan = FaultPlan(
        assignments={
            "family:%s" % model.name: "stuck-family",
            "oom-victim|PO": "worker-oom",
        },
        hang_seconds=4.0,
    )
    with open(plan_path, "w") as handle:
        json.dump(plan.to_dict(), handle)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "run",
            "--socket", socket_path,
            "--cache", cache_path,
            "--fault-plan", plan_path,
            "--mem-limit", "512",
            "--breaker-cooldown", "300",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    answered = 0
    counts: Dict[str, int] = {}
    try:
        wait_ready(socket_path, timeout=60.0)
        workload: List[Dict[str, object]] = [
            # First smv request hits the injected wedge (short deadline so
            # the pool stops the worker fast); the rest run on the
            # re-forked family worker, the first of them cold.
            {"kind": "smv-diameter", "family": family, "size": size,
             "n": 0, "deadline": 1.0},
        ]
        workload += [
            {"kind": "smv-diameter", "family": family, "size": size,
             "n": n, "deadline": 20.0}
            for n in range(max_n + 1)
        ]
        workload += [
            {"kind": "solve", "instance": "oom-victim", "formula": _TRUE_QD,
             "deadline": 20.0}
            for _ in range(2)
        ]
        workload += [
            {"kind": "solve", "instance": "clean-%d" % i, "formula": _TRUE_QD,
             "deadline": 20.0}
            for i in range(4)
        ]
        t0 = time.monotonic()
        for req in workload:
            resp = request(socket_path, req, timeout=60.0)
            status = resp.get("status")
            if resp.get("ok"):
                answered += 1
                counts["ok"] = counts.get("ok", 0) + 1
            elif status in _STRUCTURED:
                answered += 1
                counts[status] = counts.get(status, 0) + 1
            else:
                raise AssertionError(
                    "unstructured failure under chaos: %r" % (resp,)
                )
            if resp.get("ok") and "outcome" in resp and req["kind"] == "solve":
                if resp["outcome"] != "true":
                    raise AssertionError(
                        "wrong verdict under chaos: %r" % (resp,)
                    )
        elapsed = time.monotonic() - t0
        stats = request(socket_path, {"kind": "stats"})
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            returncode = proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            returncode = proc.wait()
    if returncode != 0:
        raise AssertionError("daemon exited %d after SIGTERM" % returncode)
    supervisor = stats.get("supervisor", {})
    return {
        "model": model.name,
        "requests": answered,
        "degraded_rps": round(answered / max(elapsed, 1e-9), 2),
        "answers": counts,
        "supervisor": {
            k: supervisor.get(k)
            for k in ("memouts", "poisoned", "family_restarts")
        },
        "clean_sigterm_exit": returncode == 0,
    }


def run_serve_bench(quick: bool = True) -> Dict[str, object]:
    families = QUICK_FAMILIES if quick else FULL_FAMILIES
    sweeps = [_sweep_entry(f, s) for f, s in families]
    serve_family, serve_size = families[0]
    serve = _serve_entry(serve_family, serve_size, max_n=3)
    degraded = _degraded_entry(serve_family, serve_size, max_n=3)
    return {
        "schema": SCHEMA_VERSION,
        "generated_by": "repro serve bench",
        "quick": quick,
        "sweeps": sweeps,
        "serve": serve,
        "degraded": degraded,
        "incremental_strictly_fewer": all(
            e["incremental_decisions"] < e["scratch_decisions"] for e in sweeps
        ),
    }


def write_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_report(report: Dict[str, object]) -> str:
    lines = ["serve bench (schema %s)" % report["schema"]]
    for entry in report["sweeps"]:
        lines.append(
            "  %-12s d=%-3d decisions: incremental %d vs scratch %d (%.1f%% saved)"
            % (
                entry["model"],
                entry["diameter"],
                entry["incremental_decisions"],
                entry["scratch_decisions"],
                entry["savings_pct"],
            )
        )
    serve = report["serve"]
    lines.append(
        "  serve %-9s %.1f req/s, cache-hit latency %.2fms mean, clean exit: %s"
        % (
            serve["model"],
            serve["requests_per_sec"],
            serve["cache_hit_latency_ms"]["mean"],
            serve["clean_sigterm_exit"],
        )
    )
    degraded = report.get("degraded")
    if degraded is not None:
        lines.append(
            "  chaos %-9s %.1f req/s degraded (%d answered: %s), clean exit: %s"
            % (
                degraded["model"],
                degraded["degraded_rps"],
                degraded["requests"],
                ", ".join(
                    "%s %d" % (k, v) for k, v in sorted(degraded["answers"].items())
                ),
                degraded["clean_sigterm_exit"],
            )
        )
    lines.append(
        "  incremental strictly fewer decisions: %s"
        % report["incremental_strictly_fewer"]
    )
    return "\n".join(lines)
