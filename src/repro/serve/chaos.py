"""Serve-layer chaos smoke: a fault-injected daemon must never lie.

``repro serve chaos`` boots a *real* daemon subprocess with a
:class:`~repro.robustness.faults.FaultPlan` wired into every execution
lane — a solve key that OOMs on every attempt, one that crashes, one that
hangs past its deadline, a cache label whose JSONL append tears, and an
SMV family whose worker wedges — then drives a scripted client battery
against it and checks the supervision invariants:

* **never a wrong verdict**: every determinate answer matches the known
  truth of its formula (and every SMV answer agrees with every other
  answer for the same bound);
* **never a hang**: every request returns — a verdict, or a structured
  ``overloaded`` / ``poisoned`` / ``memout`` / ``stuck`` / ``deadline``
  error;
* **never a daemon exit**: the process survives the whole battery, still
  answers ``ping``, and exits 0 on SIGTERM afterwards;
* **counters reconcile**: the client's tally of sheds, memouts and
  poisoned refusals equals the daemon's own ``stats``;
* **the cache stays clean**: the persisted verdict log reloads (torn line
  included) and contains only ``ok`` records.

The plan uses explicit ``assignments`` so the injected faults are
independent of request arrival order; ``seed`` is recorded in the report
for provenance and perturbs nothing but the burst instance names.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

from repro.serve.client import request, wait_ready

SCHEMA_VERSION = 1

#: ∃x∀y (x∨y)(x∨¬y) — TRUE (pick x).
TRUE_QD = "p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n1 -2 0\n"
#: ∀x (x) — FALSE (pick ¬x).
FALSE_QD = "p cnf 1 1\na 1 0\n1 0\n"

#: the daemon's admission budget during chaos; the burst exceeds it.
MAX_INFLIGHT = 4
BURST = 8
FAILURE_THRESHOLD = 3
#: long enough that a tripped breaker stays open for the whole battery.
BREAKER_COOLDOWN = 120.0
#: worker-hang / family-stall duration: past the hang deadline (kill
#: escalation) and past the smv deadline + the daemon's 2 s stuck grace.
HANG_SECONDS = 4.0
SOLVE_DEADLINE = 1.5
SMV_DEADLINE = 1.0

#: structured failure statuses the battery accepts; anything else — or a
#: determinate verdict that contradicts the oracle — is a violation.
ACCEPTED_FAILURES = ("overloaded", "poisoned", "memout", "stuck", "deadline")


def _fault_plan(seed: int) -> Dict[str, object]:
    return {
        "seed": seed,
        "hang_seconds": HANG_SECONDS,
        "assignments": {
            "clean-true|PO": "torn-append",
            "crash-victim|PO": "crash",
            "hang-victim|PO": "hang",
            "oom-victim|PO": "worker-oom",
            "family:counter2": "stuck-family",
        },
    }


class _Battery:
    """Client-side request driver + invariant bookkeeping."""

    def __init__(self, socket_path: str):
        self.socket_path = socket_path
        self._lock = threading.Lock()  # burst threads share the tallies
        self.counts: Dict[str, int] = {
            "requests": 0,
            "ok": 0,
            "cached": 0,
            "memout": 0,
            "poisoned": 0,
            "overloaded": 0,
            "stuck": 0,
            "deadline": 0,
        }
        self.violations: List[str] = []
        self.smv_answers: Dict[int, str] = {}

    def ask(
        self,
        payload: Dict[str, object],
        expect: Optional[str] = None,
        label: str = "?",
    ) -> Dict[str, object]:
        """One request; classify the response and check the oracle."""
        resp = request(self.socket_path, payload, timeout=120.0)
        with self._lock:
            self.counts["requests"] += 1
            if resp.get("ok"):
                self.counts["ok"] += 1
                if resp.get("cached"):
                    self.counts["cached"] += 1
                outcome = resp.get("outcome")
                if (
                    expect is not None
                    and outcome in ("true", "false")
                    and outcome != expect
                ):
                    self.violations.append(
                        "%s: WRONG VERDICT %r (expected %r)"
                        % (label, outcome, expect)
                    )
            else:
                status = resp.get("status")
                if status in self.counts:
                    self.counts[status] += 1
                if status not in ACCEPTED_FAILURES or "error" not in resp:
                    self.violations.append(
                        "%s: unstructured failure %r" % (label, resp)
                    )
        return resp

    def ask_smv(self, n: int, label: str) -> Dict[str, object]:
        resp = self.ask(
            {
                "kind": "smv-diameter",
                "family": "counter",
                "size": 2,
                "n": n,
                "deadline": SMV_DEADLINE,
            },
            label=label,
        )
        outcome = resp.get("outcome")
        if resp.get("ok") and outcome in ("true", "false"):
            seen = self.smv_answers.setdefault(n, outcome)
            if seen != outcome:
                self.violations.append(
                    "%s: smv n=%d answered %r after %r" % (label, n, outcome, seen)
                )
        return resp

    def burst(self, round_no: int, seed: int) -> None:
        """Fire more concurrent solves than the admission budget allows."""
        responses: List[Optional[Dict[str, object]]] = [None] * BURST

        def one(i: int) -> None:
            responses[i] = self.ask(
                {
                    "kind": "solve",
                    "formula": TRUE_QD,
                    "instance": "burst-%d-%d-%d" % (seed, round_no, i),
                    "deadline": SOLVE_DEADLINE,
                },
                expect="true",
                label="burst-%d-%d" % (round_no, i),
            )

        threads = [threading.Thread(target=one, args=(i,)) for i in range(BURST)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        if any(r is None for r in responses):
            self.violations.append("burst round %d: a request never returned" % round_no)


def run_serve_chaos(
    seed: int = 0,
    requests: int = 3,
    mem_limit_mb: float = 512.0,
    keep_stats: Optional[str] = None,
) -> Dict[str, object]:
    """Run the whole smoke; returns the machine-readable report."""
    tmp = tempfile.mkdtemp(prefix="repro-serve-chaos-")
    socket_path = os.path.join(tmp, "serve.sock")
    cache_path = os.path.join(tmp, "cache.jsonl")
    plan_path = os.path.join(tmp, "faults.json")
    with open(plan_path, "w") as handle:
        json.dump(_fault_plan(seed), handle)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "run",
            "--socket", socket_path,
            "--cache", cache_path,
            "--fault-plan", plan_path,
            "--mem-limit", str(mem_limit_mb),
            "--max-inflight", str(MAX_INFLIGHT),
            "--failure-threshold", str(FAILURE_THRESHOLD),
            "--breaker-cooldown", str(BREAKER_COOLDOWN),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    battery = _Battery(socket_path)
    started = time.monotonic()
    stats: Dict[str, object] = {}
    clean_exit = False
    try:
        wait_ready(socket_path, timeout=60.0)
        for r in range(max(1, requests)):
            battery.ask(
                {"kind": "solve", "formula": TRUE_QD, "instance": "clean-true",
                 "deadline": SOLVE_DEADLINE},
                expect="true", label="clean-true r%d" % r,
            )
            battery.ask(
                {"kind": "solve", "formula": FALSE_QD, "instance": "crash-victim",
                 "deadline": SOLVE_DEADLINE},
                expect="false", label="crash-victim r%d" % r,
            )
            battery.ask(
                {"kind": "solve", "formula": TRUE_QD, "instance": "hang-victim",
                 "deadline": SOLVE_DEADLINE},
                expect="true", label="hang-victim r%d" % r,
            )
            battery.ask(
                {"kind": "solve", "formula": TRUE_QD, "instance": "oom-victim",
                 "deadline": SOLVE_DEADLINE},
                expect="true", label="oom-victim r%d" % r,
            )
            battery.burst(r, seed)
            # Round 0 wedges the family (injected stall outlives deadline +
            # grace); the immediate follow-up re-forks the family worker and
            # must get a verdict, not an error.
            battery.ask_smv(n=r % 2, label="smv r%d" % r)
            if r == 0:
                battery.ask_smv(n=0, label="smv re-fork probe")
        battery.ask_smv(n=1, label="smv recovery probe")
        if max(1, requests) >= FAILURE_THRESHOLD:
            # The OOM key's breaker tripped on the last round: one more
            # request must be refused as poisoned, without running anything.
            probe = battery.ask(
                {"kind": "solve", "formula": TRUE_QD, "instance": "oom-victim",
                 "deadline": SOLVE_DEADLINE},
                expect="true", label="poisoned probe",
            )
            if probe.get("status") != "poisoned":
                battery.violations.append(
                    "open breaker answered %r instead of refusing as poisoned"
                    % probe.get("status")
                )
            elif "last_failure" not in probe:
                battery.violations.append(
                    "poisoned refusal carries no last_failure"
                )
        if battery.smv_answers.get(0) not in (None, "true"):
            battery.violations.append(
                "smv counter2 n=0 answered %r, known true"
                % battery.smv_answers.get(0)
            )
        if proc.poll() is not None:
            battery.violations.append(
                "daemon exited mid-battery with code %s" % proc.returncode
            )
        ping = request(socket_path, {"kind": "ping"}, timeout=30.0)
        if not ping.get("pong"):
            battery.violations.append("daemon stopped answering ping: %r" % ping)
        stats = request(socket_path, {"kind": "stats"}, timeout=30.0)
        _reconcile(stats, battery, rounds=max(1, requests))
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                clean_exit = proc.wait(timeout=60.0) == 0
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if not clean_exit:
        battery.violations.append("daemon did not exit 0 on SIGTERM")
    _audit_cache(cache_path, battery)
    if keep_stats:
        with open(keep_stats, "w") as handle:
            json.dump(stats, handle, indent=2, sort_keys=True)
    return {
        "schema": SCHEMA_VERSION,
        "generated_by": "repro serve chaos",
        "seed": seed,
        "rounds": max(1, requests),
        "seconds": round(time.monotonic() - started, 2),
        "counts": dict(battery.counts),
        "violations": list(battery.violations),
        "daemon_stats": stats,
        "clean_sigterm_exit": clean_exit,
        "passed": not battery.violations,
    }


def _reconcile(stats: Dict[str, object], battery: _Battery, rounds: int) -> None:
    """The daemon's post-chaos counters must equal the client's tally."""
    sup = stats.get("supervisor")
    if not isinstance(sup, dict):
        battery.violations.append("stats carries no supervisor snapshot")
        return
    admission = sup.get("admission", {})
    checks = [
        ("shed_total", admission.get("shed_total"), battery.counts["overloaded"]),
        ("poisoned", sup.get("poisoned"), battery.counts["poisoned"]),
        ("memouts", sup.get("memouts"), battery.counts["memout"]),
    ]
    for name, daemon_side, client_side in checks:
        if daemon_side != client_side:
            battery.violations.append(
                "stats.%s=%r does not reconcile with the client's %d"
                % (name, daemon_side, client_side)
            )
    if battery.counts["stuck"] >= 1 and sup.get("family_restarts", 0) < 1:
        battery.violations.append(
            "family wedged (%d stuck) but stats shows no restart"
            % battery.counts["stuck"]
        )
    if rounds >= FAILURE_THRESHOLD and not sup.get("breakers", {}).get("trips"):
        battery.violations.append(
            "%d rounds of worker OOM tripped no circuit breaker" % rounds
        )
    if battery.counts["overloaded"] < 1:
        battery.violations.append(
            "burst of %d > budget %d shed nothing" % (BURST, MAX_INFLIGHT)
        )
    if battery.counts["memout"] + battery.counts["poisoned"] < rounds:
        battery.violations.append(
            "oom victim answered ok somewhere: %d memout + %d poisoned < %d rounds"
            % (battery.counts["memout"], battery.counts["poisoned"], rounds)
        )


def _audit_cache(cache_path: str, battery: _Battery) -> None:
    """The persisted cache must reload and contain only ok verdicts."""
    from repro.evalx.parallel import ResultsLog, STATUS_OK

    if not os.path.exists(cache_path):
        battery.violations.append("daemon left no cache file behind")
        return
    records = ResultsLog(cache_path).load()
    if not records:
        battery.violations.append("cache reloaded empty after the battery")
    for record in records.values():
        if record.status != STATUS_OK:
            battery.violations.append(
                "non-verdict record persisted to the cache: %s status=%s"
                % (record.instance, record.status)
            )


def render_report(report: Dict[str, object]) -> str:
    counts = report["counts"]
    lines = [
        "serve chaos (schema %s, seed %s, %s rounds, %.1fs)"
        % (report["schema"], report["seed"], report["rounds"], report["seconds"]),
        "  requests %d: ok %d (cached %d)"
        % (counts["requests"], counts["ok"], counts["cached"]),
        "  structured failures: memout %d, poisoned %d, overloaded %d, "
        "stuck %d, deadline %d"
        % (counts["memout"], counts["poisoned"], counts["overloaded"],
           counts["stuck"], counts["deadline"]),
        "  clean SIGTERM exit: %s" % report["clean_sigterm_exit"],
    ]
    for violation in report["violations"]:
        lines.append("  VIOLATION: %s" % violation)
    lines.append("  passed: %s" % report["passed"])
    return "\n".join(lines)
