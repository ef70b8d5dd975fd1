"""Chaos property suite for the supervised daemon, in-process.

The daemon object is driven directly through ``dispatch()`` — no
subprocess, no socket — with deterministic fault assignments. The
properties under test:

* every request returns a correct verdict or a *structured* error
  (``overloaded`` / ``poisoned`` / ``memout`` / ``stuck`` / ``deadline``
  / a failure status with an ``error`` string) — never a hang, never a
  wrong verdict;
* supervisor stats reconcile with what the client observed;
* the verdict cache never absorbs a failure record.

Every dispatch is wrapped in ``asyncio.wait_for`` so a supervision bug
shows up as a test failure, not a wedged test run.
"""

import ast
import asyncio
import os
import resource

import pytest

from repro.incremental import IncrementalSolver
from repro.robustness.faults import FaultPlan
from repro.robustness.interrupt import InterruptFlag
from repro.serve.daemon import ServeDaemon

# Verdicts known by construction (same instances the serve tests use).
TRUE_QD = "p cnf 2 2\ne 1 0\na 2 0\n1 2 0\n1 -2 0\n"
FALSE_QD = "p cnf 1 1\na 1 0\n1 0\n"

#: statuses that count as structured (deliberate) failures.
STRUCTURED = ("overloaded", "poisoned", "memout", "stuck", "deadline",
              "crash", "hard-timeout")

#: generous guard on every dispatch: a request that takes this long has
#: violated the no-hang property.
GUARD_SECONDS = 30.0


def make_daemon(tmp_path, faults=None, **kwargs):
    kwargs.setdefault("max_inflight", 4)
    kwargs.setdefault("failure_threshold", 2)
    kwargs.setdefault("breaker_cooldown", 300.0)
    kwargs.setdefault("interrupt", InterruptFlag())
    return ServeDaemon(
        socket_path=str(tmp_path / "chaos.sock"),
        cache_path=str(tmp_path / "cache.jsonl"),
        faults=faults,
        **kwargs,
    )


def ask(daemon, *requests):
    """Dispatch requests sequentially inside one event loop, guarded."""

    async def drive():
        out = []
        for req in requests:
            out.append(
                await asyncio.wait_for(daemon.dispatch(dict(req)), GUARD_SECONDS)
            )
        return out

    try:
        return asyncio.run(drive())
    finally:
        daemon.close()


def check_structured(resp):
    """The core property: a response is an answer or a structured refusal."""
    assert isinstance(resp, dict)
    assert "ok" in resp
    if not resp["ok"]:
        assert resp.get("status") in STRUCTURED, resp
        assert isinstance(resp.get("error"), str) and resp["error"], resp
    return resp


def solve_req(instance, formula=TRUE_QD, **extra):
    req = {"kind": "solve", "instance": instance, "formula": formula,
           "deadline": 20.0}
    req.update(extra)
    return req


def smv_req(n=0, deadline=20.0):
    return {"kind": "smv-diameter", "family": "counter", "size": 2, "n": n,
            "deadline": deadline}


class TestVerdictsSurviveFaults:
    def test_clean_requests_get_correct_verdicts(self, tmp_path):
        daemon = make_daemon(tmp_path)
        true_resp, false_resp = ask(
            daemon, solve_req("t"), solve_req("f", FALSE_QD)
        )
        assert check_structured(true_resp)["outcome"] == "true"
        assert check_structured(false_resp)["outcome"] == "false"

    def test_crash_fault_is_masked_by_retry(self, tmp_path):
        plan = FaultPlan(assignments={"crashy|PO": "crash"})
        daemon = make_daemon(tmp_path, faults=plan)
        (resp,) = ask(daemon, solve_req("crashy"))
        # A first-attempt crash is retried; the verdict is still correct.
        assert check_structured(resp)["ok"]
        assert resp["outcome"] == "true"


class TestMemoutAndPoisoning:
    def test_oom_becomes_memout_then_poisoned(self, tmp_path):
        plan = FaultPlan(assignments={"fat|PO": "worker-oom"})
        daemon = make_daemon(tmp_path, faults=plan, failure_threshold=2)
        r1, r2, r3 = ask(
            daemon, solve_req("fat"), solve_req("fat"), solve_req("fat")
        )
        for resp in (r1, r2):
            check_structured(resp)
            assert resp["status"] == "memout"
        # Two consecutive memouts trip the key's breaker: the third
        # request is refused without spawning a worker.
        check_structured(r3)
        assert r3["status"] == "poisoned"
        assert r3["last_failure"]["status"] == "memout"
        assert r3["retry_after"] > 0
        snap = daemon.supervisor.snapshot()
        assert snap["memouts"] == 2
        assert snap["poisoned"] == 1
        assert snap["breakers"]["open"] == 1

    def test_failures_never_enter_the_cache(self, tmp_path):
        plan = FaultPlan(assignments={"fat|PO": "worker-oom"})
        daemon = make_daemon(tmp_path, faults=plan)
        r1, r2 = ask(daemon, solve_req("fat"), solve_req("ok-too"))
        assert r1["status"] == "memout"
        assert r2["ok"]
        cached = list(daemon._cache)
        assert [k[0] for k in cached] == ["ok-too"]

    def test_other_keys_are_unaffected_by_an_open_breaker(self, tmp_path):
        plan = FaultPlan(assignments={"fat|PO": "worker-oom"})
        daemon = make_daemon(tmp_path, faults=plan, failure_threshold=1)
        r1, r2, r3 = ask(
            daemon, solve_req("fat"), solve_req("fat"), solve_req("healthy")
        )
        assert r1["status"] == "memout"
        assert r2["status"] == "poisoned"
        assert check_structured(r3)["outcome"] == "true"


class TestOverload:
    def test_burst_beyond_budget_sheds_with_retry_after(self, tmp_path):
        daemon = make_daemon(tmp_path, max_inflight=1)

        async def burst():
            reqs = [solve_req("burst-%d" % i) for i in range(4)]
            return await asyncio.wait_for(
                asyncio.gather(*[daemon.dispatch(r) for r in reqs]),
                GUARD_SECONDS,
            )

        try:
            responses = asyncio.run(burst())
        finally:
            daemon.close()
        for resp in responses:
            check_structured(resp)
        shed = [r for r in responses if r.get("status") == "overloaded"]
        served = [r for r in responses if r["ok"]]
        assert served, "at least one request must be admitted"
        assert shed, "a 4-deep burst against a budget of 1 must shed"
        for resp in shed:
            assert resp["retry_after"] > 0
            assert resp["dimension"] in ("total", "solve")
        snap = daemon.supervisor.snapshot()
        assert snap["admission"]["shed_total"] == len(shed)
        assert snap["admission"]["inflight"] == 0  # all slots released

    def test_control_requests_bypass_admission(self, tmp_path):
        daemon = make_daemon(tmp_path, max_inflight=1)
        ping, stats = ask(daemon, {"kind": "ping"}, {"kind": "stats"})
        assert ping["ok"] and ping["pong"]
        assert stats["ok"] and "supervisor" in stats


class TestStuckFamily:
    def test_wedged_family_answers_stuck_then_reforks(self, tmp_path):
        # The stall never polls its interrupt flag: only the pool's
        # SIGTERM -> grace -> SIGKILL escalation can end it.
        plan = FaultPlan(
            assignments={"family:counter2": "stuck-family"}, hang_seconds=60.0
        )
        daemon = make_daemon(tmp_path, faults=plan)
        stuck, cold, warm = ask(
            daemon, smv_req(n=0, deadline=0.5), smv_req(n=1), smv_req(n=2)
        )
        check_structured(stuck)
        assert stuck["status"] == "stuck"
        assert stuck["retry_after"] == 0
        # The next bound re-forks the family worker: a cold, correct solve.
        assert check_structured(cold)["ok"]
        assert cold["outcome"] == "true"
        assert cold["incremental"] is False
        assert cold["retained"] == 0
        # ... and the re-forked worker stays warm for the bound after.
        assert check_structured(warm)["ok"]
        assert warm["outcome"] == "true"
        assert warm["incremental"] is True
        assert daemon._families["counter2"].pool.forks == 2
        assert daemon._families["counter2"].restarts == 1  # stats' family_restarts
        snap = daemon.supervisor.snapshot()
        assert snap["memouts"] == 0 and snap["poisoned"] == 0
        assert snap["breakers"]["tracked"] == 1
        assert snap["breakers"]["open"] == 0

    def test_cached_bound_is_served_while_the_family_breaker_is_open(self, tmp_path):
        plan = FaultPlan(
            assignments={"family:counter2": "stuck-family"}, hang_seconds=3.0
        )
        warm = make_daemon(tmp_path)
        (solved,) = ask(warm, smv_req(n=0))
        assert solved["ok"] and not solved["cached"]
        # A second daemon on the same cache: one stuck bound trips the
        # family's breaker, yet the cached bound is still served.
        daemon = make_daemon(tmp_path, faults=plan, failure_threshold=1)
        stuck, refused, cached = ask(
            daemon, smv_req(n=1, deadline=0.5), smv_req(n=2), smv_req(n=0)
        )
        assert stuck["status"] == "stuck"
        assert refused["status"] == "poisoned"
        assert refused["last_failure"]["status"] == "stuck"
        assert check_structured(cached)["ok"] and cached["cached"]
        assert cached["outcome"] == solved["outcome"] == "true"


class TestFamilyWorker:
    """Every family solve runs in the family's pool worker."""

    def probe_solves(self, tmp_path, monkeypatch, **kwargs):
        """Record the pid and address-space limit of every family solve."""
        real = IncrementalSolver.solve
        probes = tmp_path / "probes"
        probes.mkdir()

        def probe(solver, *args, **kw):
            with open(str(probes / str(solver.solves)), "w") as handle:
                handle.write(repr((os.getpid(), resource.getrlimit(resource.RLIMIT_AS))))
            return real(solver, *args, **kw)

        monkeypatch.setattr(IncrementalSolver, "solve", probe)
        first, second = ask(make_daemon(tmp_path, **kwargs), smv_req(n=0), smv_req(n=1))
        assert first["ok"] and second["ok"] and second["incremental"]
        return [ast.literal_eval(p.read_text()) for p in sorted(probes.iterdir())]

    def test_family_solve_runs_outside_the_daemon_process(self, tmp_path, monkeypatch):
        seen = self.probe_solves(tmp_path, monkeypatch)
        pids = {pid for pid, _ in seen}
        assert len(seen) == 2 and len(pids) == 1  # one warm worker, two bounds
        assert os.getpid() not in pids

    def test_mem_limit_reaches_the_family_worker(self, tmp_path, monkeypatch):
        seen = self.probe_solves(tmp_path, monkeypatch, mem_limit_mb=2048)
        assert [limit for _, limit in seen] == [(2048 * 1024**2,) * 2] * 2


class TestStatsReconcile:
    def test_counters_match_observed_responses(self, tmp_path):
        plan = FaultPlan(assignments={"fat|PO": "worker-oom"})
        daemon = make_daemon(tmp_path, faults=plan, failure_threshold=1)
        responses = ask(
            daemon,
            solve_req("a"),
            solve_req("fat"),
            solve_req("fat"),
            solve_req("a"),  # cache hit
            solve_req("b", FALSE_QD),
        )
        seen = {"memout": 0, "poisoned": 0, "ok": 0, "cached": 0}
        for resp in responses:
            check_structured(resp)
            status = resp.get("status")
            if status in ("memout", "poisoned"):
                seen[status] += 1
            if resp["ok"]:
                seen["ok"] += 1
            if resp.get("cached"):
                seen["cached"] += 1
        assert seen == {"memout": 1, "poisoned": 1, "ok": 3, "cached": 1}
        snap = daemon.supervisor.snapshot()
        assert snap["memouts"] == seen["memout"]
        assert snap["poisoned"] == seen["poisoned"]
        assert snap["admission"]["shed_total"] == 0
        assert snap["admission"]["inflight"] == 0
        assert daemon.stats["cache_hits"] == seen["cached"]
