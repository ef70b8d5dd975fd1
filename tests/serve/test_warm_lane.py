"""The daemon's warm solve lane and its idle rule, in-process.

Generic ``solve`` requests run on ``jobs`` persistent single-worker pools
that the daemon forks on first use and keeps between requests; every
daemon worker, solve or family, is closed once it has sat idle for
``_IDLE_RETIRE`` seconds.
"""

import ast
import asyncio
import multiprocessing
import os
import resource
import threading
import time

from repro.evalx.parallel import Task, execute_task
from repro.generators.ncf import NcfParams, generate_ncf
from repro.io import qtree
from repro.robustness.faults import FaultPlan
from repro.robustness.interrupt import InterruptFlag
from repro.serve import daemon as daemon_module
from repro.serve.client import request, wait_ready
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import parse_budget
from repro.smv.diameter import diameter_qbf
from repro.smv.models import model_by_name
from tests.serve.test_supervisor_chaos import (
    FALSE_QD,
    ask,
    check_structured,
    make_daemon,
    smv_req,
    solve_req,
)


def ncf_solve(i):
    text = qtree.dumps(generate_ncf(NcfParams(dep=6, var=4, cls=12, lpc=5, seed=60000 + i)))
    return {"kind": "solve", "instance": "ncf-%d" % i, "format": "qtree", "formula": text,
            "mode": "po" if i % 2 == 0 else "to", "budget": {"decisions": 3000}}


def test_ten_cold_solves_fork_at_most_jobs_workers(tmp_path):
    reqs = [ncf_solve(i) for i in range(10)]
    daemon = make_daemon(tmp_path, jobs=2)
    *answers, stats = ask(daemon, *reqs, {"kind": "stats"})
    assert stats["supervisor"]["solve_forks"] <= 2
    assert stats["solves"] == 10
    for req, resp in zip(reqs, answers):
        assert resp["ok"] and not resp["cached"], resp
        want = execute_task(Task(
            instance=req["instance"], solver=req["mode"].upper(),
            formula=qtree.loads(req["formula"]), mode=req["mode"],
            budget=parse_budget(req["budget"]),
        ))
        assert (resp["outcome"], resp["decisions"]) == (want.outcome.value, want.decisions)
        assert resp["measurement"]["learned_cubes"] == want.learned_cubes
    assert multiprocessing.active_children() == []  # close() stopped the warm workers


def test_warm_solves_share_one_worker_under_the_memory_ceiling(tmp_path, monkeypatch):
    # The pool body looks execute_task up at each call, so a probe bound
    # before the fork runs in the warm worker.
    from repro.evalx import parallel

    real = parallel.execute_task
    probes = tmp_path / "probes"
    probes.mkdir()

    def probe(task):
        (probes / task.instance).write_text(
            repr((os.getpid(), resource.getrlimit(resource.RLIMIT_AS))))
        return real(task)

    monkeypatch.setattr(parallel, "execute_task", probe)
    daemon = make_daemon(tmp_path, jobs=1, mem_limit_mb=2048)
    answers = ask(daemon, solve_req("a"), solve_req("b", FALSE_QD))
    assert [r["outcome"] for r in answers] == ["true", "false"]
    seen = {ast.literal_eval(p.read_text()) for p in probes.iterdir()}
    assert len(seen) == 1  # both solves, one worker, one ceiling
    ((pid, limit),) = seen
    assert pid != os.getpid() and limit == (2048 * 1024**2,) * 2


def test_faulted_requests_recover_and_a_fresh_worker_answers_next(tmp_path):
    plan = FaultPlan(
        assignments={"crashy|PO": "crash", "hangy|PO": "hang", "fat|PO": "worker-oom"},
        hang_seconds=60.0,
    )
    daemon = make_daemon(tmp_path, faults=plan, jobs=1)
    crashy, hangy, fat, after_oom, clean, stats = ask(
        daemon,
        solve_req("crashy"),
        solve_req("hangy", deadline=1.0),
        solve_req("fat"),
        {"kind": "stats"},
        solve_req("clean", FALSE_QD),
        {"kind": "stats"},
    )
    # crash: the worker exits, the retry forks a fresh one
    assert check_structured(crashy)["ok"] and crashy["outcome"] == "true"
    # hang: SIGTERM at the deadline, SIGKILL after the grace, then the retry
    assert check_structured(hangy)["ok"] and hangy["outcome"] == "true"
    # worker-oom: never retried; the worker exits after its memout report
    assert check_structured(fat)["status"] == "memout"
    assert after_oom["supervisor"]["solve_forks"] == 3
    assert check_structured(clean)["ok"] and clean["outcome"] == "false"
    assert stats["supervisor"]["solve_forks"] == 4  # the clean request forked afresh


def test_a_solve_that_never_ends_answers_within_twice_its_deadline(tmp_path):
    # The deadline caps each attempt and a hard timeout is retried once,
    # so the answer comes within 2 x (deadline + term_grace).
    phi = diameter_qbf(model_by_name("counter", 3), 8, form="tree")  # ~8 s to solve
    deadline, term_grace = 0.5, 2.0
    req = {"kind": "solve", "instance": "slow", "format": "qtree",
           "formula": qtree.dumps(phi), "budget": {"decisions": None},
           "deadline": deadline}
    daemon = make_daemon(tmp_path)
    start = time.monotonic()
    (resp,) = ask(daemon, req)
    assert check_structured(resp)["status"] == "hard-timeout"
    assert time.monotonic() - start < 2 * (deadline + term_grace) + 2.0


def test_idle_workers_retire_and_the_next_requests_refork(tmp_path, monkeypatch):
    monkeypatch.setattr(daemon_module, "_IDLE_RETIRE", 0.3)
    sock = str(tmp_path / "idle.sock")
    daemon = ServeDaemon(sock, interrupt=InterruptFlag())
    thread = threading.Thread(target=asyncio.run, args=(daemon.run(),))
    thread.start()

    def supervisor():
        return request(sock, {"kind": "stats"})["supervisor"]

    try:
        wait_ready(sock, timeout=30.0)
        assert request(sock, solve_req("a"))["outcome"] == "true"
        first = request(sock, smv_req(n=0))
        assert first["ok"] and first["incremental"] is False
        end = time.monotonic() + 20.0
        while supervisor()["idle_retirements"] < 2 and time.monotonic() < end:
            time.sleep(0.05)
        assert supervisor()["idle_retirements"] == 2  # the solve and family workers
        assert multiprocessing.active_children() == []
        assert request(sock, solve_req("b", FALSE_QD))["outcome"] == "false"
        cold = request(sock, smv_req(n=1))
        assert cold["ok"] and cold["outcome"] == "true"
        assert cold["incremental"] is False  # the retired family re-forked cold
        sup = supervisor()
        assert sup["solve_forks"] == 2
        assert sup["family_restarts"] == 0  # no failure, so no restart
    finally:
        request(sock, {"kind": "shutdown"})
        thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert multiprocessing.active_children() == []
