"""Chaos suite: the harness must converge to fault-free results under fire.

A seeded :class:`FaultPlan` schedules one worker crash, one hang and one
torn results-file append across a small sweep. The sweep — retries, kill
escalation, torn-line tolerance and all — must terminate and produce
measurements identical (modulo wall-clock seconds) to the same sweep run
with no faults at all.
"""

import json
import os

import pytest

from repro.evalx.parallel import (
    ResultsLog,
    STATUS_OK,
    Task,
    measurement_to_dict,
    measurements_by_key,
    run_tasks,
)
from repro.evalx.runner import Budget
from repro.generators.ncf import NcfParams, generate_ncf
from repro.robustness.faults import (
    CRASH,
    FaultPlan,
    HANG,
    InjectedFault,
    TORN_APPEND,
)


def sweep_tasks(n=6, budget=Budget(decisions=400)):
    tasks = []
    for seed in range(n):
        phi = generate_ncf(NcfParams(dep=5, var=3, cls=9, lpc=4, seed=seed))
        tasks.append(
            Task(instance="ncf-%d" % seed, solver="PO", formula=phi, budget=budget)
        )
    return tasks


def comparable(records):
    """Measurement dicts keyed by (instance, solver), wall-clock dropped."""
    out = {}
    for key, m in measurements_by_key(records).items():
        d = measurement_to_dict(m)
        d.pop("seconds", None)
        out[key] = d
    return out


class TestFaultPlan:
    def test_bind_is_deterministic_and_disjoint(self):
        labels = ["i%d|PO" % k for k in range(8)]
        a = FaultPlan(seed=3, crashes=1, hangs=1, torn_appends=1)
        b = FaultPlan(seed=3, crashes=1, hangs=1, torn_appends=1)
        a.bind(labels)
        b.bind(reversed(labels))  # order of discovery must not matter
        assert a.assignments == b.assignments
        assert len(a.assignments) == 3  # three distinct victims
        assert sorted(a.assignments.values()) == sorted([CRASH, HANG, TORN_APPEND])

    def test_different_seed_different_victims(self):
        labels = ["i%d|PO" % k for k in range(20)]
        a = FaultPlan(seed=1, crashes=2)
        b = FaultPlan(seed=2, crashes=2)
        a.bind(labels)
        b.bind(labels)
        assert a.assignments != b.assignments

    def test_roundtrip_through_file(self, tmp_path):
        plan = FaultPlan(seed=7, crashes=1, hangs=2, hang_seconds=9.0)
        plan.bind(["a|PO", "b|PO", "c|PO", "d|PO"])
        path = str(tmp_path / "plan.json")
        with open(path, "w") as fh:
            json.dump(plan.to_dict(), fh)
        back = FaultPlan.from_file(path)
        assert back.assignments == plan.assignments
        assert back.hang_seconds == 9.0

    def test_crash_fires_once(self):
        plan = FaultPlan(assignments={"a|PO": CRASH})
        task = Task(
            instance="a", solver="PO",
            formula=generate_ncf(NcfParams(dep=4, var=3, cls=9, lpc=4, seed=0)),
        )
        with pytest.raises(InjectedFault):
            plan.on_worker_start(task, attempt=1)
        plan.on_worker_start(task, attempt=2)  # retries run clean

    def test_unknown_kind_rejected(self):
        for kind in ("meteor-strike", "flip-verdict"):
            with pytest.raises(ValueError, match="unknown fault kind"):
                FaultPlan(assignments={"a|PO": kind})

    def test_torn_checkpoint_is_an_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind 'torn-checkpoint'"):
            FaultPlan(assignments={"a|PO": "torn-checkpoint"})
        with pytest.raises(ValueError, match="unknown fault kind 'torn-checkpoint'"):
            FaultPlan.from_dict({"assignments": {"a|PO": "torn-checkpoint"}})

    def test_plan_with_a_torn_checkpoint_count_still_loads(self):
        # A plan file written when the fault existed loads, ignores the
        # count, and binds the crash, hang and torn-append victims it
        # always bound (drawn before the torn-checkpoint one).
        labels = ["i%d|PO" % k for k in range(8)]
        plan = FaultPlan.from_dict({
            "seed": 3, "crashes": 1, "hangs": 1, "torn_appends": 1,
            "torn_checkpoints": 1, "hang_seconds": 60.0,
        })
        plan.bind(labels)
        assert plan.assignments == {
            "i3|PO": CRASH, "i4|PO": HANG, "i6|PO": TORN_APPEND,
        }
        assert "torn_checkpoints" not in plan.to_dict()


class TestTornAppend:
    def test_torn_final_line_then_resume(self, tmp_path):
        # First sweep tears the last row's append mid-line; the rerun must
        # tolerate the fragment, re-run only the lost task, and end with a
        # complete results file.
        path = str(tmp_path / "r.jsonl")
        tasks = sweep_tasks(3)
        victim = "%s|%s" % (tasks[-1].instance, tasks[-1].solver)
        plan = FaultPlan(assignments={victim: TORN_APPEND})
        log = ResultsLog(path, faults=plan)
        run_tasks(tasks, jobs=1, results=log)
        log.close()
        raw = open(path).read()
        assert not raw.endswith("\n")  # the tear really happened
        assert len(ResultsLog(path).load()) == len(tasks) - 1

        log2 = ResultsLog(path)
        records = run_tasks(tasks, jobs=1, results=log2)
        log2.close()
        assert len(ResultsLog(path).load()) == len(tasks)
        assert sorted(r.instance for r in records) == sorted(
            t.instance for t in tasks
        )

    def test_durable_append_fsyncs(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        path = str(tmp_path / "d.jsonl")
        log = ResultsLog(path)
        run_tasks(sweep_tasks(2), jobs=1, results=log)
        log.close()
        assert len(synced) >= 2  # one fsync per acknowledged row

        synced.clear()
        log = ResultsLog(str(tmp_path / "nd.jsonl"), durable=False)
        run_tasks(sweep_tasks(2), jobs=1, results=log)
        log.close()
        assert synced == []


class TestChaosSweep:
    def test_sweep_converges_to_fault_free_results(self, tmp_path):
        tasks = sweep_tasks(6)
        baseline = run_tasks(tasks, jobs=2, wall_timeout=20.0)
        want = comparable(baseline)
        assert len(want) == len(tasks)
        assert all(r.status == STATUS_OK for r in baseline)

        plan = FaultPlan(
            seed=5, crashes=1, hangs=1, torn_appends=1, hang_seconds=30.0,
        )
        results = str(tmp_path / "chaos.jsonl")
        log = ResultsLog(results, faults=plan)
        records = run_tasks(
            tasks,
            jobs=2,
            results=log,
            wall_timeout=2.0,       # cuts the hang; real runs finish well under
            term_grace=0.3,
            retry_backoff=0.05,
            faults=plan,
        )
        log.close()
        # every scheduled fault found a victim
        assert sorted(plan.assignments.values()) == sorted([CRASH, HANG, TORN_APPEND])
        # ...and the sweep still produced the fault-free measurements
        assert comparable(records) == want
        assert all(r.status == STATUS_OK for r in records)
        retried = [r for r in records if r.attempts > 1]
        assert retried, "the crash and the hang should have cost retries"
        crash_victims = [l for l, k in plan.assignments.items() if k == CRASH]
        backoffs = {
            "%s|%s" % (r.instance, r.solver): r.backoff for r in records
        }
        assert all(backoffs[v] > 0 for v in crash_victims)

        # a second pass over the same (torn) results file heals it
        log = ResultsLog(results)
        again = run_tasks(tasks, jobs=2, results=log, wall_timeout=20.0)
        log.close()
        assert comparable(again) == want
        assert len(ResultsLog(results).load()) >= len(tasks)

    def test_serial_sweep_survives_crash_faults(self, tmp_path):
        # jobs=1 has no worker processes to kill, but crash faults and torn
        # appends still exercise the in-process retry path.
        tasks = sweep_tasks(4)
        want = comparable(run_tasks(tasks, jobs=1))
        plan = FaultPlan(seed=11, crashes=2, torn_appends=1)
        results = str(tmp_path / "serial.jsonl")
        log = ResultsLog(results, faults=plan)
        records = run_tasks(
            tasks, jobs=1, results=log, retry_backoff=0.01, faults=plan,
        )
        log.close()
        assert comparable(records) == want
        assert sum(1 for r in records if r.backoff > 0) == 2

