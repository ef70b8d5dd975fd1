"""Tests for the fault-isolated multiprocess batch runner."""

import functools
import json
import os
import time

import pytest

from repro.core.formula import paper_example
from repro.core.result import Outcome, SolverStats
from repro.evalx.parallel import (
    Record,
    ResultsLog,
    STATUS_CRASH,
    STATUS_DISAGREEMENT,
    STATUS_HARD_TIMEOUT,
    STATUS_OK,
    Task,
    disagreement_record,
    execute_task,
    measurement_from_dict,
    measurement_to_dict,
    measurements_by_key,
    note_disagreement,
    run_tasks,
    stats_from_dict,
    stats_to_dict,
)
from repro.evalx.runner import Budget, Measurement, SolverDisagreement
from tests.late_wait import LateWaitContext


def make_tasks(names, budget=Budget(decisions=500)):
    phi = paper_example()
    return [Task(instance=n, solver="PO", formula=phi, budget=budget) for n in names]


def record_keys(records):
    return [
        (r.instance, r.solver, r.status, r.measurement.outcome, r.measurement.decisions)
        for r in records
    ]


# Module-level executors: picklable by reference, usable under any mp start
# method.


def crash_on_bad(task):
    if task.instance.startswith("bad"):
        raise RecursionError("synthetic worker crash for %s" % task.instance)
    return execute_task(task)


def hang_on_slow(task):
    if task.instance.startswith("slow"):
        while True:  # pragma: no cover - killed by the parent
            time.sleep(0.05)
    return execute_task(task)


def always_crash(task):
    raise RuntimeError("no task should have been executed: %s" % task.instance)


def report_when_released(go, task):
    go.wait(30)
    return execute_task(task)


def ignore_cancel(_):
    time.sleep(60)  # SIGTERM only sets the interrupt flag, which this never reads
    return "finished"


def wait_for_cancel(_):
    from repro.robustness.interrupt import global_flag

    while not global_flag().is_set():
        time.sleep(0.001)
    return "cancelled"


class TestSerialization:
    def test_measurement_roundtrip_with_stats(self):
        m = execute_task(make_tasks(["i"])[0])
        assert isinstance(m.stats, SolverStats)
        back = measurement_from_dict(measurement_to_dict(m))
        assert back == m

    def test_measurement_roundtrip_without_stats(self):
        m = Measurement("i", "PO", Outcome.UNKNOWN, 7, 0.5)
        assert measurement_from_dict(measurement_to_dict(m)) == m

    def test_stats_roundtrip(self):
        stats = SolverStats(decisions=3, conflicts=2, learned_cubes=1)
        assert stats_from_dict(stats_to_dict(stats)) == stats

    def test_record_roundtrip(self):
        task = make_tasks(["i"])[0]
        rec = Record(
            instance="i",
            solver="PO",
            fingerprint=task.fingerprint(),
            status=STATUS_OK,
            measurement=execute_task(task),
            attempts=2,
        )
        assert Record.from_dict(rec.to_dict()) == rec

    def test_fingerprint_distinguishes_configs(self):
        phi = paper_example()
        a = Task("i", "PO", phi, budget=Budget(decisions=10))
        b = Task("i", "PO", phi, budget=Budget(decisions=20))
        c = Task("i", "PO", phi, budget=Budget(decisions=10), overrides=(("policy", "naive"),))
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3
        assert a.fingerprint() == Task("j", "TO", phi, budget=Budget(decisions=10)).fingerprint()

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            Task("i", "PO", paper_example(), mode="sideways")


class TestSerialRunner:
    def test_jobs_one_runs_in_process(self):
        records = run_tasks(make_tasks(["a", "b"]), jobs=1)
        assert all(r.ok for r in records)
        assert [r.instance for r in records] == ["a", "b"]
        assert records[0].measurement.outcome is Outcome.FALSE

    def test_jobs_one_captures_crash_as_record(self):
        records = run_tasks(make_tasks(["a", "bad-1"]), jobs=1, executor=crash_on_bad)
        assert records[0].ok
        assert records[1].status == STATUS_CRASH
        assert "RecursionError" in records[1].error
        # Outcome-style failure: censored like a timeout, not missing.
        assert records[1].measurement.outcome is Outcome.UNKNOWN
        # bounded retry: first try + one retry by default
        assert records[1].attempts == 2

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_tasks([], jobs=0)


class TestPoolFaultIsolation:
    def test_crash_isolated_to_one_instance(self):
        records = run_tasks(
            make_tasks(["a", "bad-1", "b", "c"]),
            jobs=2,
            executor=crash_on_bad,
            max_retries=1,
        )
        by_instance = {r.instance: r for r in records}
        assert by_instance["bad-1"].status == STATUS_CRASH
        assert by_instance["bad-1"].attempts == 2
        assert "RecursionError" in by_instance["bad-1"].error
        for name in ("a", "b", "c"):
            assert by_instance[name].ok, name

    def test_hard_timeout_kills_worker(self):
        start = time.monotonic()
        records = run_tasks(
            make_tasks(["a", "slow-1", "b"]),
            jobs=2,
            executor=hang_on_slow,
            wall_timeout=0.5,
        )
        elapsed = time.monotonic() - start
        by_instance = {r.instance: r for r in records}
        assert by_instance["slow-1"].status == STATUS_HARD_TIMEOUT
        assert by_instance["slow-1"].measurement.timed_out
        assert by_instance["a"].ok and by_instance["b"].ok
        # The hung worker must have been terminated, not waited out.
        assert elapsed < 20

    def test_hard_timeout_leaves_no_worker_behind(self):
        import multiprocessing

        records = run_tasks(
            make_tasks(["slow-1"]), jobs=2, executor=hang_on_slow,
            wall_timeout=0.3, term_grace=0.3, max_retries=0,
        )
        assert records[0].status == STATUS_HARD_TIMEOUT
        assert "SIGKILL" in records[0].error
        assert multiprocessing.active_children() == []

    def test_report_racing_the_liveness_check_is_not_a_crash(self, monkeypatch):
        from repro.evalx import parallel

        ctx = LateWaitContext(parallel._mp_context())
        ctx.install(monkeypatch)
        records = run_tasks(
            make_tasks(["a"]),
            jobs=2,
            executor=functools.partial(report_when_released, ctx.go),
            max_retries=0,
        )
        assert ctx.fired and len(ctx.processes) == 1
        assert records[0].ok, records[0].error
        assert records[0].measurement.outcome is Outcome.FALSE

    def test_report_racing_the_exit_keeps_every_verdict(self, monkeypatch):
        # PO and TO both report and exit before the pool looks at their
        # pipes, and the pool sees the exits first. A verdict read as
        # "worker died without reporting" would drop one of the two.
        from repro.evalx import parallel

        ctx = LateWaitContext(parallel._mp_context())
        ctx.install(monkeypatch)
        phi = paper_example()
        tasks = [
            Task("paper", "PO", phi, budget=Budget(decisions=4000)),
            Task("paper", "TO(eu_au)", phi, "to", "eu_au", Budget(decisions=4000)),
        ]
        records = run_tasks(
            tasks,
            jobs=2,
            executor=functools.partial(report_when_released, ctx.go),
            max_retries=0,
        )
        assert ctx.fired and len(ctx.processes) == 2
        assert [r.error for r in records if not r.ok] == []
        assert sorted(r.solver for r in records) == ["PO", "TO(eu_au)"]
        assert {r.measurement.outcome for r in records} == {Outcome.FALSE}

    def test_cancel_at_birth_stays_out_of_the_parents_event_loop(self):
        # An asyncio parent (the serve daemon) routes its SIGTERM through a
        # wakeup fd every fork inherits. A cancel that reaches a worker
        # before its prologue detached that fd must not read as the
        # parent's own SIGTERM.
        import asyncio
        import signal

        from repro.evalx.parallel import WorkerPool

        hits = []

        async def cancel_at_birth():
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, hits.append, "parent")
            pool = WorkerPool(1, wait_for_cancel, term_grace=1.0)
            try:
                for _ in range(10):
                    pool.cancel(pool.submit("job"))
                    assert [job.result for job in pool.wait()] == ["cancelled"]
                    await asyncio.sleep(0.01)  # let the loop read its wakeup fd
            finally:
                pool.close()

        previous = signal.getsignal(signal.SIGTERM)
        try:
            asyncio.run(cancel_at_birth())
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert hits == []

    def test_cancel_of_a_deaf_job_escalates_to_sigkill(self):
        import multiprocessing

        from repro.evalx.parallel import STATUS_CANCELLED, WorkerPool

        pool = WorkerPool(1, ignore_cancel, term_grace=0.5)
        try:
            job = pool.submit("job")
            start = time.monotonic()
            pool.cancel(job)
            done = pool.wait(timeout=30)
            elapsed = time.monotonic() - start
        finally:
            pool.close()
        assert done == [job]
        assert job.status == STATUS_CANCELLED and "SIGKILL" in job.result, job.result
        assert 0.5 <= elapsed < 10
        assert multiprocessing.active_children() == []

    def test_parallel_equals_serial(self):
        tasks = make_tasks(["i%d" % i for i in range(6)])
        tasks += [
            Task("i%d" % i, "TO(eu_au)", paper_example(), "to", "eu_au",
                 Budget(decisions=500))
            for i in range(6)
        ]
        serial = run_tasks(tasks, jobs=1)
        parallel = run_tasks(tasks, jobs=4, wall_timeout=60)
        assert record_keys(serial) == record_keys(parallel)


class TestResume:
    def test_resume_skips_recorded_runs(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        tasks = make_tasks(["a", "b", "c"])
        first = run_tasks(tasks[:2], jobs=1, results=path)
        assert all(r.ok for r in first)
        with open(path) as handle:
            assert len(handle.readlines()) == 2
        # Recorded keys must not be re-executed: an executor that crashes on
        # any call proves the first two tasks are served from the log.
        with pytest.raises(RuntimeError):
            always_crash(tasks[0])
        resumed = run_tasks(tasks[:2], jobs=1, results=path, executor=always_crash, max_retries=0)
        assert record_keys(resumed) == record_keys(first)
        # The third task does run, and appends to the same log.
        full = run_tasks(tasks, jobs=1, results=path)
        assert [r.instance for r in full] == ["a", "b", "c"]
        with open(path) as handle:
            assert len(handle.readlines()) == 3

    def test_changed_budget_invalidates_resume(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        run_tasks(make_tasks(["a"], budget=Budget(decisions=100)), jobs=1, results=path)
        # Same instance under a different budget is a different key: reruns.
        records = run_tasks(
            make_tasks(["a"], budget=Budget(decisions=200)), jobs=1, results=path
        )
        assert records[0].ok
        with open(path) as handle:
            assert len(handle.readlines()) == 2

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        run_tasks(make_tasks(["a"]), jobs=1, results=path)
        with open(path, "a") as handle:
            handle.write('{"instance": "b", "solver": "PO", "trunc')
        log = ResultsLog(path)
        assert len(log.load()) == 1
        # And the torn task simply reruns.
        records = run_tasks(make_tasks(["a", "b"]), jobs=1, results=path)
        assert all(r.ok for r in records)
        # The append after the tear must not glue the new row onto the
        # fragment: everything except the fragment itself stays parseable.
        with open(path) as handle:
            lines = [line for line in handle if line.strip()]
        parsed = 0
        for line in lines:
            try:
                json.loads(line)
                parsed += 1
            except ValueError:
                pass
        assert parsed == len(lines) - 1 == 2

    def test_failure_records_resume_too(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        records = run_tasks(
            make_tasks(["bad-1"]), jobs=1, results=path, executor=crash_on_bad,
            max_retries=0,
        )
        assert records[0].status == STATUS_CRASH
        resumed = run_tasks(make_tasks(["bad-1"]), jobs=1, results=path)
        assert resumed[0].status == STATUS_CRASH  # served from the log


class TestDisagreementPlumbing:
    def _conflicting(self):
        a = Measurement("i", "TO(eu_au)", Outcome.TRUE, 10, 0.1)
        b = Measurement("i", "PO", Outcome.FALSE, 10, 0.1)
        return SolverDisagreement(a, b)

    def test_disagreement_record_shape(self):
        rec = disagreement_record(self._conflicting())
        assert rec.status == STATUS_DISAGREEMENT
        assert rec.instance == "i"
        assert "disagreement" in rec.error

    def test_note_disagreement_raises_without_log(self):
        with pytest.raises(SolverDisagreement):
            note_disagreement(self._conflicting(), None)

    def test_note_disagreement_logs_as_data(self, tmp_path):
        path = str(tmp_path / "results.jsonl")
        with ResultsLog(path) as log:
            rec = note_disagreement(self._conflicting(), log)
        assert rec.status == STATUS_DISAGREEMENT
        with open(path) as handle:
            row = json.loads(handle.readline())
        assert row["status"] == STATUS_DISAGREEMENT

    def test_measurements_by_key_skips_disagreements(self):
        ok = run_tasks(make_tasks(["a"]), jobs=1)[0]
        rows = [ok, disagreement_record(self._conflicting())]
        assert set(measurements_by_key(rows)) == {("a", "PO")}


class TestSuiteIntegration:
    def test_parallel_sweep_equals_serial(self):
        from repro.evalx.suites import run_suite

        tiny = Budget(decisions=150)
        serial, _ = run_suite("ncf", 1, tiny)
        parallel, _ = run_suite("ncf", 1, tiny, jobs=2, wall_timeout=60)
        def key(results):
            return [
                (r.instance, r.setting, r.po_run.outcome, r.po_run.decisions,
                 [(s, m.outcome, m.decisions) for s, m in r.to_runs.items()])
                for r in results
            ]
        assert key(serial) == key(parallel)

    def test_sweep_resumes(self, tmp_path):
        from repro.evalx.suites import run_suite

        path = str(tmp_path / "ncf.jsonl")
        tiny = Budget(decisions=150)
        first, _ = run_suite("ncf", 1, tiny, results_path=path)
        lines_after_first = sum(1 for _ in open(path))
        again, _ = run_suite("ncf", 1, tiny, results_path=path)
        assert sum(1 for _ in open(path)) == lines_after_first
        assert [r.instance for r in first] == [r.instance for r in again]


def raise_keyboard_interrupt(task):
    raise KeyboardInterrupt


def raise_system_exit(task):
    raise SystemExit(1)


class _PipeStub:
    def __init__(self):
        self.sent = []

    def send(self, payload):
        self.sent.append(payload)

    def close(self):
        pass


class TestPreemptionPlumbing:
    def test_record_roundtrip_with_backoff(self):
        task = make_tasks(["i"])[0]
        rec = Record(
            instance="i",
            solver="PO",
            fingerprint=task.fingerprint(),
            status=STATUS_CRASH,
            measurement=execute_task(task),
            attempts=3,
            backoff=1.25,
        )
        assert Record.from_dict(rec.to_dict()) == rec

    def test_backoff_absent_from_row_when_zero(self):
        task = make_tasks(["i"])[0]
        rec = Record(
            instance="i",
            solver="PO",
            fingerprint=task.fingerprint(),
            status=STATUS_OK,
            measurement=execute_task(task),
        )
        assert "backoff" not in rec.to_dict()

    def test_worker_main_reraises_keyboard_interrupt(self):
        # Regression: the worker used to swallow KeyboardInterrupt into a
        # crash record and keep the process alive after Ctrl-C.
        from repro.evalx.parallel import _worker_main

        conn = _PipeStub()
        with pytest.raises(KeyboardInterrupt):
            _worker_main(make_tasks(["i"])[0], raise_keyboard_interrupt, conn)
        # ...but it still reports the crash to the parent first.
        assert conn.sent and conn.sent[0][0] == STATUS_CRASH

    def test_worker_main_reraises_system_exit(self):
        from repro.evalx.parallel import _worker_main

        conn = _PipeStub()
        with pytest.raises(SystemExit):
            _worker_main(make_tasks(["i"])[0], raise_system_exit, conn)
        assert conn.sent and conn.sent[0][0] == STATUS_CRASH

    def test_serial_runner_propagates_keyboard_interrupt(self):
        # A serial sweep must stop on Ctrl-C, not record it and march on.
        with pytest.raises(KeyboardInterrupt):
            run_tasks(make_tasks(["a"]), jobs=1, executor=raise_keyboard_interrupt)

    def test_crash_retry_records_backoff(self):
        records = run_tasks(
            make_tasks(["bad-1"]),
            jobs=1,
            executor=crash_on_bad,
            max_retries=2,
            retry_backoff=0.01,
        )
        assert records[0].status == STATUS_CRASH
        assert records[0].attempts == 3
        assert records[0].backoff > 0

    def test_backoff_is_deterministic(self):
        from repro.evalx.parallel import _backoff_delay

        key = ("i", "PO", "fp")
        assert _backoff_delay(0.5, key, 1) == _backoff_delay(0.5, key, 1)
        # exponential: attempt 2's delay window doubles attempt 1's
        assert _backoff_delay(0.5, key, 2) > _backoff_delay(0.5, key, 1)
        assert _backoff_delay(0.0, key, 1) == 0.0

    def test_pool_crash_retry_records_backoff(self):
        records = run_tasks(
            make_tasks(["bad-1", "a"]),
            jobs=2,
            executor=crash_on_bad,
            max_retries=1,
            retry_backoff=0.02,
        )
        by_instance = {r.instance: r for r in records}
        assert by_instance["bad-1"].status == STATUS_CRASH
        assert by_instance["bad-1"].backoff > 0
        assert by_instance["a"].backoff == 0.0


class TestCallerOwnedPool:
    """``run_tasks(pool=...)``: attempts on a persistent pool the caller
    keeps open, the serve daemon's warm solve lane."""

    def test_tasks_in_turn_on_one_worker_match_in_process_runs(self):
        import multiprocessing

        from repro.evalx.parallel import WorkerPool, measure_task
        from repro.generators.ncf import NcfParams, generate_ncf

        phi = generate_ncf(NcfParams(dep=6, var=4, cls=12, lpc=5, seed=60001))
        tasks = [
            Task("paper", "PO", paper_example(), budget=Budget(decisions=4000)),
            Task("ncf", "TO(eu_au)", phi, "to", "eu_au", Budget(decisions=3000)),
            Task("ncf", "PO", phi, budget=Budget(decisions=3000)),
        ]
        pool = WorkerPool(1, measure_task, persistent=True)
        try:
            records = [run_tasks([task], pool=pool)[0] for task in tasks]
            assert pool.forks == 1  # one warm worker took all three, pickled
        finally:
            pool.close()
        assert multiprocessing.active_children() == []
        for record, task in zip(records, tasks):
            assert record.ok, record.error
            got, want = record.measurement, execute_task(task)
            assert (got.outcome, got.decisions, got.learned_clauses, got.learned_cubes) == (
                want.outcome, want.decisions, want.learned_clauses, want.learned_cubes,
            )
        # the third solve learned from scratch in a reused interpreter
        assert records[2].measurement.learned_cubes > 0

    def test_a_caller_pool_refuses_an_executor(self):
        from repro.evalx.parallel import WorkerPool, measure_task

        pool = WorkerPool(1, measure_task, persistent=True)
        with pytest.raises(ValueError, match="pool"):
            run_tasks(make_tasks(["a"]), pool=pool, executor=crash_on_bad)
        assert pool.forks == 0

    def test_a_process_that_never_closes_its_pool_still_exits(self):
        # multiprocessing's exit handler SIGTERMs every daemonic child and
        # joins it: the idle persistent worker must die of that SIGTERM,
        # not wait for a job that never comes.
        import subprocess
        import sys

        script = (
            "from repro.evalx.parallel import WorkerPool\n"
            "pool = WorkerPool(1, abs, persistent=True)\n"
            "pool.submit(-3)\n"
            "(job,) = pool.wait()\n"
            "assert (job.status, job.result) == ('ok', 3), job.result\n"
            "print(*(w.process.pid for w in pool._workers.values()))\n"
        )
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=10,
        )
        assert done.returncode == 0, done.stderr
        assert time.monotonic() - start < 10
        (worker,) = map(int, done.stdout.split())
        with pytest.raises(ProcessLookupError):
            os.kill(worker, 0)  # joined (so reaped) by the exiting script


def test_hard_timeout_keeps_the_preempted_partial_measurement():
    from repro.smv.diameter import diameter_qbf
    from repro.smv.models import model_by_name

    phi = diameter_qbf(model_by_name("counter", 3), 8, form="tree")  # ~8 s to solve
    (record,) = run_tasks(
        [Task("counter3-8", "PO", phi, budget=Budget(decisions=None))],
        jobs=2, wall_timeout=0.5, max_retries=0,
    )
    assert record.status == STATUS_HARD_TIMEOUT
    assert record.measurement.interrupted  # the SIGTERM preempted it gracefully
    assert record.error.startswith("hard wall-clock timeout after "), record.error
    assert record.error.endswith("s"), record.error  # nothing claimed salvaged
