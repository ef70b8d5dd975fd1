"""Memory-ceiling tests: RLIMIT_AS in workers, ``memout`` records, no retry.

The allocation test asks for tens of GiB against a generous ceiling, so it
never depends on the pytest process's own baseline footprint; the fault
test exercises the same classification without allocating anything.
"""

import resource

import pytest

from repro.core.formula import paper_example
from repro.evalx.parallel import (
    STATUS_MEMOUT,
    STATUS_OK,
    Task,
    WorkerPool,
    execute_task,
    run_tasks,
)
from repro.evalx.runner import Budget
from repro.robustness.faults import FaultPlan


def make_task(name):
    return Task(
        instance=name, solver="PO", formula=paper_example(),
        budget=Budget(decisions=500),
    )


# Module-level executors: picklable by reference under any mp start method.


def allocate_too_much(task):
    # ~64 GiB of int objects — far beyond the ceiling the tests set, far
    # beyond CI hosts, and safely above any interpreter baseline.
    [0] * (8 * 1024**3)
    return execute_task(task)  # pragma: no cover - allocation must fail


def allocate_modestly(task):
    buf = bytearray(8 * 1024**2)  # 8 MiB: fine under a 4 GiB ceiling
    del buf
    return execute_task(task)


class TestWorkerMemout:
    def test_breach_becomes_memout_record(self):
        records = run_tasks(
            [make_task("hog")], jobs=2, executor=allocate_too_much,
            mem_limit_mb=4096,
        )
        rec = records[0]
        assert rec.status == STATUS_MEMOUT
        assert not rec.ok
        assert "memory ceiling" in rec.error
        assert "4096 MiB" in rec.error

    def test_memout_is_never_retried(self):
        records = run_tasks(
            [make_task("hog")], jobs=2, executor=allocate_too_much,
            mem_limit_mb=4096, max_retries=3,
        )
        assert records[0].status == STATUS_MEMOUT
        assert records[0].attempts == 1

    def test_ceiling_leaves_normal_solves_alone(self):
        records = run_tasks(
            [make_task("fine")], jobs=2, executor=allocate_modestly,
            mem_limit_mb=4096,
        )
        assert records[0].status == STATUS_OK
        assert records[0].measurement is not None

    def test_parent_rlimit_is_untouched(self):
        before = resource.getrlimit(resource.RLIMIT_AS)
        run_tasks(
            [make_task("fine")], jobs=2, executor=allocate_modestly,
            mem_limit_mb=4096,
        )
        assert resource.getrlimit(resource.RLIMIT_AS) == before


def address_space_limit(_):
    return resource.getrlimit(resource.RLIMIT_AS)


@pytest.mark.parametrize("persistent", [False, True])
def test_every_job_runs_under_the_ceiling_in_both_refork_modes(persistent):
    # One-shot workers are re-forked per job, persistent ones reused: the
    # ceiling must hold for the second job either way.
    pool = WorkerPool(1, address_space_limit, persistent=persistent, mem_limit_mb=4096)
    seen = []
    try:
        for _ in range(2):
            pool.submit("probe")
            seen.extend(job.result for job in pool.wait())
    finally:
        pool.close()
    assert seen == [(4096 * 1024**2,) * 2] * 2
    assert pool.forks == (1 if persistent else 2)


class TestInjectedOom:
    def test_worker_oom_fault_classifies_as_memout(self):
        plan = FaultPlan(assignments={"victim|PO": "worker-oom"})
        records = run_tasks(
            [make_task("victim"), make_task("fine")], jobs=2, faults=plan,
        )
        by_name = {r.instance: r for r in records}
        assert by_name["victim"].status == STATUS_MEMOUT
        assert by_name["victim"].attempts == 1  # deterministic: no retry
        assert by_name["fine"].status == STATUS_OK

    def test_worker_oom_fires_on_every_attempt(self):
        # Unlike crash faults, a retry must NOT make the OOM disappear:
        # request the same label twice and get two memouts.
        plan = FaultPlan(assignments={"victim|PO": "worker-oom"})
        for _ in range(2):
            records = run_tasks([make_task("victim")], jobs=2, faults=plan)
            assert records[0].status == STATUS_MEMOUT

    def test_serial_memory_error_is_memout(self):
        records = run_tasks(
            [make_task("hog")], jobs=1, executor=raise_memory_error,
        )
        assert records[0].status == STATUS_MEMOUT
        assert records[0].attempts == 1
        assert "ran out of memory" in records[0].error


def raise_memory_error(task):
    raise MemoryError("synthetic allocation failure")


def test_memout_roundtrips_through_results_log(tmp_path):
    path = str(tmp_path / "results.jsonl")
    records = run_tasks(
        [make_task("hog")], jobs=2, executor=allocate_too_much,
        mem_limit_mb=4096, results=path,
    )
    assert records[0].status == STATUS_MEMOUT
    # A memout row resumes as a final failure, not a rerun at the same
    # ceiling — same contract as other persisted failures.
    from repro.evalx.parallel import ResultsLog

    loaded = ResultsLog(path).load()
    assert loaded[records[0].key].status == STATUS_MEMOUT
