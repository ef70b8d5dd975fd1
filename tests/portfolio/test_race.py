"""The portfolio racer: first verdict wins, disagreements get triaged."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.formula import paper_example
from repro.core.result import Outcome
from repro.evalx.runner import Budget
from repro.generators.random_qbf import random_qbf
from repro.portfolio import DEFAULT_ENTRANTS, ENTRANTS, race
from repro.portfolio.bench import run_portfolio_bench
from repro.robustness.faults import FaultPlan


def test_serial_race_wins_on_the_paper_example():
    result = race(paper_example(), "paper", Budget(decisions=4000), jobs=1)
    assert result.outcome in (Outcome.TRUE, Outcome.FALSE)
    assert result.winner == DEFAULT_ENTRANTS[0]  # first lane settles it
    assert result.jobs == 1
    # the remaining lanes never ran
    assert set(result.cancelled) == set(DEFAULT_ENTRANTS[1:])


def test_run_all_cross_checks_every_lane():
    result = race(
        paper_example(), "paper", Budget(decisions=4000), jobs=1, run_all=True
    )
    assert result.disagreement is None
    assert len(result.measurements) == len(DEFAULT_ENTRANTS)
    assert {m.outcome for m in result.measurements} == {result.outcome}


def test_unknown_entrant_is_rejected():
    with pytest.raises(ValueError, match="unknown entrant"):
        race(paper_example(), entrants=("PO", "nope"), jobs=1)


def test_custom_entrant_triple():
    result = race(
        paper_example(),
        "paper",
        Budget(decisions=4000),
        jobs=1,
        entrants=("mine:po:expansion",),
    )
    assert result.winner == "mine"
    assert result.outcome in (Outcome.TRUE, Outcome.FALSE)


def test_flip_verdict_forces_triage_and_certificate_wins():
    # CI's forced-disagreement check: flip the expansion lane's verdict;
    # the certificate triage must side with the search lanes' (true)
    # verdict and name the flipped lane as the loser.
    plan = FaultPlan(assignments={"paper|EXP": "flip-verdict"})
    honest = race(paper_example(), "paper", Budget(decisions=4000), jobs=1)
    result = race(
        paper_example(),
        "paper",
        Budget(decisions=4000),
        jobs=1,
        run_all=True,
        faults=plan,
    )
    assert result.disagreement is not None
    assert result.triage is not None and result.triage["resolved"]
    assert result.outcome is honest.outcome
    assert result.triage["losers"] == ["EXP"]


@given(st.integers(min_value=0, max_value=10_000_000))
@settings(max_examples=15, deadline=None)
def test_serial_race_is_deterministic(seed):
    # --jobs 1 is the reproducible mode: identical winner, outcome, and
    # per-lane decision counts on every rerun.
    phi = random_qbf(random.Random(seed))
    first = race(phi, "rand", Budget(decisions=4000), jobs=1)
    second = race(phi, "rand", Budget(decisions=4000), jobs=1)
    assert first.outcome is second.outcome
    assert first.winner == second.winner
    assert first.cancelled == second.cancelled
    assert [(m.solver, m.outcome, m.decisions) for m in first.measurements] == [
        (m.solver, m.outcome, m.decisions) for m in second.measurements
    ]


def test_pool_race_cancels_siblings():
    # Pool mode needs >= 2 cores to engage (the racer refuses to
    # oversubscribe); on smaller machines the serial path is the contract.
    import os

    result = race(paper_example(), "paper", Budget(decisions=4000), jobs=2)
    if (os.cpu_count() or 1) < 2:
        assert result.jobs == 1
        return
    assert result.jobs == 2
    assert result.outcome in (Outcome.TRUE, Outcome.FALSE)
    assert result.winner in ENTRANTS


def test_quick_bench_report_shape():
    report = run_portfolio_bench(quick=True, jobs=1)
    assert report["schema"] == "repro-portfolio-bench/1"
    assert report["mode"] == "quick"
    assert report["families"]
    fam = report["families"][0]
    for key in (
        "winners",
        "single_wall_seconds",
        "portfolio_wall_seconds",
        "best_single",
        "portfolio_vs_best_single",
        "within_bound",
    ):
        assert key in fam
    assert set(fam["single_wall_seconds"]) == set(report["entrants"])


def test_report_racing_the_exit_keeps_every_verdict(monkeypatch):
    # Both lanes report and exit before the racer looks at their pipes, and
    # the racer sees the exits first. A verdict read as "worker died
    # without reporting" would drop PO's FALSE and let TO win alone.
    import os

    from repro.evalx import parallel
    from tests.late_wait import LateWaitContext

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # pool mode on any host
    ctx = LateWaitContext(parallel._mp_context())
    ctx.install(monkeypatch)
    result = race(
        paper_example(), "paper", Budget(decisions=4000), jobs=2,
        entrants=("PO", "TO"), run_all=True,
    )
    assert ctx.fired and len(ctx.processes) == 2
    assert result.jobs == 2
    assert result.errors == {}
    assert sorted(m.solver for m in result.measurements) == ["PO", "TO"]
    assert result.outcome is Outcome.FALSE


def test_pool_race_leaves_no_worker_behind(monkeypatch):
    # TO hangs in its worker and ignores SIGTERM's flag; PO wins, TO is
    # cancelled, SIGKILLed after the grace, and reaped before race returns.
    import multiprocessing
    import os
    import time

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    plan = FaultPlan(assignments={"paper|TO": "hang"}, hang_seconds=60.0)
    start = time.monotonic()
    result = race(
        paper_example(), "paper", Budget(decisions=4000), jobs=2,
        entrants=("PO", "TO"), faults=plan, term_grace=0.5,
    )
    assert time.monotonic() - start < 30
    assert result.winner == "PO"
    assert result.cancelled == ["TO"]
    assert multiprocessing.active_children() == []


def test_pool_race_caps_every_lane(monkeypatch, tmp_path):
    import os
    import resource

    from repro.evalx import parallel

    real = parallel.execute_task

    def probe(task):
        with open(str(tmp_path / task.solver), "w") as handle:
            handle.write(repr(resource.getrlimit(resource.RLIMIT_AS)))
        return real(task)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(parallel, "execute_task", probe)
    race(
        paper_example(), "paper", Budget(decisions=4000), jobs=2,
        entrants=("PO", "TO"), run_all=True, mem_limit_mb=4096,
    )
    limit = repr((4096 * 1024**2,) * 2)
    for lane in ("PO", "TO"):
        assert (tmp_path / lane).read_text() == limit
