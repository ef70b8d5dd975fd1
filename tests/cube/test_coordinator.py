"""Cube-and-conquer end-to-end property tests (ISSUE 7 satellite 3).

For random small QBFs — prenex (totally ordered) and tree (partially
ordered) prefixes, every engine — ``run_cube`` with 1..4 workers must
return the same verdict as the sequential reference ``solve``, and
certified runs must verify. On a FALSE instance split only on existential
variables no cube is ever cancelled, so the decision total repeats.

These tests fork real worker processes; instance counts are kept small.
"""

import multiprocessing
import os
import random
import resource

import pytest

from repro.core.result import Outcome
from repro.core.solver import solve
from repro.cube import coordinator, run_cube
from repro.generators.random_qbf import random_prenex_qbf, random_tree_qbf
from repro.smv.diameter import diameter_qbf
from repro.smv.models import model_by_name
from tests.engines import ENGINE_LEGS


def _decided_instances(make, seeds, want):
    """Random formulas whose sequential verdict is decided, with it."""
    out = []
    for seed in seeds:
        rng = random.Random(seed)
        formula = make(rng)
        reference = solve(formula)
        if reference.outcome is Outcome.UNKNOWN:
            continue
        out.append((seed, formula, reference.outcome))
        if len(out) >= want:
            break
    assert len(out) >= want, "not enough decided random instances"
    return out


PRENEX = _decided_instances(
    lambda rng: random_prenex_qbf(rng, num_blocks=3, block_size=2, num_clauses=10),
    range(40), 3,
)
TREE = _decided_instances(
    lambda rng: random_tree_qbf(rng, depth=3, branching=2, block_size=2),
    range(40), 3,
)


@pytest.mark.parametrize("jobs", [1, 2, 3, 4])
def test_prenex_verdict_matches_sequential(jobs):
    for seed, formula, expected in PRENEX:
        report = run_cube(formula, jobs=jobs, seed=seed, leaf_decisions=50)
        assert report.outcome is expected, (seed, jobs, report.outcome)


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_tree_verdict_matches_sequential(jobs):
    for seed, formula, expected in TREE:
        report = run_cube(formula, jobs=jobs, seed=seed, leaf_decisions=50)
        assert report.outcome is expected, (seed, jobs, report.outcome)


@pytest.mark.parametrize("engine", ENGINE_LEGS)
def test_engines_agree(engine):
    seed, formula, expected = PRENEX[0]
    report = run_cube(formula, jobs=2, seed=seed, engine=engine, leaf_decisions=50)
    assert report.outcome is expected


def test_false_instance_decision_totals_repeat():
    # Every split of this FALSE instance is existential, so no split node
    # settles while a sibling runs: every cube runs to completion, and the
    # total is the same whichever worker finishes first.
    formula = diameter_qbf(model_by_name("counter", 2), 4, form="tree")
    first, second = (run_cube(formula, jobs=2, seed=0) for _ in range(2))
    for report in (first, second):
        assert report.outcome is Outcome.FALSE
        assert report.cancelled == 0
    assert first.total_decisions == second.total_decisions


@pytest.mark.parametrize("jobs", [1, 2])
def test_certified_runs_verify(jobs):
    for seed, formula, expected in PRENEX[:2] + TREE[:1]:
        report = run_cube(formula, jobs=jobs, seed=seed, certify=True)
        assert report.outcome is expected
        assert report.certificate_status == "verified", report.certificate_status


def test_seed_changes_split_not_verdict():
    seed0, formula, expected = TREE[0]
    for seed in (0, 1, 7):
        report = run_cube(formula, jobs=2, seed=seed, leaf_decisions=50)
        assert report.outcome is expected


def test_budget_exhaustion_reports_unknown_not_wrong():
    seed, formula, expected = PRENEX[0]
    report = run_cube(
        formula, jobs=2, seed=seed, leaf_decisions=1, total_decisions=2,
        max_escalations=0, max_depth=1,
    )
    assert report.outcome in (expected, Outcome.UNKNOWN)


def test_sequential_run_stops_at_its_wall_timeout():
    # About 9000 decisions with no budget: seconds, well past the timeout.
    formula = diameter_qbf(model_by_name("counter", 3), 8, form="tree")
    report = run_cube(formula, jobs=1, wall_timeout=0.3)
    assert report.outcome is Outcome.UNKNOWN and not report.interrupted
    assert report.seconds < 1.5


def _fail_first_attempt(marker, how, real):
    """A cube body whose first cube attempt anywhere fails, once: the
    marker file is claimed atomically, so exactly one worker fails."""

    def solve_cube_job(job, formula, *args, **kwargs):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return real(job, formula, *args, **kwargs)
        if how == "exit":
            os._exit(1)  # no report: the worker just vanishes
        raise RuntimeError("injected cube crash")

    return solve_cube_job


@pytest.mark.parametrize("how", ["exit", "raise"])
def test_crashed_leaf_is_retried_on_a_fresh_worker(tmp_path, monkeypatch, how):
    seed, formula, _ = PRENEX[0]
    expected = solve(formula).outcome
    marker = str(tmp_path / "crashed")
    monkeypatch.setattr(
        coordinator, "solve_cube_job",
        _fail_first_attempt(marker, how, coordinator.solve_cube_job),
    )
    report = run_cube(formula, jobs=2, seed=seed, leaf_decisions=50)
    assert os.path.exists(marker)
    assert report.outcome is expected
    assert report.crashes >= 1
    assert multiprocessing.active_children() == []


def test_cube_workers_run_under_the_memory_ceiling(tmp_path, monkeypatch):
    seed, formula, expected = PRENEX[0]
    real = coordinator.solve_cube_job

    def probe(job, formula, *args, **kwargs):
        with open(str(tmp_path / str(os.getpid())), "w") as handle:
            handle.write(repr(resource.getrlimit(resource.RLIMIT_AS)))
        return real(job, formula, *args, **kwargs)

    monkeypatch.setattr(coordinator, "solve_cube_job", probe)
    report = run_cube(formula, jobs=2, seed=seed, leaf_decisions=50, mem_limit_mb=4096)
    assert report.outcome is expected
    seen = {p.read_text() for p in tmp_path.iterdir()}
    assert seen == {repr((4096 * 1024**2,) * 2)}
