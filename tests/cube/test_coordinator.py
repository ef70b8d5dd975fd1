"""Cube-and-conquer end-to-end property tests (ISSUE 7 satellite 3).

For random small QBFs — prenex (totally ordered) and tree (partially
ordered) prefixes, every engine — ``run_cube`` with 1..4 workers must
return the same verdict as the sequential reference ``solve``, with and
without constraint sharing, and certified runs must verify.

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


@pytest.mark.parametrize("share", [True, False])
@pytest.mark.parametrize("engine", ENGINE_LEGS)
def test_engines_and_sharing_agree(engine, share):
    seed, formula, expected = PRENEX[0]
    report = run_cube(
        formula, jobs=2, seed=seed, engine=engine, share=share, leaf_decisions=50
    )
    assert report.outcome is expected
    if not share:
        assert report.share["exported"] == 0 and report.share["imported"] == 0


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


def test_checkpoint_incapable_paradigm_is_refused():
    from repro.core.paradigm import CapabilityError

    _, formula, _ = PRENEX[0]
    for paradigm in ("expansion", "qdll"):
        with pytest.raises(CapabilityError, match="checkpoint"):
            run_cube(formula, jobs=2, paradigm=paradigm)


def test_explicit_search_paradigm_still_runs():
    seed, formula, expected = PRENEX[0]
    report = run_cube(
        formula, jobs=1, seed=seed, leaf_decisions=50, paradigm="search"
    )
    assert report.outcome is expected


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
