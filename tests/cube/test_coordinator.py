"""Cube-and-conquer end-to-end property tests (ISSUE 7 satellite 3).

For random small QBFs — prenex (totally ordered) and tree (partially
ordered) prefixes, every engine — ``run_cube`` with 1..4 workers must
return the same verdict as the sequential reference ``solve``, with and
without constraint sharing, and certified runs must verify.

These tests fork real worker processes; instance counts are kept small.
"""

import random

import pytest

from repro.core.result import Outcome
from repro.core.solver import solve
from repro.cube import run_cube
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
