"""Property tests: the propagation backends are decision-for-decision equal.

The layered engine's contract (see :mod:`repro.core.engine.backend`) says a
backend choice may change how fast events are found, never *which* events:
on the same formula and config, every backend must produce the same decision
sequence, the same trail at each decision, the same outcome and the same
search statistics (modulo the explicitly backend-dependent visit
counters). These tests check exactly that, on random non-prenex QBFs and
their prenexings — i.e. QUBE(PO) and QUBE(TO) alike — with the pure-literal
rule both on and off, and additionally that every challenger's runs certify
(their clause/term resolution derivations check out independently).

The native (compiled) backend's cases skip loudly rather than pass
vacuously on builds without the extension, and assert that the kernel
really ran. Alias legs run the backend they name against the reference.
"""

import dataclasses
import random

import pytest

from repro.core.result import Outcome
from repro.core.solver import QdpllSolver, SolverConfig
from repro.generators.random_qbf import random_qbf
from repro.prenexing import prenex
from tests.engines import ENGINE_LEGS

#: stats that are allowed — expected, even — to differ between backends.
BACKEND_DEPENDENT = ("clause_visits", "cube_visits")

#: every engine name but the reference, each checked against counters.
CHALLENGERS = [leg for leg in ENGINE_LEGS if leg != "counters"]


def _traced_run(formula, config):
    """Solve and record (trail, decision-stack) snapshots at each decision."""
    solver = QdpllSolver(formula, config)
    snapshots = []
    inner = solver._decide

    def traced():
        ok = inner()
        snapshots.append((tuple(solver.trail.lits), tuple(solver.trail.decision)))
        return ok

    solver._decide = traced
    result = solver.solve()
    return result, snapshots


def _comparable_stats(stats):
    out = dataclasses.asdict(stats)
    for key in BACKEND_DEPENDENT:
        out.pop(key)
    return out


@pytest.mark.parametrize("challenger", CHALLENGERS)
@pytest.mark.parametrize("pure", [True, False], ids=["pure-on", "pure-off"])
@pytest.mark.parametrize("seed", range(30))
def test_backends_identical_decision_sequences(seed, pure, challenger):
    rng = random.Random(seed)
    phi = random_qbf(
        rng,
        prenex=False,
        depth=2,
        branching=2,
        block_size=rng.randint(1, 2),
        clauses_per_scope=2,
        clause_len=3,
    )
    for variant in (phi, prenex(phi)):  # QUBE(PO) and QUBE(TO)
        runs = {}
        for engine in ("counters", challenger):
            config = SolverConfig(engine=engine, pure_literals=pure, max_decisions=3000)
            runs[engine] = _traced_run(variant, config)
        ref_result, ref_snapshots = runs["counters"]
        new_result, new_snapshots = runs[challenger]
        assert new_result.stats.engine_fallback == ""
        assert new_result.outcome is ref_result.outcome
        assert new_snapshots == ref_snapshots, (
            "trail diverged at decision %d"
            % next(
                i
                for i, (a, b) in enumerate(zip(ref_snapshots, new_snapshots))
                if a != b
            )
        )
        assert _comparable_stats(new_result.stats) == _comparable_stats(ref_result.stats)


@pytest.mark.parametrize("challenger", CHALLENGERS)
@pytest.mark.parametrize("seed", range(8))
def test_non_reference_runs_certify(seed, challenger):
    """Every challenger's certified runs verify end to end.

    Certification forces the pure-literal rule off, so this pins the native
    kernel's compiled propagation and reduction fast paths on that path
    against the independent proof checker.
    """
    from repro.certify import (
        MemorySink,
        ProofLogger,
        certifying_config,
        check_certificate,
    )

    rng = random.Random(1000 + seed)
    phi = random_qbf(
        rng,
        prenex=False,
        depth=2,
        branching=2,
        block_size=rng.randint(1, 2),
        clauses_per_scope=2,
        clause_len=3,
    )
    outcomes = {}
    for engine in ("counters", challenger):
        config = certifying_config(SolverConfig(engine=engine, max_decisions=3000))
        sink = MemorySink()
        result = QdpllSolver(phi, config, proof=ProofLogger(sink)).solve()
        assert result.stats.engine_fallback == ""
        assert result.outcome is not Outcome.UNKNOWN
        report = check_certificate(phi, sink)
        assert report.status == "verified", report
        outcomes[engine] = result.outcome
    assert outcomes["counters"] is outcomes[challenger]
