"""Checkpoint capture/restore: format safety and resume identity.

The contract under test: interrupting a run at *any* decision budget and
resuming it must reproduce the uninterrupted run exactly — same outcome,
same total decision count, same learned-constraint counts — on every
engine and for both the TO and PO pipelines, certified or not. A snapshot that is torn, garbled, or belongs to another formula or
configuration must be rejected with :class:`CheckpointError` and never
crash or silently corrupt a run.
"""

import json
import random

import pytest

from repro.core.formula import paper_example
from repro.core.result import Outcome
from repro.core.solver import QdpllSolver, SolverConfig
from repro.evalx.runner import Budget, solve_po, solve_to
from repro.generators.ncf import NcfParams, generate_ncf
from repro.robustness import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.robustness.checkpoint import Checkpoint, config_digest, formula_digest
from tests.engines import ENGINE_LEGS, needs_native


def small_ncf(seed, dep=6, var=3, ratio=3, lpc=5):
    return generate_ncf(
        NcfParams(dep=dep, var=var, cls=ratio * var, lpc=lpc, seed=seed)
    )


def make_checkpoint(tmp_path, formula, decisions=3, name="a.ckpt", **cfg):
    """Run to a small budget with checkpointing on; return the saved path."""
    path = str(tmp_path / name)
    config = SolverConfig(max_decisions=decisions, **cfg)
    result = QdpllSolver(formula, config).solve(checkpoint_to=path)
    assert result.outcome is Outcome.UNKNOWN
    return path


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        path = make_checkpoint(tmp_path, small_ncf(0))
        ckpt = load_checkpoint(path)
        again = str(tmp_path / "b.ckpt")
        save_checkpoint(ckpt, again)
        assert load_checkpoint(again).to_payload() == ckpt.to_payload()

    def test_truncated_file_rejected(self, tmp_path):
        path = make_checkpoint(tmp_path, small_ncf(0))
        blob = open(path).read()
        for cut in (1, len(blob) // 3, len(blob) - 2):
            open(path, "w").write(blob[:cut])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_garbled_payload_rejected(self, tmp_path):
        path = make_checkpoint(tmp_path, small_ncf(0))
        header, payload = open(path).read().split("\n", 1)
        assert '"formula_digest"' in payload
        open(path, "w").write(
            header + "\n" + payload.replace('"formula_digest"', '"formula_digesX"')
        )
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = make_checkpoint(tmp_path, small_ncf(0))
        header, payload = open(path).read().split("\n", 1)
        head = json.loads(header)
        head["version"] = 999
        open(path, "w").write(json.dumps(head) + "\n" + payload)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_not_json_rejected(self, tmp_path):
        path = str(tmp_path / "junk.ckpt")
        open(path, "w").write("this is not a checkpoint\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_payload_shape_rejected(self):
        with pytest.raises(CheckpointError):
            Checkpoint.from_payload({"formula_digest": "x"})


class TestDigestGuards:
    def test_wrong_formula_rejected(self, tmp_path):
        path = make_checkpoint(tmp_path, small_ncf(0))
        with pytest.raises(CheckpointError):
            QdpllSolver(small_ncf(1), SolverConfig()).solve(resume_from=path)

    def test_wrong_config_rejected(self, tmp_path):
        phi = small_ncf(0)
        path = make_checkpoint(tmp_path, phi)
        with pytest.raises(CheckpointError):
            QdpllSolver(
                phi, SolverConfig(pure_literals=False)
            ).solve(resume_from=path)

    def test_bigger_budget_is_compatible(self, tmp_path):
        # Budgets are deliberately outside the config digest: resuming with
        # a larger budget is the whole point of a budget-exhausted snapshot.
        phi = small_ncf(0)
        path = make_checkpoint(tmp_path, phi, decisions=3)
        result = QdpllSolver(
            phi, SolverConfig(max_decisions=100000)
        ).solve(resume_from=path)
        assert result.outcome is not Outcome.UNKNOWN

    @needs_native
    def test_cross_engine_resume_is_compatible(self, tmp_path):
        # The engines are decision-for-decision identical by contract, so
        # the engine choice is cost accounting, not solver state.
        phi = small_ncf(0)
        path = make_checkpoint(tmp_path, phi, engine="counters")
        baseline = QdpllSolver(phi, SolverConfig(max_decisions=100000)).solve()
        resumed = QdpllSolver(
            phi, SolverConfig(max_decisions=100000, engine="native")
        ).solve(resume_from=path)
        assert resumed.stats.engine_fallback == ""
        assert resumed.outcome is baseline.outcome
        assert resumed.stats.decisions == baseline.stats.decisions

    def test_digest_functions_are_stable(self):
        phi = paper_example()
        assert formula_digest(phi) == formula_digest(paper_example())
        assert config_digest(SolverConfig()) == config_digest(SolverConfig())
        assert config_digest(SolverConfig()) != config_digest(
            SolverConfig(pure_literals=False)
        )
        # budget and engine are excluded on purpose
        assert config_digest(SolverConfig()) == config_digest(
            SolverConfig(max_decisions=7, engine="native")
        )


#: every SolverStats counter a resumed run must reproduce exactly; the
#: propagation-layer observability counters (clause/cube visits) are
#: engine-dependent cost accounting, outside the resume contract.
SEMANTIC_STATS = (
    "decisions", "propagations", "pure_literals", "conflicts", "solutions",
    "learned_clauses", "learned_cubes", "learned_clause_lits",
    "learned_cube_lits", "backjumps", "chrono_backtracks", "max_trail",
)


def assert_same_run(resumed, baseline):
    assert resumed.outcome is baseline.outcome
    for name in SEMANTIC_STATS:
        assert getattr(resumed.stats, name) == getattr(baseline.stats, name), name
    assert resumed.certificate_status == baseline.certificate_status


class TestResumeIdentity:
    """The property test: interrupt anywhere, resume, get the same run."""

    @pytest.mark.parametrize("engine", ENGINE_LEGS)
    @pytest.mark.parametrize("mode", ["po", "to"])
    def test_interrupt_anywhere_and_resume(self, tmp_path, engine, mode):
        rng = random.Random(hash((engine, mode)) & 0xFFFF)
        runner = solve_po if mode == "po" else solve_to
        checked = 0
        for seed in range(6):
            phi = small_ncf(seed)
            big = Budget(decisions=50000)
            baseline = runner(phi, budget=big, engine=engine)
            assert baseline.stats.engine_fallback == ""
            if baseline.decisions < 2:
                continue
            checked += 1
            for k in sorted({1, rng.randint(1, baseline.decisions - 1),
                             baseline.decisions - 1}):
                path = str(tmp_path / ("%s-%s-%d-%d.ckpt" % (engine, mode, seed, k)))
                cut = runner(
                    phi, budget=Budget(decisions=k), engine=engine,
                    checkpoint_to=path,
                )
                assert cut.outcome is Outcome.UNKNOWN
                assert cut.decisions == k
                resumed = runner(
                    phi, budget=big, engine=engine,
                    resume_from=load_checkpoint(path),
                )
                assert_same_run(resumed, baseline)
        assert checked >= 3  # the sweep must actually exercise the property

    @pytest.mark.parametrize("mode", ["po", "to"])
    def test_certified_resume_identity(self, tmp_path, mode):
        runner = solve_po if mode == "po" else solve_to
        rng = random.Random(99 if mode == "po" else 98)
        checked = 0
        # lpc=4 keeps the no-pure-literal certified runs tractable; dep 5
        # gives FALSE verdicts, dep 4 TRUE, so both calculi are resumed.
        for seed, dep in [(0, 5), (1, 5), (0, 4), (1, 4)]:
            phi = small_ncf(seed, dep=dep, lpc=4)
            big = Budget(decisions=50000)
            baseline = runner(phi, budget=big, certify=True)
            if baseline.decisions < 2:
                continue
            checked += 1
            assert baseline.certificate_status == "verified"
            k = rng.randint(1, baseline.decisions - 1)
            path = str(tmp_path / ("cert-%s-%d-%d.ckpt" % (mode, dep, seed)))
            cut = runner(
                phi, budget=Budget(decisions=k), certify=True,
                checkpoint_to=path,
            )
            assert cut.outcome is Outcome.UNKNOWN
            resumed = runner(
                phi, budget=big, certify=True,
                resume_from=load_checkpoint(path),
            )
            # One continuous derivation: the resumed run's certificate must
            # verify, not just its outcome match.
            assert_same_run(resumed, baseline)
        assert checked >= 2

    def test_seconds_accumulate_across_resume(self, tmp_path):
        phi = small_ncf(0)
        path = make_checkpoint(tmp_path, phi, decisions=5)
        spent = load_checkpoint(path).seconds
        assert spent > 0.0
        result = QdpllSolver(
            phi, SolverConfig(max_decisions=100000)
        ).solve(resume_from=path)
        assert result.seconds >= spent

    def test_corrupt_checkpoint_falls_back_to_fresh(self, tmp_path):
        # The measurement layer discards an unusable snapshot and reruns
        # from scratch rather than crashing the sweep.
        phi = small_ncf(0)
        foreign = make_checkpoint(tmp_path, small_ncf(1))
        baseline = solve_po(phi, budget=Budget(decisions=50000))
        resumed = solve_po(
            phi, budget=Budget(decisions=50000),
            resume_from=load_checkpoint(foreign),
        )
        assert_same_run(resumed, baseline)
