"""Tests for outcome/statistics containers."""

from dataclasses import fields

import pytest

from repro.core.result import (
    BudgetExceeded,
    Outcome,
    SolveResult,
    SolverStats,
    UnknownOutcomeError,
)


class TestOutcome:
    def test_truthiness(self):
        assert bool(Outcome.TRUE) is True
        assert bool(Outcome.FALSE) is False

    def test_unknown_has_no_truth_value(self):
        with pytest.raises(ValueError):
            bool(Outcome.UNKNOWN)

    def test_unknown_raises_typed_error_without_budget(self):
        with pytest.raises(UnknownOutcomeError) as info:
            bool(Outcome.UNKNOWN)
        assert info.value.spent is None

    def test_values(self):
        assert Outcome("true") is Outcome.TRUE
        assert Outcome("unknown") is Outcome.UNKNOWN


class TestSolveResult:
    def test_value_property(self):
        assert SolveResult(Outcome.TRUE).value is True
        assert SolveResult(Outcome.FALSE).value is False

    def test_unknown_value_carries_spent_budget(self):
        result = SolveResult(Outcome.UNKNOWN, SolverStats(decisions=123))
        with pytest.raises(UnknownOutcomeError) as info:
            result.value
        assert info.value.spent == 123
        assert "123" in str(info.value)
        # Backward compatibility: pre-existing ValueError guards still catch.
        assert isinstance(info.value, ValueError)

    def test_timed_out(self):
        assert SolveResult(Outcome.UNKNOWN).timed_out
        assert not SolveResult(Outcome.TRUE).timed_out

    def test_repr_contains_outcome(self):
        r = SolveResult(Outcome.FALSE, SolverStats(decisions=3), 0.5)
        assert "false" in repr(r)
        assert "decisions=3" in repr(r)


class TestSolverStats:
    def test_backtracks_is_conflicts_plus_solutions(self):
        stats = SolverStats(conflicts=3, solutions=4)
        assert stats.backtracks == 7

    def test_defaults_zero(self):
        stats = SolverStats()
        assert stats.decisions == 0
        assert stats.learned_clauses == 0
        assert stats.max_trail == 0


def test_budget_exceeded_records_spent():
    err = BudgetExceeded(42)
    assert err.spent == 42
    assert "42" in str(err)


def test_every_stats_field_is_exercised_by_some_run():
    """Guard against dead counters: each field must move in some real run.

    The dead ``restarts`` field sat at zero forever before being removed;
    this test fails the moment another counter exists that no solver run
    ever touches.
    """
    import warnings
    from unittest import mock

    from repro.core.engine import native as native_mod
    from repro.core.formula import paper_example
    from repro.core.solver import SolverConfig, solve
    from repro.generators.ncf import NcfParams, generate_ncf

    runs = [
        solve(paper_example()),
        solve(paper_example(), SolverConfig(learn_clauses=False, learn_cubes=False)),
        solve(generate_ncf(NcfParams(dep=4, var=3, cls=9, lpc=4, seed=0))),
        solve(generate_ncf(NcfParams(dep=4, var=3, cls=6, lpc=4, seed=1))),
        # live learned cubes get re-examined (cube_visits) only once the
        # search revisits them from above; this instance is known to
        solve(generate_ncf(NcfParams(dep=4, var=4, cls=15, lpc=4, seed=3))),
    ]
    # engine_fallback (a string, not a counter) only moves when the native
    # kernel is unavailable; simulate that so the field is exercised here too.
    with mock.patch.object(native_mod, "_native", None), warnings.catch_warnings():
        warnings.simplefilter("ignore", native_mod.NativeFallbackWarning)
        config = SolverConfig(engine="native", require_native=False)
        runs.append(solve(paper_example(), config))
    for f in fields(SolverStats):
        assert any(
            bool(getattr(r.stats, f.name)) for r in runs
        ), "SolverStats.%s is never exercised" % f.name
