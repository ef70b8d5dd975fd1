"""Native-kernel specifics: fallback policy, strict mode, the trail replay.

Decision identity between the native backend and the reference is covered
by the cross-engine parametrization in ``test_engine_equivalence.py``; this
module pins everything *around* the kernel — what happens when the compiled
extension is missing (loud fallback or structured error, never a silent
engine change), that paranoid runs (the trail's checked push) still match
the reference decision for decision, and that the kernel's replay onto the
Python trail refuses a double assignment.
"""

import dataclasses
import random
from unittest import mock

import pytest

from repro.core.engine import native as native_mod
from repro.core.engine.counters import CounterBackend
from repro.core.engine.native import (
    NativeBackend,
    NativeFallbackWarning,
    NativeUnavailableError,
    kernel_version,
    native_available,
    native_import_error,
)
from repro.core.engine.search import SearchEngine, resolve_backend
from repro.core.formula import QBF, paper_example
from repro.core.literals import EXISTS
from repro.core.prefix import Prefix
from repro.core.result import SolverStats
from repro.core.solver import QdpllSolver, SolverConfig, solve
from repro.generators.ncf import NcfParams, generate_ncf
from repro.generators.random_qbf import random_qbf
from tests.engines import needs_native


def _without_kernel():
    """Context: the extension looks unimportable, whatever the build did."""
    return mock.patch.multiple(
        native_mod, _native=None, _IMPORT_ERROR="simulated: no compiled kernel"
    )


class TestFallback:
    def test_resolves_to_counters_with_warning_and_stats_notice(self):
        stats = SolverStats()
        config = SolverConfig(engine="native", require_native=False)
        with _without_kernel():
            with pytest.warns(NativeFallbackWarning, match="falling back"):
                cls = resolve_backend(config, stats)
        assert cls is CounterBackend
        assert stats.engine_fallback == "counters"

    def test_full_solve_lands_on_counters_and_records_it(self):
        phi = generate_ncf(NcfParams(dep=6, var=4, cls=12, lpc=5, seed=1))
        with _without_kernel():
            with pytest.warns(NativeFallbackWarning):
                config = SolverConfig(
                    engine="native", require_native=False, max_decisions=2000
                )
                result = solve(phi, config)
        ref = solve(phi, SolverConfig(engine="counters", max_decisions=2000))
        assert result.outcome is ref.outcome
        assert result.stats.engine_fallback == "counters"
        # the run really executed on the counter backend, not a half-built
        # native one: every counter matches, the visit counts included.
        assert dataclasses.replace(result.stats, engine_fallback="") == ref.stats

    def test_never_set_when_engine_is_pure_python(self):
        result = solve(paper_example(), SolverConfig(engine="counters"))
        assert result.stats.engine_fallback == ""

    @needs_native
    def test_never_set_when_kernel_is_present(self):
        result = solve(paper_example(), SolverConfig(engine="native"))
        assert result.stats.engine_fallback == ""


class TestRequireNative:
    def test_config_flag_turns_fallback_into_error(self):
        config = SolverConfig(engine="native", require_native=True)
        with _without_kernel():
            with pytest.raises(NativeUnavailableError) as exc_info:
                resolve_backend(config, SolverStats())
        # the error is actionable: names the build command and the escapes.
        message = str(exc_info.value)
        assert "build_ext" in message
        assert "simulated: no compiled kernel" in message
        assert exc_info.value.reason == "simulated: no compiled kernel"

    def test_env_knob_sets_the_config_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_REQUIRE_NATIVE", "1")
        assert SolverConfig().require_native is True
        monkeypatch.setenv("REPRO_REQUIRE_NATIVE", "0")
        assert SolverConfig().require_native is False

    def test_direct_construction_without_kernel_raises(self):
        # backend_override paths skip resolve_backend(); the constructor
        # itself must refuse rather than half-initialise.
        class Pinned(QdpllSolver):
            backend_override = NativeBackend

        with _without_kernel():
            with pytest.raises(NativeUnavailableError):
                Pinned(paper_example(), SolverConfig())


class TestIntrospection:
    def test_availability_and_version_agree(self):
        if native_available():
            assert native_import_error() is None
            assert isinstance(kernel_version(), int)
        else:
            assert native_import_error()
            assert kernel_version() is None

    def test_simulated_absence_reports_reason(self):
        with _without_kernel():
            assert not native_available()
            assert native_import_error() == "simulated: no compiled kernel"
            assert kernel_version() is None


@needs_native
class TestParanoidReplay:
    """The kernel replays its pushes onto the Python trail on every run;
    paranoid mode only checks the pushes the search layer makes itself."""

    @pytest.mark.parametrize("pure", [True, False], ids=["pure-on", "pure-off"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_decisions(self, seed, pure):
        rng = random.Random(7000 + seed)
        phi = random_qbf(
            rng,
            prenex=False,
            depth=2,
            branching=2,
            block_size=rng.randint(1, 2),
            clauses_per_scope=2,
            clause_len=3,
        )
        ref = solve(
            phi,
            SolverConfig(engine="counters", pure_literals=pure, max_decisions=3000),
        )
        par = solve(
            phi,
            SolverConfig(
                engine="native",
                pure_literals=pure,
                paranoid=True,
                max_decisions=3000,
            ),
        )
        assert par.outcome is ref.outcome
        assert par.stats.decisions == ref.stats.decisions
        assert par.stats.conflicts == ref.stats.conflicts
        assert par.stats.solutions == ref.stats.solutions
        assert par.stats.propagations == ref.stats.propagations

    def test_replay_refuses_a_double_assignment(self):
        # ∃{1,2} (¬1 ∨ 2)(1 ∨ 2) with pure literals off: deciding 1 makes
        # the kernel propagate 2, which the Python trail already holds.
        phi = QBF(Prefix.linear([(EXISTS, [1, 2])]), [(-1, 2), (1, 2)])
        engine = SearchEngine(
            phi, SolverConfig(engine="native", pure_literals=False, paranoid=False)
        )
        engine.trail.open_level(1, flipped=False)
        engine.backend.assign(1, None)
        engine.trail.value[2] = 1
        with pytest.raises(AssertionError, match="double assignment of 2"):
            engine.backend.propagate()


def test_fallback_warning_is_a_runtime_warning():
    # warning filters keyed on RuntimeWarning (the pytest default setup,
    # most CI configs) surface the fallback instead of swallowing it.
    assert issubclass(NativeFallbackWarning, RuntimeWarning)
    assert issubclass(NativeUnavailableError, RuntimeError)
