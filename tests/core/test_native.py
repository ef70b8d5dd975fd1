"""Native-kernel specifics: fallback policy, strict mode, paranoid replay.

Decision identity between the native backend and the reference is covered
by the cross-engine parametrization in ``test_engine_equivalence.py``; this
module pins everything *around* the kernel — what happens when the compiled
extension is missing (loud fallback or structured error, never a silent
engine change), and that the paranoid-mode replay path (which routes every
kernel assignment back through ``Trail.push`` and its invariant guards)
still matches the reference decision for decision.
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
from repro.core.engine.search import resolve_backend
from repro.core.formula import paper_example
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
    """Paranoid mode swaps the fused in-kernel trail replay for the two-step
    path through ``Trail.push``; both must be invisible to the search."""

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

    def test_flag_selects_the_replay_path(self, monkeypatch):
        # the default config reads REPRO_PARANOID: clear any ambient setting
        monkeypatch.delenv("REPRO_PARANOID", raising=False)
        fast = QdpllSolver(paper_example(), SolverConfig(engine="native"))
        slow = QdpllSolver(
            paper_example(), SolverConfig(engine="native", paranoid=True)
        )
        assert fast.backend._fast_replay is True
        assert slow.backend._fast_replay is False


def test_fallback_warning_is_a_runtime_warning():
    # warning filters keyed on RuntimeWarning (the pytest default setup,
    # most CI configs) surface the fallback instead of swallowing it.
    assert issubclass(NativeFallbackWarning, RuntimeWarning)
    assert issubclass(NativeUnavailableError, RuntimeError)
