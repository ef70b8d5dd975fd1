"""Property tests: the incremental solver agrees with from-scratch solves.

The contract under test: across any sequence of reloads, on every engine,
in both pipelines (PO = solve the tree as-is, TO = prenex first), with
certification on, :class:`repro.incremental.IncrementalSolver` returns
outcomes identical to a fresh solve of the loaded formula. Assumptions are
reloads with unit clauses added ("push") and removed again ("pop").
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.certify import INVALID, certifying_config
from repro.core.formula import QBF
from repro.core.literals import EXISTS
from repro.core.solver import SolverConfig, solve
from repro.generators.random_qbf import random_prenex_qbf, random_tree_qbf
from repro.incremental import IncrementalSolver
from repro.prenexing.strategies import prenex
from tests.engines import ENGINE_LEGS


def _formula(rng, mode):
    if mode == "to":
        return prenex(
            random_tree_qbf(rng, depth=rng.randint(1, 3), clauses_per_scope=2),
            "eu_au",
        )
    return random_prenex_qbf(
        rng,
        num_blocks=rng.randint(1, 4),
        block_size=rng.randint(1, 3),
        num_clauses=rng.randint(2, 14),
    )


def _outer_exists(prefix):
    return [
        v
        for v in prefix.variables
        if prefix.quant(v) is EXISTS
        and not any(prefix.prec(u, v) for u in prefix.variables)
    ]


def _with_units(phi, units):
    """``phi`` with one unit clause per assumed literal."""
    return QBF(phi.prefix, [c.lits for c in phi.clauses] + [(l,) for l in units])


def _random_script(rng, prefix, steps=4):
    """A random push/pop script over the outermost existential variables."""
    available = _outer_exists(prefix)
    rng.shuffle(available)
    script = []
    pushed = 0
    for _ in range(steps):
        if available and (pushed == 0 or rng.random() < 0.6):
            var = available.pop()
            script.append(("push", var if rng.random() < 0.5 else -var))
            pushed += 1
        elif pushed:
            script.append(("pop", None))
            pushed -= 1
    return script


@pytest.mark.parametrize("engine", ENGINE_LEGS)
@pytest.mark.parametrize("mode", ["po", "to"])
def test_push_pop_matches_fresh_solves(engine, mode):
    config = SolverConfig(engine=engine)
    for seed in range(12):
        rng = random.Random(1000 * (mode == "to") + seed)
        phi = _formula(rng, mode)
        inc = IncrementalSolver(config)
        inc.load(phi)
        first = inc.solve()
        assert first.stats.engine_fallback == ""
        assert first.outcome is solve(phi, config).outcome
        units = []
        for op, lit in _random_script(rng, phi.prefix):
            if op == "push":
                units.append(lit)
            else:
                units.pop()
            effective = _with_units(phi, units)
            inc.load(effective)
            assert inc.solve().outcome is solve(effective, config).outcome


@pytest.mark.parametrize("engine", ENGINE_LEGS)
def test_certified_incremental_matches_and_stays_valid(engine):
    """With certification on: outcomes agree and no certificate is INVALID.

    Certificates of solves that touched retained constraints are honest-
    incomplete, never fabricated — INVALID is the only forbidden status."""
    config = SolverConfig(engine=engine)
    for seed in range(8):
        rng = random.Random(seed)
        phi = _formula(rng, "po")
        inc = IncrementalSolver(config, certify=True)
        free = _outer_exists(phi.prefix)
        rng.shuffle(free)
        units = []
        for step in range(3):
            effective = _with_units(phi, units)
            inc.load(effective)
            result = inc.solve()
            fresh = solve(effective, certifying_config(config))
            assert result.stats.engine_fallback == ""
            assert result.outcome is fresh.outcome
            assert inc.check_last_certificate().status != INVALID
            if free and (not units or rng.random() < 0.6):
                var = free.pop()
                units.append(var if rng.random() < 0.5 else -var)
            elif units:
                units.pop()


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_growing_formula_chain_property(seed):
    """Reload with a grown matrix: retention must never flip an outcome."""
    rng = random.Random(seed)
    phi = random_prenex_qbf(
        rng,
        num_blocks=rng.randint(1, 3),
        block_size=rng.randint(1, 3),
        num_clauses=rng.randint(2, 8),
    )
    inc = IncrementalSolver()
    inc.load(phi)
    assert inc.solve().outcome is solve(phi).outcome
    # Grow the matrix by re-deriving a formula with extra random clauses
    # over the same prefix; prefix positions unchanged, clause set grown.
    pool = list(phi.prefix.variables)
    extra = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, min(3, len(pool)))
        chosen = rng.sample(pool, size)
        extra.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
    grown = QBF(phi.prefix, [c.lits for c in phi.clauses] + extra)
    inc.load(grown)
    assert inc.solve().outcome is solve(grown).outcome
    # And back to the original: constraints learned from the extra clauses
    # must have been dropped, not silently kept.
    inc.load(phi)
    assert inc.solve().outcome is solve(phi).outcome


def test_identical_resolve_retains_database():
    rng = random.Random(7)
    phi = random_prenex_qbf(rng, num_blocks=3, block_size=3, num_clauses=16)
    inc = IncrementalSolver()
    inc.load(phi)
    first = inc.solve()
    learned = first.stats.learned_clauses + first.stats.learned_cubes
    second = inc.solve()
    if learned:
        assert inc.last_retained_clauses + inc.last_retained_cubes > 0
    assert second.outcome is first.outcome
