"""Tests for the iterative QDPLL engine, including oracle fuzzing."""

import itertools
import random

import pytest

from repro.core.expansion import evaluate
from repro.core.formula import QBF, paper_example
from repro.core.literals import EXISTS, FORALL
from repro.core.result import Outcome
from repro.core.solver import QdpllSolver, SolverConfig, solve
from repro.generators.random_qbf import random_qbf


class TestBasics:
    def test_empty_matrix_true(self):
        assert solve(QBF.prenex([(EXISTS, [1])], [])).outcome is Outcome.TRUE

    def test_empty_clause_false(self):
        assert solve(QBF.prenex([(EXISTS, [1])], [()])).outcome is Outcome.FALSE

    def test_all_universal_clause_false(self):
        phi = QBF.prenex([(FORALL, [1]), (EXISTS, [2])], [(1,), (2,)])
        assert solve(phi).outcome is Outcome.FALSE

    def test_unit_only_no_decisions(self):
        phi = QBF.prenex([(EXISTS, [1, 2])], [(1,), (-1, 2)])
        result = solve(phi)
        assert result.outcome is Outcome.TRUE
        assert result.stats.decisions == 0

    def test_sat_true_false(self):
        assert solve(QBF.prenex([(EXISTS, [1, 2])], [(1, 2), (-1, 2)])).value
        assert not solve(QBF.prenex([(EXISTS, [1])], [(1,), (-1,)])).value

    def test_alternation_order_matters(self):
        matrix = [(1, 2), (-1, -2)]
        ex_all = QBF.prenex([(EXISTS, [1]), (FORALL, [2])], matrix)
        all_ex = QBF.prenex([(FORALL, [2]), (EXISTS, [1])], matrix)
        assert solve(ex_all).outcome is Outcome.FALSE
        assert solve(all_ex).outcome is Outcome.TRUE

    def test_paper_example_false(self):
        assert solve(paper_example()).outcome is Outcome.FALSE

    def test_tree_formula(self):
        phi = QBF.tree(
            [(EXISTS, (1,), ()), (FORALL, (2,), ((EXISTS, (3,), ()),))],
            [(1,), (2, 3), (-2, -3)],
        )
        assert solve(phi).outcome is Outcome.TRUE

    def test_budget_yields_unknown(self):
        rng = random.Random(3)
        phi = random_qbf(rng, prenex=True, num_blocks=4, block_size=3, num_clauses=30)
        result = solve(phi, SolverConfig(max_decisions=1, pure_literals=False))
        assert result.outcome is Outcome.UNKNOWN
        assert result.timed_out

    def test_stats_populated(self):
        rng = random.Random(11)
        phi = random_qbf(rng, prenex=True, num_blocks=3, block_size=2, num_clauses=12)
        result = solve(phi)
        assert result.stats.decisions >= 0
        assert result.seconds >= 0.0


def _all_configs():
    """Feature-toggle grid used by the fuzz tests."""
    configs = []
    for learn_clauses, learn_cubes, pure in itertools.product(
        (False, True), repeat=3
    ):
        configs.append(
            SolverConfig(
                learn_clauses=learn_clauses,
                learn_cubes=learn_cubes,
                pure_literals=pure,
            )
        )
    configs.append(SolverConfig(policy="naive"))
    configs.append(SolverConfig(policy="counter"))
    configs.append(SolverConfig(policy="subtree"))
    return configs


CONFIGS = _all_configs()


@pytest.mark.parametrize("seed", range(35))
def test_fuzz_prenex_against_oracle(seed):
    rng = random.Random(seed)
    phi = random_qbf(
        rng,
        prenex=True,
        num_blocks=rng.randint(2, 4),
        block_size=rng.randint(1, 2),
        num_clauses=rng.randint(4, 14),
        clause_len=rng.randint(2, 3),
    )
    expected = evaluate(phi)
    for config in CONFIGS:
        result = solve(phi, config)
        assert result.outcome is not Outcome.UNKNOWN
        assert result.value == expected, (seed, config)


@pytest.mark.parametrize("seed", range(35))
def test_fuzz_trees_against_oracle(seed):
    rng = random.Random(10_000 + seed)
    phi = random_qbf(
        rng,
        prenex=False,
        depth=rng.randint(2, 3),
        branching=2,
        block_size=rng.randint(1, 2),
        clauses_per_scope=rng.randint(1, 3),
        clause_len=rng.randint(2, 3),
    )
    expected = evaluate(phi)
    for config in CONFIGS:
        result = solve(phi, config)
        assert result.outcome is not Outcome.UNKNOWN
        assert result.value == expected, (seed, config)


@pytest.mark.parametrize("seed", range(10))
def test_fuzz_universal_heavy(seed):
    """Instances starting with a universal block exercise cube learning."""
    rng = random.Random(77_000 + seed)
    phi = random_qbf(
        rng,
        prenex=True,
        num_blocks=3,
        block_size=2,
        num_clauses=8,
        clause_len=3,
        first=FORALL,
    )
    expected = evaluate(phi)
    for config in CONFIGS:
        assert solve(phi, config).value == expected, (seed, config)


def test_learning_produces_constraints():
    rng = random.Random(5)
    for _ in range(20):
        phi = random_qbf(rng, prenex=True, num_blocks=3, block_size=2, num_clauses=14)
        solver = QdpllSolver(phi, SolverConfig())
        solver.solve()
        if solver.stats.learned_clauses or solver.stats.learned_cubes:
            return
    pytest.fail("no run learned any constraint")


def test_solver_is_deterministic():
    rng = random.Random(42)
    phi = random_qbf(rng, prenex=False, depth=3, block_size=2)
    a = solve(phi)
    b = solve(phi)
    assert a.outcome == b.outcome
    assert a.stats.decisions == b.stats.decisions
    assert a.stats.conflicts == b.stats.conflicts
