"""Tests for the NCF / FPV / fixed / random instance generators."""

import random

import pytest

from repro.core.expansion import evaluate
from repro.core.literals import EXISTS, FORALL
from repro.core.solver import SolverConfig, solve
from repro.evalx.suites import _fixed_pool, ncf_settings
from repro.generators.fixed import FixedParams, generate_fixed
from repro.generators.fpv import FpvParams, generate_fpv
from repro.generators.ncf import NcfParams, generate_ncf, scope_clauses_check
from repro.generators.random_qbf import random_prenex_qbf, random_tree_qbf
from repro.prenexing.miniscoping import miniscope, structure_ratio
from repro.prenexing.strategies import STRATEGIES, prenex


class TestNcf:
    def test_deterministic(self):
        a = generate_ncf(NcfParams(seed=5))
        b = generate_ncf(NcfParams(seed=5))
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_ncf(NcfParams(seed=1)) != generate_ncf(NcfParams(seed=2))

    def test_is_non_prenex_tree(self):
        phi = generate_ncf(NcfParams(dep=3, var=2, cls=4, lpc=3, seed=0))
        assert not phi.is_prenex
        assert phi.prefix.prefix_level == 3

    def test_alternation_starts_existential(self):
        phi = generate_ncf(NcfParams(seed=0))
        tops = phi.prefix.top_variables()
        assert all(phi.prefix.quant(v) is EXISTS for v in tops)

    def test_clauses_are_path_realizable(self):
        for seed in range(5):
            phi = generate_ncf(NcfParams(dep=3, var=3, cls=6, lpc=3, seed=seed))
            assert scope_clauses_check(phi)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            NcfParams(dep=0)

    def test_sweep_covers_grid(self):
        settings = ncf_settings(instances=2)
        pool = [p for _, params in settings for p in params]
        assert len({p.seed for p in pool}) == len(pool) == 6 * 2
        for label, params in settings:
            assert {"d%d-v%d-r%d-l%d" % (p.dep, p.var, p.cls // p.var, p.lpc)
                    for p in params} == {label}

    @pytest.mark.parametrize("seed", range(5))
    def test_prenexings_preserve_value(self, seed):
        phi = generate_ncf(NcfParams(dep=2, var=2, cls=4, lpc=2, seed=seed))
        base = solve(phi).value
        for name in STRATEGIES:
            assert solve(prenex(phi, name)).value == base

    @pytest.mark.parametrize("seed", range(5))
    def test_small_instances_match_oracle(self, seed):
        phi = generate_ncf(NcfParams(dep=2, var=2, cls=4, lpc=2, seed=100 + seed))
        if phi.num_vars <= 20:
            assert solve(phi).value == evaluate(phi, max_vars=None)


class TestFpv:
    def test_deterministic(self):
        assert generate_fpv(FpvParams(seed=3)) == generate_fpv(FpvParams(seed=3))

    def test_tree_shape(self):
        phi = generate_fpv(FpvParams(config_bits=2, requirements=3, seed=0))
        assert not phi.is_prenex
        # One top existential block with `requirements` universal children.
        roots = phi.prefix.root.children
        assert len(roots) == 1
        assert roots[0].quant is EXISTS
        assert len(roots[0].children) == 3
        assert all(c.quant is FORALL for c in roots[0].children)

    def test_branches_share_only_config(self):
        phi = generate_fpv(FpvParams(seed=1))
        branch_vars = [set(b.variables) | {v for d in b.subtree() for v in d.variables}
                       for b in phi.prefix.root.children[0].children]
        for i in range(len(branch_vars)):
            for j in range(i + 1, len(branch_vars)):
                assert not (branch_vars[i] & branch_vars[j])

    @pytest.mark.parametrize("seed", range(4))
    def test_value_matches_oracle_when_small(self, seed):
        phi = generate_fpv(
            FpvParams(config_bits=2, requirements=2, levels=2, env_bits=1,
                      run_bits=2, ratio=2.0, clause_len=3, seed=seed)
        )
        if phi.num_vars <= 20:
            assert solve(phi).value == evaluate(phi, max_vars=None)


class TestFixed:
    def test_interleaved_is_prenex_with_hidden_structure(self):
        phi = generate_fixed(FixedParams(family="interleaved", seed=0))
        assert phi.is_prenex
        tree = miniscope(phi)
        assert structure_ratio(phi, tree) > 0.0

    def test_chained_control_family(self):
        phi = generate_fixed(FixedParams(family="chained", seed=0))
        assert phi.is_prenex

    def test_interleaved_value_equals_conjunction(self):
        phi = generate_fixed(
            FixedParams(family="interleaved", groups=2, blocks_per_group=2,
                        block_size=1, clauses_per_group=4, seed=2)
        )
        tree = miniscope(phi)
        assert solve(phi).value == solve(tree).value

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            generate_fixed(FixedParams(family="wavy"))

    def test_sweep_mixes_families(self):
        pool = _fixed_pool(12, seed_base=0)
        families = {p.family for p in pool}
        assert families == {"interleaved", "chained"}


class TestRandomGenerators:
    def test_prenex_shape(self):
        rng = random.Random(0)
        phi = random_prenex_qbf(rng, num_blocks=3, block_size=2, num_clauses=8)
        assert phi.is_prenex
        assert phi.num_vars == 6
        assert phi.num_clauses == 8

    def test_every_clause_has_existential(self):
        rng = random.Random(1)
        phi = random_prenex_qbf(rng, num_blocks=4, block_size=2, num_clauses=20, first=FORALL)
        for clause in phi.clauses:
            assert any(phi.prefix.quant(l) is EXISTS for l in clause.lits)

    def test_tree_clauses_realizable(self):
        rng = random.Random(2)
        phi = random_tree_qbf(rng, depth=3, branching=2, block_size=2)
        assert scope_clauses_check(phi)
