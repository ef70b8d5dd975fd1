"""Targeted behavioural tests of the QDPLL engine internals.

White-box probes go through the engine's layers: ``solver.trail`` for the
assignment state and ``solver.backend`` for the clause database and the
propagation operations.
"""

import pytest

from repro.core.formula import QBF, paper_example
from repro.core.literals import EXISTS, FORALL
from repro.core.result import Outcome
from repro.core.solver import QdpllSolver, SolverConfig, solve
from tests.engines import BUILT_BACKENDS


class TestInstall:
    def test_duplicate_clauses_deduplicated(self):
        phi = QBF.prenex([(EXISTS, [1, 2])], [(1, 2), (1, 2), (2, 1)])
        solver = QdpllSolver(phi)
        assert len(solver.backend.orig_clauses) == 1

    def test_install_reduces_universals(self):
        # (x ∨ y) with y universal *after* x reduces to (x) at load time.
        phi = QBF.prenex([(EXISTS, [1]), (FORALL, [2])], [(1, 2)])
        solver = QdpllSolver(phi)
        assert solver.backend.orig_clauses[0].lits == (1,)

    def test_install_detects_trivially_false(self):
        phi = QBF.prenex([(FORALL, [1]), (EXISTS, [2])], [(1,), (2,)])
        assert solve(phi).outcome is Outcome.FALSE

    def test_unused_prefix_variable_is_harmless(self):
        phi = QBF.prenex([(EXISTS, [1, 9]), (FORALL, [2])], [(1, 2), (1, -2)])
        assert solve(phi).outcome is Outcome.TRUE

    def test_install_sanitizes_raw_clauses(self):
        # The engine accepts duck-typed formulas whose clauses are raw
        # literal tuples (canonical Clause would reject these at
        # construction): duplicate literals are dropped and a same-clause
        # tautology is skipped outright at install time.
        from types import SimpleNamespace

        clean = QBF.prenex([(EXISTS, [1, 2])], [(1, 2)])
        raw = SimpleNamespace(
            prefix=clean.prefix,
            clauses=[
                SimpleNamespace(lits=(1, -1, 2)),  # tautological: skipped
                SimpleNamespace(lits=(1, 1, 2)),  # duplicate: dedup to (1, 2)
                SimpleNamespace(lits=(2, 1)),  # canonicalizes to the same
            ],
        )
        for engine in BUILT_BACKENDS:
            solver = QdpllSolver(raw, SolverConfig(engine=engine))
            assert [rec.lits for rec in solver.backend.orig_clauses] == [(1, 2)]
            assert solver.solve().outcome is Outcome.TRUE


class TestPropagation:
    def test_unit_chain_at_level_zero(self):
        phi = QBF.prenex(
            [(EXISTS, [1, 2, 3])],
            [(1,), (-1, 2), (-2, 3)],
        )
        result = solve(phi)
        assert result.outcome is Outcome.TRUE
        assert result.stats.decisions == 0

    def test_unit_blocked_by_scoped_universal(self):
        # {y, x} with x in y's scope is NOT unit; the formula is false
        # because the universal player sets y false and then x alone
        # cannot satisfy both clauses.
        phi = QBF.prenex([(FORALL, [1]), (EXISTS, [2])], [(1, 2), (1, -2)])
        assert solve(phi).outcome is Outcome.FALSE

    def test_unit_fires_across_tree_branches(self):
        # {y1-branch...} clause with a universal from the *other* branch is
        # unit under the tree (the universal does not scope over it).
        phi = QBF.tree(
            [
                (
                    EXISTS,
                    (1,),
                    (
                        (FORALL, (2,), ((EXISTS, (3,), ()),)),
                        (FORALL, (4,), ((EXISTS, (5,), ()),)),
                    ),
                )
            ],
            [(3, 2), (-3, 2), (5, 4), (-5, 4)],
        )
        # Each branch forces its existential both ways when its universal is
        # false: the whole thing is false.
        assert solve(phi).outcome is Outcome.FALSE

    def test_pure_literal_statistics(self):
        phi = QBF.prenex([(EXISTS, [1, 2])], [(1, 2)])
        solver = QdpllSolver(phi)
        result = solver.solve()
        assert result.outcome is Outcome.TRUE
        assert solver.stats.pure_literals >= 1
        assert solver.stats.decisions == 0

    def test_universal_pure_literal_is_adversarial(self):
        # y occurs only positively: the universal player assigns y *true*
        # never helps falsify; the rule assigns the absent polarity.
        phi = QBF.prenex([(FORALL, [1]), (EXISTS, [2])], [(1, 2), (1, -2)])
        result = solve(phi)
        assert result.outcome is Outcome.FALSE


class TestLearningMachinery:
    def test_learned_constraints_recorded(self):
        phi = paper_example()
        solver = QdpllSolver(phi)
        result = solver.solve()
        assert result.outcome is Outcome.FALSE
        # Any learned clause must mention only prefix variables.
        for lits in solver.backend.learned_clauses:
            for lit in lits:
                assert abs(lit) in phi.prefix

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(policy="wishful")


class TestBudgets:
    def test_time_budget(self):
        phi = paper_example()
        result = solve(phi, SolverConfig(max_seconds=0.0))
        # Either it finishes instantly during setup or reports UNKNOWN.
        assert result.outcome in (Outcome.FALSE, Outcome.UNKNOWN)

    def test_decision_budget_exact(self):
        phi = paper_example()
        result = solve(phi, SolverConfig(max_decisions=1, pure_literals=False,
                                         learn_clauses=False, learn_cubes=False))
        assert result.outcome is Outcome.UNKNOWN
        assert result.stats.decisions <= 2


class TestPureLiteralBacktracking:
    """Regression tests: purity must survive backjumps (Section III).

    Pre-fix, ``backtrack`` never re-seeded ``pure_candidates`` and
    ``apply_pure_literals`` dropped candidates that happened to be assigned
    when examined, so a variable that is pure in the restored state was never
    reconsidered and the monotone-literal rule silently degraded as search
    deepened.
    """

    def _decide(self, solver, lit):
        solver.trail.open_level(lit, flipped=False)
        solver.backend.assign(lit, None)

    def test_backtrack_reseeds_pure_candidates(self):
        # ∃{1,2,3} : (1 ∨ 2) ∧ (¬2 ∨ 3). Variable 1 never occurs negated,
        # so it is pure in *every* state where it is unassigned.
        phi = QBF.prenex([(EXISTS, [1, 2, 3])], [(1, 2), (-2, 3)])
        # The Python pure-literal entry point: the native backend applies
        # the rule inside its compiled propagate() and has none.
        config = SolverConfig(engine="counters")
        solver = QdpllSolver(phi, config)
        backend = solver.backend
        # Simulate mid-search: the install-time candidates have been consumed.
        backend.pure_candidates.clear()
        # Decision level 1: assign 2. Satisfying (1 ∨ 2) re-enqueues vars 1
        # and 2 as purity candidates (assign's occ_unsat bookkeeping).
        self._decide(solver, 2)
        assert {1, 2} <= backend.pure_candidates
        # The pure rule fires for the unassigned var 1 and examines var 2
        # while it is assigned (the pre-fix code dropped it permanently).
        assert backend.apply_pure_literals()
        assert solver.trail.lit_value(1) is True
        # Backjump to level 0. In the restored state var 1 is unassigned and
        # still pure, exactly as a from-scratch solver would see it.
        backend.backtrack(0)
        assert all(solver.trail.value[v] == 0 for v in (1, 2, 3))
        assert {1, 2} <= backend.pure_candidates, (
            "backtrack must re-seed purity candidates for unassigned vars"
        )
        # And the rule must actually re-fire, matching the fresh state.
        fresh = QdpllSolver(phi, config)
        assert fresh.backend.apply_pure_literals()
        assert backend.apply_pure_literals()
        assert solver.trail.lit_value(1) is True
        assert fresh.trail.lit_value(1) is True

    def test_fix_changes_search_but_not_outcomes(self):
        # Differential regression against a replica of the pre-fix
        # ``backtrack`` (no candidate re-seeding). On real NCF instances the
        # re-seeded engine must (a) always agree on the outcome and (b)
        # actually diverge in its decision/pure-literal counts — if the
        # re-seed is ever lost again, the two engines become identical and
        # this test fails. The replica is a propagation backend pinned via
        # the ``backend_override`` test hook.
        from repro.core.engine import CounterBackend
        from repro.core.literals import var_of
        from repro.generators.ncf import NcfParams, generate_ncf

        class PreFixBackend(CounterBackend):
            def backtrack(self, to_level):
                trail = self.trail
                target = trail.level_start[to_level + 1]
                for lit in reversed(trail.lits[target:]):
                    # unassign via the trail API (which keeps the flat value
                    # array and branching frontier coherent) but replicate
                    # the pre-fix bug: no pure-candidate re-seeding.
                    trail.unassign(lit)
                    for rec in self.clause_occ[lit]:
                        rec.n_true -= 1
                        if rec.n_true == 0:
                            if rec.original:
                                self.n_unsat_orig += 1
                            for l in rec.lits:
                                self.occ_unsat[l] += 1
                    # learned cubes revive as in the real backtrack
                    if lit in self.killed:
                        self._revive(lit)
                trail.shrink(to_level, target)

        class PreFixSolver(QdpllSolver):
            backend_override = PreFixBackend

        diverged = False
        for seed in (1, 3):
            phi = generate_ncf(NcfParams(dep=6, var=4, cls=12, lpc=5, seed=seed))
            cfg = SolverConfig(max_decisions=2000)
            fixed = QdpllSolver(phi, cfg).solve()
            broken = PreFixSolver(phi, cfg).solve()
            assert fixed.outcome is broken.outcome, seed
            diverged = diverged or (
                fixed.stats.pure_literals != broken.stats.pure_literals
                or fixed.stats.decisions != broken.stats.decisions
            )
        assert diverged, "backtrack re-seeding had no observable effect"


class TestLifetime:
    """A finished engine is freed by reference counting alone: nothing in
    it refers back to itself, so its trail, records and learned constraints
    go when the caller drops it, not at the next cyclic collection."""

    @pytest.mark.parametrize("engine", BUILT_BACKENDS)
    @pytest.mark.parametrize("certified", [False, True])
    @pytest.mark.parametrize("paranoid", [False, True])
    def test_a_finished_engine_leaves_no_cyclic_garbage(self, engine, certified, paranoid):
        import gc

        from repro.certify import MemorySink, ProofLogger, certifying_config
        from repro.smv.diameter import diameter_qbf
        from repro.smv.models import model_by_name

        phi = diameter_qbf(model_by_name("counter", 2), 2, form="tree")  # TRUE
        config = SolverConfig(engine=engine, paranoid=paranoid)
        proof = ProofLogger(MemorySink()) if certified else None
        if certified:
            config = certifying_config(config)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            solver = QdpllSolver(phi, config, proof=proof)
            assert solver.solve().outcome is Outcome.TRUE
            assert solver.stats.learned_cubes
            del solver
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()
