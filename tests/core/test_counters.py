"""The counter backend's live-cube index and first satisfiers.

``CounterBackend`` keeps two caches of the trail that decision identity
rests on: ``live[l]``, the install ids of the live learned cubes that
contain ``l``, and each clause's first satisfier ``first``. These tests
check both against their brute-force definitions after every assignment
and backtrack, and pin the pure rule's live-learned-cube guard they serve.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import CounterBackend
from repro.core.formula import QBF
from repro.core.literals import EXISTS, FORALL
from repro.core.solver import QdpllSolver, SolverConfig
from repro.generators.random_qbf import random_tree_qbf
from repro.prenexing import prenex
from repro.smv.diameter import diameter_qbf
from repro.smv.models import model_by_name


def check_index(backend):
    """Every cache the backend keeps, against its definition."""
    trail = backend.trail

    def val(l):
        return trail.lit_val[trail.base + l]

    def pos(l):
        return trail.pos[abs(l)]

    cubes = backend.cubes
    false_lits = [[l for l in rec.lits if val(l) == -1] for rec in cubes]
    for lit, ids in backend.live.items():
        assert ids == [
            cid for cid, rec in enumerate(cubes) if lit in rec.lits and not false_lits[cid]
        ], lit
    filed = [(cid, lit) for lit, ids in backend.killed.items() for cid in ids]
    # a dead cube is filed exactly once, under the negation of its false
    # literal of least trail position
    assert sorted(filed) == sorted(
        (cid, -min(fl, key=pos)) for cid, fl in enumerate(false_lits) if fl
    )
    assert [rec.dead for rec in cubes] == [1 if fl else 0 for fl in false_lits]
    for rec in backend.orig_clauses:
        sats = [l for l in rec.lits if val(l) == 1]
        assert rec.n_true == len(sats)
        if sats:
            assert rec.first == min(sats, key=pos)
            # one shared int object per literal, so model cubes built from
            # first satisfiers do not each pin their own copies
            assert rec.first is backend._canon[rec.first]


class CheckedBackend(CounterBackend):
    """Checks the caches after every assign and backtrack."""

    revived = 0

    def assign(self, lit, reason):
        super().assign(lit, reason)
        check_index(self)

    def backtrack(self, to_level):
        super().backtrack(to_level)
        check_index(self)

    def _revive(self, lit):
        CheckedBackend.revived += len(self.killed[lit])
        super()._revive(lit)

    def _examine(self, rec, is_cube):
        # propagate examines live cubes only: cube_visits stays the count
        # of the eager-counter scheme
        assert not rec.dead
        return super()._examine(rec, is_cube)


class CheckedSolver(QdpllSolver):
    backend_override = CheckedBackend


def _checked_solve(formula, pure):
    config = SolverConfig(engine="counters", pure_literals=pure, max_decisions=300)
    plain = QdpllSolver(formula, config).solve()
    checked = CheckedSolver(formula, config).solve()
    assert checked.outcome is plain.outcome
    assert checked.stats == plain.stats
    return checked


@given(st.integers(min_value=0, max_value=100_000), st.booleans())
@settings(max_examples=40, deadline=None)
def test_index_and_first_satisfiers_match_their_definitions(seed, pure):
    rng = random.Random(seed)
    phi = random_tree_qbf(
        rng,
        depth=5,
        branching=2,
        block_size=2,
        clauses_per_scope=2,
        clause_len=6,
        root_quant=rng.choice((EXISTS, FORALL)),
    )
    for variant in (phi, prenex(phi)):  # QUBE(PO) and QUBE(TO)
        _checked_solve(variant, pure)


def test_index_is_checked_through_kills_and_revivals():
    # Random trees learn few cubes; a Fig. 6 counter formula kills and
    # revives them many times, under both prefixes.
    model = model_by_name("counter", 2)
    before = CheckedBackend.revived
    for form in ("tree", "prenex"):
        for pure in (True, False):
            result = _checked_solve(diameter_qbf(model, 2, form), pure)
            assert result.stats.learned_cubes >= 10
    assert CheckedBackend.revived - before >= 50


def _decide(solver, lit):
    solver.trail.open_level(lit, flipped=False)
    solver.backend.assign(lit, None)


def test_cube_installed_dead_is_filed_under_its_first_false_literal():
    # A cube installed outside the search loop may already have false
    # literals; one born dead must revive exactly when its false literal
    # of least trail position is unassigned.
    phi = QBF.prenex([(EXISTS, [1, 2, 3, 4])], [(1, 2, 3, 4)])
    solver = QdpllSolver(phi, SolverConfig(engine="counters"))
    backend = solver.backend
    _decide(solver, -3)
    _decide(solver, -1)
    cube = backend.add_learned_cube((1, 3, 4))
    assert cube.dead == 1
    assert backend.killed[-3] == [0]
    check_index(backend)
    backend.backtrack(1)  # 1 unassigned, 3 still false: still dead
    assert cube.dead == 1
    check_index(backend)
    backend.backtrack(0)
    assert cube.dead == 0
    assert backend.live[4] == [0]
    check_index(backend)


def test_unit_found_mid_scan_hides_the_cubes_it_kills():
    # ∀{1,2,3} ∃{4}. Dequeuing 4 scans the live cubes (1,4), (1,2,4),
    # (3,4) in install order: the first is unit and assigns -1, which kills
    # the first two; the scan skips the second and still reaches the third.
    phi = QBF.prenex([(FORALL, [1, 2, 3]), (EXISTS, [4])], [(1, 2, 3, 4)])
    solver = QdpllSolver(phi, SolverConfig(engine="counters", pure_literals=False))
    backend = solver.backend
    for cube in ((1, 4), (1, 2, 4), (3, 4)):
        backend.add_learned_cube(cube)
    _decide(solver, 4)
    backend.propagate()
    assert solver.trail.lits == [4, -1, -3]
    assert solver.stats.cube_visits == 2
    check_index(backend)


def test_pure_rule_skips_literals_of_live_learned_cubes():
    # ∃{1,2,3} : (1 ∨ 2). Literal 1 never occurs negated, so it is pure
    # unless a live learned cube holds it.
    phi = QBF.prenex([(EXISTS, [1, 2, 3])], [(1, 2)])
    solver = QdpllSolver(phi, SolverConfig(engine="counters"))
    backend = solver.backend
    backend.add_learned_cube((1, -3))
    backend.pure_candidates.clear()
    backend.pure_candidates.add(1)
    assert not backend.apply_pure_literals()
    assert solver.trail.lit_value(1) is None
    # Assigning 3 kills the cube; re-seeded, variable 1 is assigned pure.
    _decide(solver, 3)
    assert backend.live[1] == []
    backend.pure_candidates.add(1)
    assert backend.apply_pure_literals()
    assert solver.trail.lit_value(1) is True
    # Backtracking revives the cube, and it guards literal 1 again.
    backend.backtrack(0)
    assert backend.live[1] == [0]
    backend.pure_candidates.clear()
    backend.pure_candidates.add(1)
    assert not backend.apply_pure_literals()
    assert solver.trail.lit_value(1) is None


def test_paranoid_revival_refuses_a_cube_with_a_false_literal():
    # A cube filed under a later false literal than its first would revive
    # while still dead; paranoid mode checks every revival for that.
    phi = QBF.prenex([(EXISTS, [1, 2, 3])], [(1, 2, 3)])
    for paranoid in (False, True):
        solver = QdpllSolver(phi, SolverConfig(engine="counters", paranoid=paranoid))
        backend = solver.backend
        _decide(solver, -1)
        _decide(solver, -3)
        backend.add_learned_cube((1, 3))
        assert backend.killed[-1] == [0]
        backend.killed[-3] = backend.killed.pop(-1)  # misfiled
        if paranoid:
            with pytest.raises(AssertionError, match="false literal"):
                backend.backtrack(1)
        else:
            backend.backtrack(1)
