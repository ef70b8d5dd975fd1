"""Unit tests for conflict/solution analysis with a scripted trail."""

import pytest

from repro.core.constraints import Clause, Cube
from repro.core.learning import (
    Backjump,
    Fallback,
    Terminal,
    TrailView,
    analyze_conflict,
    analyze_solution,
    build_model_cube,
)
from repro.core.literals import EXISTS, FORALL
from repro.core.prefix import Prefix


class FakeTrail:
    """A hand-built assignment: var -> (value, level, pos, reason)."""

    def __init__(self, prefix, entries):
        self.prefix = prefix
        self.entries = entries

    def view(self) -> TrailView:
        def value(lit):
            v = abs(lit)
            if v not in self.entries:
                return None
            val = self.entries[v][0]
            return val if lit > 0 else not val

        return TrailView(
            value=value,
            level_of=lambda v: self.entries[v][1],
            pos_of=lambda v: self.entries[v][2],
            reason_of=lambda v: self.entries[v][3],
            prefix=self.prefix,
        )


@pytest.fixture
def eae_prefix():
    """∃x1 x2 ∀y3 ∃x4 x5."""
    return Prefix.linear([(EXISTS, [1, 2]), (FORALL, [3]), (EXISTS, [4, 5])])


class TestClauseAnalysis:
    def test_terminal_on_all_universal(self, eae_prefix):
        trail = FakeTrail(eae_prefix, {3: (False, 1, 0, None)})
        out = analyze_conflict((3,), trail.view())
        assert isinstance(out, Terminal)

    def test_terminal_at_level_zero(self, eae_prefix):
        trail = FakeTrail(eae_prefix, {1: (False, 0, 0, None)})
        out = analyze_conflict((1,), trail.view())
        assert isinstance(out, Terminal)

    def test_asserting_clause_backjump(self, eae_prefix):
        # x1 decided false at level 1, x2 decided false at level 2; the
        # clause (1 2) is unit at level 1, asserting x2... the deeper
        # literal is the asserting one.
        trail = FakeTrail(
            eae_prefix,
            {1: (False, 1, 0, None), 2: (False, 2, 1, None)},
        )
        out = analyze_conflict((1, 2), trail.view())
        assert isinstance(out, Backjump)
        assert out.assert_lit == 2
        assert out.level == 1
        assert out.lits == (1, 2)

    def test_unit_conflict_asserts_without_resolution(self, eae_prefix):
        # A falsified unit clause is immediately asserting at level 0 — no
        # resolution needed even though a reason is available.
        trail = FakeTrail(
            eae_prefix,
            {1: (True, 1, 0, None), 2: (False, 1, 1, Clause((2, -1)))},
        )
        out = analyze_conflict((2,), trail.view())
        assert isinstance(out, Backjump)
        assert out.lits == (2,)
        assert out.level == 0

    def test_resolution_with_reason(self, eae_prefix):
        # Conflict (2, 4) with both existentials at level 2: not asserting.
        # x4 was propagated false by (¬4 ∨ ¬1); resolving yields (2, ¬1),
        # which is unit at level 1 and asserts x2.
        reason4 = Clause((-4, -1))
        trail = FakeTrail(
            eae_prefix,
            {
                1: (True, 1, 0, None),
                2: (False, 2, 1, None),
                4: (False, 2, 2, reason4),
            },
        )
        out = analyze_conflict((2, 4), trail.view())
        assert isinstance(out, Backjump)
        assert set(out.lits) == {2, -1}
        assert out.assert_lit == 2
        assert out.level == 1

    def test_universal_reduction_inside_analysis(self, eae_prefix):
        # Clause (¬1, 3): y3 has no existential inside its scope in the
        # clause, so it is reduced away, leaving the unit (¬1).
        trail = FakeTrail(
            eae_prefix,
            {1: (True, 1, 0, None), 3: (False, 2, 1, None)},
        )
        out = analyze_conflict((-1, 3), trail.view())
        assert isinstance(out, Backjump)
        assert out.lits == (-1,)

    def test_fallback_when_only_pure_reasons(self, eae_prefix):
        # Two existentials false at the same level, neither resolvable
        # (decision/pure reasons): no asserting clause exists.
        trail = FakeTrail(
            eae_prefix,
            {1: (False, 1, 0, None), 2: (False, 1, 1, None)},
        )
        out = analyze_conflict((1, 2), trail.view())
        assert isinstance(out, Fallback)

    def test_blocking_universal_forces_resolution_or_fallback(self, eae_prefix):
        # Clause (4, 3) with y3 unassigned and y3 ≺ x4: cannot assert.
        trail = FakeTrail(eae_prefix, {4: (False, 1, 0, None)})
        out = analyze_conflict((4, 3), trail.view())
        assert isinstance(out, Fallback)


class TestCubeAnalysis:
    def test_terminal_on_all_existential(self, eae_prefix):
        trail = FakeTrail(eae_prefix, {1: (True, 1, 0, None)})
        out = analyze_solution((1,), trail.view())
        assert isinstance(out, Terminal)

    def test_terminal_at_level_zero(self, eae_prefix):
        trail = FakeTrail(eae_prefix, {3: (True, 0, 0, None)})
        out = analyze_solution((3,), trail.view())
        assert isinstance(out, Terminal)

    def test_asserting_cube_backjump(self, eae_prefix):
        # Cube (1, 3): x1 true at level 1 (and x1 ≺ y3, so it pins the
        # level), y3 true at level 2 — unit at level 1, flipping y3.
        trail = FakeTrail(
            eae_prefix,
            {1: (True, 1, 0, None), 3: (True, 2, 1, None)},
        )
        out = analyze_solution((1, 3), trail.view())
        assert isinstance(out, Backjump)
        assert out.assert_lit == 3  # the engine assigns ¬3
        assert out.level == 1

    def test_existential_reduction_inside_analysis(self, eae_prefix):
        # Cube (3, 4): x4 is after y3, reduced away; remaining (3) asserts.
        trail = FakeTrail(
            eae_prefix,
            {3: (True, 1, 0, None), 4: (True, 2, 1, None)},
        )
        out = analyze_solution((3, 4), trail.view())
        assert isinstance(out, Backjump)
        assert out.lits == (3,)
        assert out.level == 0

    def test_cube_resolution_with_reason(self, eae_prefix):
        # ¬y3 was propagated by the cube (1, 3): resolving the satisfied
        # cube (1, -3) with it on y3 merges to (1).
        reason = Cube((1, 3))
        trail = FakeTrail(
            eae_prefix,
            {
                1: (True, 1, 0, None),
                3: (False, 1, 1, reason),
            },
        )
        out = analyze_solution((1, -3), trail.view())
        # (1) has no universal literal: the whole QBF is true.
        assert isinstance(out, Terminal)


class TestBuildModelCube:
    def test_covers_every_clause(self, eae_prefix):
        clauses = [Clause((1, 4)), Clause((2, -3)), Clause((1, 5))]
        trail = FakeTrail(
            eae_prefix,
            {
                1: (True, 1, 0, None),
                2: (True, 1, 1, None),
                3: (False, 2, 2, None),
                4: (False, 2, 3, None),
                5: (True, 3, 4, None),
            },
        )
        cube = build_model_cube(clauses, trail.view())
        for clause in clauses:
            assert any(l in cube for l in clause.lits)
        # Only true literals are selected.
        view = trail.view()
        assert all(view.value(l) is True for l in cube)

    def test_unsatisfied_clause_rejected(self, eae_prefix):
        clauses = [Clause((1,))]
        trail = FakeTrail(eae_prefix, {1: (False, 1, 0, None)})
        with pytest.raises(ValueError):
            build_model_cube(clauses, trail.view())

    def test_prefers_already_chosen_literals(self, eae_prefix):
        # Both clauses satisfied by literal 1: the cube stays a singleton.
        clauses = [Clause((1, 4)), Clause((1, 5))]
        trail = FakeTrail(
            eae_prefix,
            {1: (True, 1, 0, None), 4: (True, 2, 1, None), 5: (True, 2, 2, None)},
        )
        cube = build_model_cube(clauses, trail.view())
        assert cube == (1,)
