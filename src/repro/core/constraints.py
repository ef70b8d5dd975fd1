"""Clauses (nogoods) and cubes (goods), with the paper's reduction rules.

A *clause* is a disjunction of literals; the matrix of every QBF handled by
the library is a set of clauses (Section II). A *cube* (called a *good* in
the paper, Section III) is a conjunction of literals; learned cubes are kept
"as if in disjunction with the matrix".

Both kinds share representation (a canonical tuple of integer literals) and
a pair of dual rewriting rules:

* **Universal reduction** (Lemma 3): a universal literal ``l`` may be deleted
  from a clause if no existential literal ``l'`` of the clause satisfies
  ``|l| ≺ |l'|``. A clause whose reduction is empty is *contradictory*
  (Lemma 4) and makes the whole QBF false.
* **Existential reduction** (the dual, from clause/term resolution [23]): an
  existential literal ``l`` may be deleted from a cube if no universal
  literal ``l'`` of the cube satisfies ``|l| ≺ |l'|``. A cube whose reduction
  is empty makes the QBF true.

The reductions are what the quantifier *tree* strengthens: with a partial
order fewer pairs satisfy ``|l| ≺ |l'|``, so more literals are deleted and
learned constraints prune more (the Section V and VII-C arguments).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from repro.core.literals import check_no_duplicate_vars, var_of
from repro.core.prefix import Prefix


class Constraint:
    """A clause or cube: canonical literal tuple plus solver bookkeeping."""

    __slots__ = ("lits", "learned", "activity")

    #: Subclasses override: True for cubes (conjunctions), False for clauses.
    is_cube = False

    def __init__(self, lits: Iterable[int], learned: bool = False):
        self.lits: Tuple[int, ...] = check_no_duplicate_vars(lits)
        self.learned = learned
        self.activity = 0.0

    def __len__(self) -> int:
        return len(self.lits)

    def __iter__(self):
        return iter(self.lits)

    def __contains__(self, lit: int) -> bool:
        return lit in self.lits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self.is_cube == other.is_cube and self.lits == other.lits

    def __hash__(self) -> int:
        return hash((self.is_cube, self.lits))

    def __repr__(self) -> str:
        shape = "cube" if self.is_cube else "clause"
        return "%s(%s)" % (shape, " ".join(map(str, self.lits)))


def sanitize_lits(lits: Iterable[int]) -> Optional[Tuple[int, ...]]:
    """Drop duplicate literals; return None for a same-clause tautology.

    The permissive counterpart of :func:`~repro.core.literals.
    check_no_duplicate_vars`: instead of rejecting raw input that mentions a
    variable twice, it deduplicates repeated literals and reports a clause
    that contains ``v`` and ``-v`` as ``None`` (such a clause is valid in
    every assignment, so a reader or an engine installing a matrix can
    simply skip it; dually, such a *cube* is unsatisfiable and can be
    skipped by anything that stores cubes disjunctively). Order of first
    occurrence is preserved; canonicalization stays the constructor's job.
    """
    out = []
    seen = set()
    for lit in lits:
        if lit in seen:
            continue
        if -lit in seen:
            return None
        seen.add(lit)
        out.append(lit)
    return tuple(out)


class Clause(Constraint):
    """A disjunction of literals (a *nogood* when learned)."""

    is_cube = False


class Cube(Constraint):
    """A conjunction of literals (a *good* when learned)."""

    is_cube = True


def universal_reduce(lits: Sequence[int], prefix: Prefix) -> Tuple[int, ...]:
    """Apply Lemma 3 to clause literals: drop non-blocking universals.

    A universal literal survives only if some existential literal of the
    clause lies in its scope (``|l| ≺ |l'|``).

    Runs on the prefix's flat tables — the analyses call this after every
    resolution step, so the ``≺`` test is inlined over the level/DFS-interval
    arrays instead of going through ``prec``'s block lookups.
    """
    tab = prefix.tables()
    is_exist = tab.is_exist
    evars = []
    has_universal = False
    for lit in lits:
        v = lit if lit > 0 else -lit
        if is_exist[v]:
            evars.append(v)
        else:
            has_universal = True
    if not has_universal:
        return tuple(lits)
    level = tab.level
    din = tab.din
    dout = tab.dout
    kept = []
    for lit in lits:
        v = lit if lit > 0 else -lit
        if is_exist[v]:
            kept.append(lit)
        else:
            v_level = level[v]
            v_din = din[v]
            v_dout = dout[v]
            for e in evars:
                if v_level < level[e] and v_din <= din[e] <= v_dout:
                    kept.append(lit)
                    break
    return tuple(kept)


def existential_reduce(lits: Sequence[int], prefix: Prefix) -> Tuple[int, ...]:
    """Apply the dual of Lemma 3 to cube literals: drop trailing existentials.

    An existential literal survives only if some universal literal of the
    cube lies in its scope. Exact dual of :func:`universal_reduce`, on the
    same flat tables.
    """
    tab = prefix.tables()
    is_exist = tab.is_exist
    uvars = []
    has_existential = False
    for lit in lits:
        v = lit if lit > 0 else -lit
        if is_exist[v]:
            has_existential = True
        else:
            uvars.append(v)
    if not has_existential:
        return tuple(lits)
    level = tab.level
    din = tab.din
    dout = tab.dout
    kept = []
    for lit in lits:
        v = lit if lit > 0 else -lit
        if not is_exist[v]:
            kept.append(lit)
        else:
            v_level = level[v]
            v_din = din[v]
            v_dout = dout[v]
            for u in uvars:
                if v_level < level[u] and v_din <= din[u] <= v_dout:
                    kept.append(lit)
                    break
    return tuple(kept)


def is_contradictory(clause: Sequence[int], prefix: Prefix) -> bool:
    """Lemma 4 test: a clause with no existential literal is contradictory."""
    return all(prefix.is_universal(l) for l in clause)


def is_trivially_true(cube: Sequence[int], prefix: Prefix) -> bool:
    """Dual of Lemma 4: a cube with no universal literal makes the QBF true."""
    return all(prefix.is_existential(l) for l in cube)


def unit_literal(clause: Sequence[int], prefix: Prefix) -> Optional[int]:
    """Return the unit literal of a clause per the Section IV definition.

    A literal ``l`` is unit when it is existential and every other literal of
    the clause is universal with ``|l_i| ⊀ |l|`` (``l`` is not in the scope of
    any of them). Returns the literal, or None if the clause is not unit.
    This is the *static* notion used by the recursive Q-DLL of Figure 1; the
    iterative engine uses the assignment-aware variant in
    :mod:`repro.core.solver`.
    """
    existentials = [l for l in clause if prefix.is_existential(l)]
    if len(existentials) != 1:
        return None
    lit = existentials[0]
    for other in clause:
        if other == lit:
            continue
        if prefix.prec(other, lit):
            return None
    return lit


def resolve(a: Sequence[int], b: Sequence[int], pivot_var: int) -> Optional[Tuple[int, ...]]:
    """Resolve two like-kind constraints on ``pivot_var``.

    For clauses this is Q-resolution's propositional step (the caller applies
    universal reduction afterwards); for cubes it is term resolution. Returns
    the resolvent literals, or None when the resolvent is *tautological*
    (some non-pivot variable occurs with both signs) — the caller decides how
    to proceed, see :mod:`repro.core.learning`.
    """
    merged = {}
    for lit in a:
        if var_of(lit) != pivot_var:
            merged[var_of(lit)] = lit
    for lit in b:
        v = var_of(lit)
        if v == pivot_var:
            continue
        if v in merged and merged[v] != lit:
            return None
        merged[v] = lit
    return tuple(sorted(merged.values(), key=lambda l: (var_of(l), l)))
