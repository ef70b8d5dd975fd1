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

from typing import Iterable, Optional, Sequence, Set, Tuple

from repro.core.literals import check_no_duplicate_vars, var_of
from repro.core.prefix import Prefix, PrefixTables


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


def dropped_blocks(blocks: Iterable[int], tab: PrefixTables, deletable_exist: bool) -> Set[int]:
    """The blocks a reduction deletes, given the blocks a constraint touches.

    A block of the deletable quantifier goes when no touched block of the
    other quantifier lies in its scope. The ``≺`` test reads only a block's
    level and DFS interval, so each distinct deletable block is tested once
    against the distinct anchor blocks, on the per-block tables.
    """
    block_exist = tab.block_exist
    deletable = []
    anchors = []
    for b in blocks:
        if block_exist[b] == deletable_exist:
            deletable.append(b)
        else:
            anchors.append(b)
    dropped: Set[int] = set()
    if not deletable:
        return dropped
    level = tab.block_level
    din = tab.block_din
    dout = tab.block_dout
    for b in deletable:
        b_level = level[b]
        b_din = din[b]
        b_dout = dout[b]
        for a in anchors:
            if b_level < level[a] and b_din <= din[a] <= b_dout:
                break
        else:
            dropped.add(b)
    return dropped


def _reduce(lits: Sequence[int], prefix: Prefix, deletable_exist: bool) -> Tuple[int, ...]:
    """Drop every literal of the deletable quantifier that has no literal of
    the other quantifier in its scope; the rest keep their order.

    Every variable of a block shares the ``≺`` relations, so the blocks the
    literals touch are found in one pass over the literal→block table and
    decided by :func:`dropped_blocks`; the literals are filtered only when
    a block goes.
    """
    tab = prefix.tables()
    lit_block = tab.lit_block
    dropped = dropped_blocks(set(map(lit_block.__getitem__, lits)), tab, deletable_exist)
    if not dropped:
        return tuple(lits)
    return tuple([l for l in lits if lit_block[l] not in dropped])


def universal_reduce(lits: Sequence[int], prefix: Prefix) -> Tuple[int, ...]:
    """Apply Lemma 3 to clause literals: drop non-blocking universals.

    A universal literal survives only if some existential literal of the
    clause lies in its scope (``|l| ≺ |l'|``).

    Runs on the prefix's flat tables — the analyses call this after every
    resolution step, so the ``≺`` test is inlined over the level/DFS-interval
    arrays, once per pair of distinct blocks (see :func:`_reduce`).
    """
    return _reduce(lits, prefix, False)


def existential_reduce(lits: Sequence[int], prefix: Prefix) -> Tuple[int, ...]:
    """Apply the dual of Lemma 3 to cube literals: drop trailing existentials.

    An existential literal survives only if some universal literal of the
    cube lies in its scope. Exact dual of :func:`universal_reduce`, on the
    same flat tables.
    """
    return _reduce(lits, prefix, True)


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
    # One literal per variable (a tautology returned None above), so the
    # variable order alone is the canonical order.
    return tuple(sorted(merged.values(), key=abs))
