"""Nogood and good learning (Sections III, V and [23]).

Conflict analysis derives a new clause (*nogood*) by Q-resolution: starting
from the falsified clause, the most recently propagated existential literal
is resolved with its reason clause, applying universal reduction (Lemma 3)
after every step, until the clause is *asserting* — unit, under the
generalized Section IV unit rule, at some earlier decision level.

Solution analysis is the exact dual: starting from a satisfied cube (either a
learned good that became true, or a fresh *model cube* covering every matrix
clause), cube-propagated universal literals are resolved with their reason
cubes, applying existential reduction, until the cube is unit at an earlier
level, which flips a universal decision.

The two are one routine over that duality, told which kind it analyzes. A
constraint's *primary* literals are a clause's existentials, all false on
the trail, or a cube's universals, all true; a *secondary* literal with the
defusing value (true in a clause, false in a cube) would satisfy or kill
it. Each kind resolves only with reasons of its own kind and applies its
own reduction. Mirroring a case (every quantifier flipped, every value
negated, every reason clause turned into a cube) turns a conflict analysis
into the solution analysis that derives the same literals, step for step.

Two non-standard situations are handled conservatively:

* a resolution step that would produce a tautological resolvent is skipped —
  the offending literal is kept in the derived constraint as if it were a
  decision (soundness is preserved because the working constraint is always
  a genuine Q-resolvent of database constraints);
* when no asserting constraint can be derived, analysis reports *fallback*
  and the engine reverts to chronological backtracking for that conflict or
  solution (plain Figure-1 Q-DLL behaviour).

The asymmetry tested by the paper lives in the two reductions: with a tree
prefix, fewer literal pairs satisfy ``|l| ≺ |l'|``, so reductions delete
more literals and learned constraints are stronger (the Section VII-C worked
example: good ``{y1_0}`` under the tree vs ``{x1_0, x2_0, x1_1, x2_1, y1_0}``
under the total order).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Set, Tuple, Union

from repro.core.constraints import (
    Clause,
    Cube,
    dropped_blocks,
    existential_reduce,
    resolve,
    universal_reduce,
)
from repro.core.literals import var_of


@dataclass
class Terminal:
    """The analysis proves the whole QBF: FALSE (clauses) or TRUE (cubes)."""


@dataclass
class Backjump:
    """Learn ``lits`` and backtrack, making the constraint assert ``assert_lit``.

    For a clause, ``assert_lit`` is the existential literal that becomes unit
    (to be assigned true); for a cube, it is the universal literal whose
    *negation* must be assigned. ``level`` is the classical asserting level:
    the lowest decision level at which the constraint is unit (the deepest
    jump).
    """

    lits: Tuple[int, ...]
    level: int
    assert_lit: int


@dataclass
class Fallback:
    """No asserting constraint derivable; use chronological backtracking."""


AnalysisOutcome = Union[Terminal, Backjump, Fallback]


class TrailView:
    """The slice of engine state the analyses need (duck-typed by the solver).

    Attributes:
        value: literal -> True/False/None under the current assignment.
        level_of: variable -> decision level (meaningful only if assigned).
        pos_of: variable -> trail position (meaningful only if assigned).
        reason_of: variable -> Constraint | None ("None" covers decisions and
            pure literals — anything that cannot be resolved away).
        reduce_clause, reduce_cube: literal tuple -> its universal or
            existential reduction over ``prefix``. The Python reductions
            unless the engine passes its backend's exact compiled ports.

    Two slots serve :func:`build_model_cube`: ``model_set`` is the literal
    set its last call chose, before reduction (the engine sorts it into a
    certificate's initial cube), and :meth:`block_lits` holds the per-block
    literal sets it intersects that set with.
    """

    def __init__(
        self,
        value,
        level_of,
        pos_of,
        reason_of,
        prefix,
        reduce_clause=None,
        reduce_cube=None,
    ):
        self.value = value
        self.level_of = level_of
        self.pos_of = pos_of
        self.reason_of = reason_of
        self.prefix = prefix
        if reduce_clause is None:
            reduce_clause = partial(universal_reduce, prefix=prefix)
        if reduce_cube is None:
            reduce_cube = partial(existential_reduce, prefix=prefix)
        self.reduce_clause = reduce_clause
        self.reduce_cube = reduce_cube
        self.model_set: Optional[Set[int]] = None
        self._block_lits: Optional[list] = None

    def block_lits(self) -> list:
        """Per block, DFS order: the set of both literals of each of its
        variables. Built on first use and kept by this view alone, so the
        sets live only as long as the solve they serve."""
        if self._block_lits is None:
            self._block_lits = [
                frozenset(vs).union([-v for v in vs])
                for vs in self.prefix.tables().block_vars
            ]
        return self._block_lits


def _backjump(
    work: Sequence[int], view: TrailView, is_cube: bool
) -> Optional[AnalysisOutcome]:
    """Asserting-level computation for a (reduced) working constraint.

    Returns Terminal when the constraint proves the QBF outright, a Backjump
    when some earlier level makes it unit, or None when further resolution
    is needed. Quantifier tests and the ``≺`` comparisons run on the
    prefix's flat lookup tables.
    """
    tab = view.prefix.tables()
    is_exist = tab.is_exist
    # A clause's primaries are its existentials and a true literal defuses
    # it; a cube's primaries are its universals and a false literal does.
    primary_exist = defusing = not is_cube
    primaries = []
    secondaries = []
    for l in work:
        if is_exist[l if l > 0 else -l] is primary_exist:
            primaries.append(l)
        else:
            secondaries.append(l)
    if not primaries:
        return Terminal()
    level_of = view.level_of
    pos_of = view.pos_of
    value = view.value
    # All primaries of a working constraint share one value on the trail,
    # so their (level, pos) keys are distinct and the plain > scan matches
    # max()'s first-of-ties semantics.
    star = primaries[0]
    v = star if star > 0 else -star
    star_level = level_of(v)
    star_pos = pos_of(v)
    for l in primaries:
        v = l if l > 0 else -l
        lv = level_of(v)
        if lv > star_level or (lv == star_level and pos_of(v) > star_pos):
            star = l
            star_level = lv
            star_pos = pos_of(v)
    if star_level == 0:
        blocked = any(
            value(s) is defusing and level_of(s if s > 0 else -s) == 0
            for s in secondaries
        )
        return None if blocked else Terminal()
    b_lo = 0
    b_hi = star_level - 1
    for p in primaries:
        if p is not star:
            lv = level_of(p if p > 0 else -p)
            if lv > b_lo:
                b_lo = lv
    level = tab.level
    din = tab.din
    dout = tab.dout
    v = star if star > 0 else -star
    s_level = level[v]
    s_din = din[v]
    for s in secondaries:
        v = s if s > 0 else -s
        val = value(s)
        blocking = level[v] < s_level and din[v] <= s_din <= dout[v]
        if val is None:
            if blocking:
                return None
        elif val is defusing:
            # it must be unassigned at the target level
            if blocking:
                return None
            b_hi = min(b_hi, level_of(v) - 1)
        elif blocking:
            lv = level_of(v)
            if lv > b_lo:
                b_lo = lv
    if b_lo <= b_hi:
        return Backjump(tuple(work), b_lo, star)
    return None


def _analyze(
    lits: Sequence[int], view: TrailView, trace, is_cube: bool
) -> AnalysisOutcome:
    """Resolve ``lits`` towards an asserting constraint of its kind."""
    is_exist = view.prefix.tables().is_exist
    value = view.value
    reason_of = view.reason_of
    pos_of = view.pos_of
    primary_exist = not is_cube
    kind = Cube if is_cube else Clause
    reduce = view.reduce_cube if is_cube else view.reduce_clause
    work: Tuple[int, ...] = reduce(tuple(lits))
    if trace is not None:
        trace.reduced(work)
    banned: Set[int] = set()
    while True:
        outcome = _backjump(work, view, is_cube)
        if outcome is not None:
            if trace is not None and isinstance(outcome, Terminal):
                _derive_empty(work, view, trace, is_cube)
            return outcome
        # The deepest (max trail position) resolvable primary — false in a
        # clause, true in a cube; positions are unique, so the scan matches
        # max() over the filtered list.
        pivot = 0
        pivot_pos = -1
        for l in work:
            v = l if l > 0 else -l
            if (
                is_exist[v] is primary_exist
                and l not in banned
                and value(l) is is_cube
                and isinstance(reason_of(v), kind)
            ):
                p = pos_of(v)
                if p > pivot_pos:
                    pivot = l
                    pivot_pos = p
        if pivot_pos < 0:
            return Fallback()
        pivot_var = pivot if pivot > 0 else -pivot
        reason = reason_of(pivot_var)
        resolvent = resolve(work, reason.lits, pivot_var)
        if resolvent is None:
            banned.add(pivot)
            continue
        work = reduce(resolvent)
        if trace is not None:
            trace.resolved(reason.lits, pivot_var, work)


def analyze_conflict(
    conflict: Sequence[int], view: TrailView, trace=None
) -> AnalysisOutcome:
    """Derive a learned clause from a falsified clause (nogood learning).

    ``trace``, when given, is a :class:`repro.certify.proof.DerivationTrace`
    mirroring every resolution/reduction step into a certificate. Tracing is
    passive — it never changes which constraint is derived.
    """
    return _analyze(conflict, view, trace, False)


def analyze_solution(
    model_cube: Sequence[int], view: TrailView, trace=None
) -> AnalysisOutcome:
    """Derive a learned cube from a satisfied cube (good learning), the
    dual of :func:`analyze_conflict`."""
    return _analyze(model_cube, view, trace, True)


def _derive_empty(work: Tuple[int, ...], view: TrailView, trace, is_cube: bool) -> None:
    """Resolve a Terminal working constraint down to the empty one.

    A Terminal constraint either is empty already, or has every primary
    literal assigned at decision level 0 (and no defusing secondary there,
    or the backjump computation would have blocked). Resolving the
    primaries with their level-0 unit reasons in reverse trail order
    terminates and cannot produce a tautology: every literal involved has
    the primaries' value on the trail, and no two such literals clash. The
    only unresolvable case is a literal assigned by the pure-literal rule
    (its reason is not of the constraint's kind), which marks the
    certificate incomplete.
    """
    is_exist = view.prefix.tables().is_exist
    reason_of = view.reason_of
    pos_of = view.pos_of
    primary_exist = not is_cube
    kind = Cube if is_cube else Clause
    reduce = view.reduce_cube if is_cube else view.reduce_clause
    while work and trace.ok:
        candidates = [
            l
            for l in work
            if is_exist[var_of(l)] is primary_exist
            and isinstance(reason_of(var_of(l)), kind)
        ]
        if not candidates:
            name = kind.__name__.lower()
            trace.fail("terminal %s blocked on a reason-less literal" % name)
            return
        pivot = max(candidates, key=lambda l: pos_of(var_of(l)))
        reason = reason_of(var_of(pivot))
        resolvent = resolve(work, reason.lits, var_of(pivot))
        if resolvent is None:  # pragma: no cover - impossible on a real trail
            trace.fail("tautological resolvent in terminal derivation")
            return
        work = reduce(resolvent)
        trace.resolved(reason.lits, var_of(pivot), work)


def build_model_cube(clauses: Sequence, view: TrailView) -> Tuple[int, ...]:
    """Construct the initial good of Section III point 1, reduced.

    Picks, for every clause, one satisfying literal of the current
    assignment (preferring literals already chosen, then the earliest
    assigned), producing a set ``S`` with ``C ∩ S ≠ ∅`` for every clause
    ``C``, and returns ``S`` existentially reduced, as
    :func:`analyze_solution` would reduce it.

    This runs once per solution over the whole matrix, making it one of the
    hottest call sites on true-heavy instances. ``clauses`` are the
    backend's original clause records, and no literal is probed: ``n_true``
    says whether the clause is satisfied and by how many literals, and
    ``first`` is its true literal of least trail position. A clause is
    skipped when a chosen literal hits it, which for a clause with one true
    literal is ``first in chosen``. The blocks ``S`` touches are read off
    the literal→block table, the surviving blocks' literals are kept by
    intersecting ``S`` with their literal sets, and only those are sorted.
    On the fig6 counter series ``S`` holds ~337 literals and ~27 survive.
    ``view.model_set`` keeps ``S`` for the certificate's initial cube.
    :func:`reference_model_cube` is the reference it must match.
    """
    chosen: Set[int] = set()
    add = chosen.add
    disjoint = chosen.isdisjoint
    for rec in clauses:
        n = rec.n_true
        if n == 1:
            if rec.first not in chosen:
                add(rec.first)
        elif n:
            first = rec.first
            if first not in chosen and disjoint(rec.lits):
                add(first)
        else:
            raise ValueError("matrix clause not satisfied: %r" % (rec.lits,))
    view.model_set = chosen
    tab = view.prefix.tables()
    blocks = set(map(tab.lit_block.__getitem__, chosen))
    dropped = dropped_blocks(blocks, tab, True)
    if dropped:
        block_lits = view.block_lits()
        survivors = []
        for b in blocks:
            if b not in dropped:
                survivors.extend(chosen.intersection(block_lits[b]))
        survivors.sort(key=abs)
        return tuple(survivors)
    return tuple(sorted(chosen, key=abs))


def reference_model_cube(clauses: Sequence, view: TrailView) -> Tuple[int, ...]:
    """The model cube ``S`` by probing every literal, before reduction.

    ``clauses`` are literal sequences, read through the view's ``value``
    and ``pos_of``; :func:`build_model_cube` must choose the same set and
    return its existential reduction. The cube holds only true literals,
    never both polarities of a variable, so sorting by ``abs`` gives the
    canonical (variable, literal) order.
    """
    chosen: Set[int] = set()
    for clause in clauses:
        sats = [l for l in clause if view.value(l) is True]
        if not sats:
            raise ValueError("matrix clause not satisfied: %r" % (clause,))
        if any(l in chosen for l in sats):
            continue
        chosen.add(min(sats, key=lambda l: view.pos_of(var_of(l))))
    return tuple(sorted(chosen, key=abs))
