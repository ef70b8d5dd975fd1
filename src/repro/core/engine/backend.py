"""Propagation backends: the interface and the shared machinery.

A backend owns everything derived from the matrix — occurrence lists,
satisfaction counters, the learned-constraint stores — and
exposes four operations to the search layer: ``assign``, ``backtrack``,
``propagate`` and ``add_learned_clause``/``add_learned_cube``. The search
layer never looks past this interface.

**The equivalence contract.** Every backend must be *decision-for-decision
identical* to the reference counter backend: same trail, in the same order,
with the same reasons, the same conflict/solution/model events on the same
constraint records, and the same learned constraints — given the same
formula, config and heuristic tie-breaks. Backends may only differ in the
*cost* of reaching those events (tracked by the ``clause_visits`` and
``cube_visits`` stats, which are explicitly backend-dependent). The
contract is what makes the reference backend a free differential-testing
oracle for the compiled one.

The contract is stricter than it may look: conflicts and units must fire
while scanning the occurrence list of the *currently dequeued* literal, in
installation order, under eager value semantics (assignments made mid-scan
are visible to later records in the same scan). Classic inverted
watch lists, which examine only the records watching the dequeued literal,
would find some conflicts one or more dequeues later and so reorder the
trail. Skipping records that are already defused is allowed, because
examining them yields nothing: the reference scans only the *live*
learned cubes of the dequeued literal (a snapshot of its live-cube index,
in installation order), re-checking each one's dead flag so that a cube
killed by a unit found earlier in the same scan is still skipped. The
native backend walks full cube occurrence lists with eager counters and
visits the same cubes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.constraints import (
    Clause,
    Constraint,
    Cube,
    sanitize_lits,
    universal_reduce,
)
from repro.core.literals import var_of

#: sentinel reason for pure-literal assignments (decision-like in analyses).
PURE = object()

CONFLICT = "conflict"
SOLUTION = "solution"
MODEL = "model"


class Rec:
    """Backend-private record of one clause or cube.

    The counter backend keeps per-kind state, each the one the engine
    reads. On clauses, ``n_true`` counts the true literals (a satisfied
    clause is skipped, and its sat/unsat transitions drive the pure-literal
    index) and ``first`` is the literal whose assignment took ``n_true``
    from 0 to 1. Backtracking is last-in-first-out, so while ``n_true`` is
    positive ``first`` is the clause's true literal of least trail position:
    the one the Section III model cube picks. On cubes, ``dead`` is 1 while
    the cube has a false literal (it is skipped, and it no longer blocks
    the pure rule) and 0 otherwise. The other kind's slots stay 0. The
    native backend keeps these in C and leaves them 0.

    ``lits`` is the constraint's literal tuple, held directly so the
    counter walks that visit every literal of a clause turning satisfied or
    unsatisfied read it without a hop through the constraint. ``prim``/
    ``sec`` are those literals split by the primary quantifier of its kind
    (existential for clauses, universal for cubes), each preserving literal
    order. All three are immutable once installed; the examine scan
    iterates ``prim``/``sec`` instead of re-testing the quantifier of every
    literal on every visit.
    """

    __slots__ = ("constraint", "lits", "n_true", "first", "dead", "original", "prim", "sec")

    def __init__(self, constraint: Constraint, original: bool):
        self.constraint = constraint
        self.lits: Tuple[int, ...] = constraint.lits
        self.n_true = 0
        self.first = 0
        self.dead = 0
        self.original = original
        self.prim: Tuple[int, ...] = ()
        self.sec: Tuple[int, ...] = ()

    @property
    def is_cube(self) -> bool:
        return self.constraint.is_cube

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Rec(%r, T=%d, dead=%d)" % (self.constraint, self.n_true, self.dead)


class PropagationBackend:
    """Base class: matrix installation, the duality-parameterized examine
    and the learned-constraint bookkeeping."""

    name = "?"

    #: Optional acceleration slots the search layer probes at init. A
    #: backend that owns compiled equivalents of the analysis-layer hot
    #: functions overrides these (see the native backend); None means "use
    #: the pure-Python reference" — :func:`~repro.core.constraints.
    #: universal_reduce` / ``existential_reduce`` and :func:`~repro.core.
    #: learning.build_model_cube`. Overrides must be exact ports: they sit
    #: on the learning path, so any deviation breaks decision identity.
    reduce_clause_fast = None
    reduce_cube_fast = None
    native_model_cube = None

    def accelerated_frontier_picker(self, policy, keeper, trail):
        """A compiled decision function fusing the trail's frontier scan
        with the ``policy`` ranking, or None for the pure-Python fused
        picker (:func:`~repro.core.heuristics.make_picker` with ``trail``).
        Fusion is only sound because every ranking ends in a strict ``-v``
        tiebreak, making the result independent of frontier enumeration
        order."""
        return None

    def __init__(self, formula, prefix, config, stats, trail, keeper):
        self.formula = formula
        self.prefix = prefix
        self.config = config
        self.stats = stats
        self.trail = trail
        self.keeper = keeper
        self._tab = prefix.tables()
        self.clause_occ: Dict[int, List[Rec]] = {}
        self.occ_unsat: Dict[int, int] = {}
        for v in prefix.variables:
            for lit in (v, -v):
                self.clause_occ[lit] = []
                self.occ_unsat[lit] = 0
        self.orig_clauses: List[Rec] = []
        self.learned_clauses: Dict[Tuple[int, ...], Rec] = {}
        self.learned_cubes: Dict[Tuple[int, ...], Rec] = {}
        self.n_unsat_orig = 0
        self.pure_candidates: Set[int] = set()
        self.trivially_false = False
        self.install_matrix()

    # -- setup ---------------------------------------------------------------

    def install_matrix(self) -> None:
        """Install the matrix: sanitize, universally reduce, deduplicate.

        Sanitization handles raw input once, here, so no per-propagation
        code ever has to: duplicate literals within a clause are dropped and
        a same-clause tautology (``v`` and ``-v``) skips the whole clause —
        it is satisfied by every assignment, so installing it would only
        slow propagation down (canonical :class:`Clause` inputs are already
        clean; this covers duck-typed clauses and tolerant readers).
        """
        seen: Set[Tuple[int, ...]] = set()
        for clause in self.formula.clauses:
            lits = sanitize_lits(clause.lits)
            if lits is None:
                continue  # tautological: true in every assignment
            # Canonical clause order (a no-op for Clause inputs, which are
            # already sorted) so the duplicate check below sees raw clauses
            # that differ only in literal order as equal.
            lits = tuple(sorted(lits, key=lambda l: (var_of(l), l)))
            reduced = universal_reduce(lits, self.prefix)
            if not reduced:
                self.trivially_false = True
                return
            if reduced in seen:
                continue
            seen.add(reduced)
            rec = Rec(Clause(reduced), original=True)
            self._split_primaries(rec)
            self.orig_clauses.append(rec)
            self._install_clause(rec)
        self.n_unsat_orig = len(self.orig_clauses)
        self.keeper.bump_initial([r.lits for r in self.orig_clauses])
        self.pure_candidates.update(self.prefix.variables)

    def _split_primaries(self, rec: Rec) -> None:
        """Precompute the record's primary/secondary literal tuples, in
        literal order, so no examine scan ever re-tests a quantifier."""
        is_exist = self._tab.is_exist
        if rec.is_cube:
            rec.prim = tuple(l for l in rec.lits if not is_exist[l if l > 0 else -l])
            rec.sec = tuple(l for l in rec.lits if is_exist[l if l > 0 else -l])
        else:
            rec.prim = tuple(l for l in rec.lits if is_exist[l if l > 0 else -l])
            rec.sec = tuple(l for l in rec.lits if not is_exist[l if l > 0 else -l])

    def _install_clause(self, rec: Rec) -> None:
        raise NotImplementedError

    # -- the backend interface ------------------------------------------------

    def assign(self, lit: int, reason: object) -> None:
        raise NotImplementedError

    def backtrack(self, to_level: int) -> None:
        raise NotImplementedError

    def propagate(self) -> Optional[Tuple[str, object]]:
        raise NotImplementedError

    def _install_learned_clause(self, rec: Rec) -> None:
        raise NotImplementedError

    def _install_learned_cube(self, rec: Rec) -> None:
        raise NotImplementedError

    def add_learned_clause(self, lits: Tuple[int, ...]) -> Rec:
        rec = self.learned_clauses.get(lits)
        if rec is not None:
            return rec
        rec = Rec(Clause(lits, learned=True), original=False)
        self._split_primaries(rec)
        self.learned_clauses[lits] = rec
        self._install_learned_clause(rec)
        self.stats.learned_clauses += 1
        self.stats.learned_clause_lits += len(lits)
        self.keeper.on_learned(lits)
        return rec

    def add_learned_cube(self, lits: Tuple[int, ...]) -> Rec:
        rec = self.learned_cubes.get(lits)
        if rec is not None:
            return rec
        rec = Rec(Cube(lits, learned=True), original=False)
        self._split_primaries(rec)
        self.learned_cubes[lits] = rec
        self._install_learned_cube(rec)
        self.stats.learned_cubes += 1
        self.stats.learned_cube_lits += len(lits)
        self.keeper.on_learned(lits)
        return rec

    # -- the examine routine ----------------------------------------------------

    def _examine(self, rec: Rec, is_cube: bool) -> Optional[Tuple[str, object]]:
        """One full-body scan: Lemmas 4/5 for clauses, their duals for cubes.

        A clause conflicts with no unassigned existential left and
        propagates its single unassigned existential ``e`` when no
        unassigned universal precedes ``e``; a cube triggers a solution with
        no unassigned universal left and propagates (the negation of) its
        single unassigned universal ``u`` when no unassigned existential
        precedes ``u``. One routine covers both by picking the *primary*
        quantifier (existential for clauses, universal for cubes) and the
        *defusing* value (a true literal satisfies a clause; a false literal
        kills a cube).

        Self-guarding: a defused constraint returns None immediately (the
        counter backend pre-guards with ``n_true`` and its live-cube index,
        so the bail only protects callers that do not).

        The scan runs on the flat kernels: literal truth is one probe of the
        trail's literal-indexed value array, the primary/secondary split is
        precomputed per record (``rec.prim``/``rec.sec``), and the blocking
        test inlines ``prec`` over the prefix's flat level/DFS-interval
        tables. Scanning primaries before secondaries never changes the
        produced events.
        """
        lit_val = self.trail.lit_val
        base = self.trail.base
        if is_cube:
            self.stats.cube_visits += 1
            defused = -1  # a false literal kills a cube
        else:
            self.stats.clause_visits += 1
            defused = 1  # a true literal satisfies a clause
        unassigned_p: List[int] = []
        for lit in rec.prim:
            val = lit_val[base + lit]
            if val == 0:
                unassigned_p.append(lit)
            elif val == defused:
                return None
        unassigned_s: List[int] = []
        for lit in rec.sec:
            val = lit_val[base + lit]
            if val == 0:
                unassigned_s.append(lit)
            elif val == defused:
                return None
        if not unassigned_p:
            return (SOLUTION if is_cube else CONFLICT, rec)
        if len(unassigned_p) == 1:
            p = unassigned_p[0]
            tab = self._tab
            level = tab.level
            din = tab.din
            pv = p if p > 0 else -p
            p_level = level[pv]
            p_din = din[pv]
            dout = tab.dout
            for s in unassigned_s:
                sv = s if s > 0 else -s
                if level[sv] < p_level and din[sv] <= p_din <= dout[sv]:
                    break  # an unassigned secondary precedes p: not unit
            else:
                self.stats.propagations += 1
                self.assign(-p if is_cube else p, rec)
        return None
