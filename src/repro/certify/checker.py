"""Independent certificate checker — replays a derivation, no solver involved.

The checker walks a certificate (see :mod:`repro.certify.store`) against a
:class:`~repro.core.formula.QBF` and verifies, step by step:

* **input clauses** are legal universal reductions of the named matrix
  clause;
* **initial cubes** are consistent literal sets over bound variables that
  satisfy every matrix clause (the term-resolution axiom rule);
* **resolution steps** resolve two previously derived same-kind constraints
  on an existential pivot (clauses) or universal pivot (cubes), are not
  tautological, and are followed by a legal reduction;
* **reduction steps** delete only literals the quantifier structure allows:
  a universal literal may leave a clause only if it precedes (``≺``) no
  existential literal of the clause, an existential literal may leave a cube
  only if it precedes no universal literal of the cube — the Lemma 3
  condition and its dual, evaluated on the formula's own ``d(z)/f(z)``
  partial order, so certificates are checked under the original non-prenex
  scopes;
* the **conclusion** names a derived empty clause (FALSE) or empty cube
  (TRUE).

Reductions are checked for *legality*, not maximality: a proof produced
under any linear extension of the quantifier tree (a prenexing) only ever
deletes a subset of what the tree allows, so the same certificate checks
against both the prenex form it was produced on and the original non-prenex
formula. The converse is deliberately false — a tree-order reduction that
the checked formula's order forbids is rejected, which is exactly the
"illegal reduction" corruption class the tests exercise.

The checker reads the quantifier tree only through its own flat arrays
(:class:`_Scopes`), built from ``Prefix.blocks`` once per certificate. It
never reads ``Prefix.tables()``: the solver's reductions run on those
tables, and a checker that shared them could not catch a fault in them.
Initial cubes are checked against per-literal clause bitmasks built at the
certificate's first ``cube0`` step, so a cube costs one OR per literal
instead of a sweep over the matrix.

The certificate source is streamed; the checker keeps only the id ->
literals map needed to resolve antecedent references.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import neg, or_
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.certify.store import (
    CERT_FORMAT,
    CERT_VERSION,
    CONCLUSION,
    HEADER,
    INITIAL_CUBE,
    INPUT_CLAUSE,
    KIND_CUBE,
    REDUCTION,
    RESOLUTION,
    CertificateSource,
    read_certificate,
)
from repro.core.formula import QBF
from repro.core.literals import EXISTS, var_of

#: check statuses.
VERIFIED = "verified"  # complete proof, every step valid, conclusion holds
INVALID = "invalid"  # some step or the conclusion is wrong
INCOMPLETE = "incomplete"  # honest partial proof (no terminal derivation)
UNKNOWN = "unknown"  # the run did not determine an outcome


@dataclass
class CheckReport:
    """Outcome of checking one certificate against one formula."""

    status: str
    outcome: Optional[str] = None
    steps: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == VERIFIED

    def __repr__(self) -> str:
        body = "%s, outcome=%s, %d steps" % (self.status, self.outcome, self.steps)
        if self.error:
            body += ", error=%s" % (self.error,)
        return "CheckReport(%s)" % body


class _Reject(Exception):
    """Internal: step verification failure with a human-readable cause."""


def _canon(lits: Iterable[int]) -> Tuple[int, ...]:
    """Distinct literals in ``(variable, literal)`` order: the ascending
    sort puts ``-v`` before ``v`` and the stable sort by ``abs`` keeps it
    there, both without a Python-level key."""
    return tuple(sorted(sorted(set(map(int, lits))), key=abs))


class _Scopes:
    """The checker's own view of the quantifier tree, from ``Prefix.blocks``.

    ``block[v]`` is the DFS index of the block binding variable ``v``;
    ``level``, ``din`` and ``dout`` are indexed by block, so ``≺`` between
    blocks ``a`` and ``b`` is ``level[a] < level[b] and din[a] <= din[b]
    <= dout[a]``. ``existentials``/``universals`` hold both literals of
    every variable of that quantifier, ``bound`` their union.
    """

    __slots__ = ("block", "level", "din", "dout", "existentials", "universals", "bound")

    def __init__(self, prefix) -> None:
        blocks = prefix.blocks
        num_slots = 1 + max((max(b.variables) for b in blocks), default=0)
        self.block: List[int] = [0] * num_slots
        self.level = [b.level for b in blocks]
        self.din = [b.din for b in blocks]
        self.dout = [b.dout for b in blocks]
        self.existentials: Set[int] = set()
        self.universals: Set[int] = set()
        for b in blocks:
            lits = self.existentials if b.quant is EXISTS else self.universals
            for v in b.variables:
                self.block[v] = b.index
                lits.add(v)
                lits.add(-v)
        self.bound = self.existentials | self.universals

    def blocked(self, dropped: Iterable[int], anchors: Iterable[int]) -> bool:
        """True when the variable of some ``dropped`` literal precedes
        (``≺``) the variable of some ``anchors`` literal. ``≺`` depends only
        on the blocks involved, so each distinct pair of blocks is tested
        once."""
        block = self.block
        level = self.level
        din = self.din
        dout = self.dout
        targets = [(level[b], din[b]) for b in set(map(block.__getitem__, map(abs, anchors)))]
        for b in set(map(block.__getitem__, map(abs, dropped))):
            b_level = level[b]
            b_din = din[b]
            b_dout = dout[b]
            for a_level, a_din in targets:
                if b_level < a_level and b_din <= a_din <= b_dout:
                    return True
        return False


def _check_legal_reduction(
    before: Sequence[int], after: Sequence[int], scopes: _Scopes, is_cube: bool, where: str
) -> None:
    """Verify ``after`` arises from ``before`` by deleting only reducible
    literals under the prefix's partial order (Lemma 3 / its dual).

    Existential reduction lets an existential literal leave a cube iff it
    precedes no universal literal of the cube (universals are never
    deletable); universal reduction lets a universal literal leave a clause
    iff it precedes no existential literal of the clause. The whole step is
    decided with set operations and one block-pair test; only an illegal
    step walks its dropped literals one by one, to name the first one.
    """
    before_set = set(before)
    after_set = set(after)
    extra = after_set - before_set
    if extra:
        raise _Reject("%s: reduction invents literals %s" % (where, sorted(extra)))
    dropped = before_set - after_set
    if not dropped:
        return
    kept = scopes.universals if is_cube else scopes.existentials
    anchors = before_set & kept
    if dropped.isdisjoint(kept) and not (anchors and scopes.blocked(dropped, anchors)):
        return
    if is_cube:
        kept_kind, drop_kind, shape = "universal", "existential", "cube"
    else:
        kept_kind, drop_kind, shape = "existential", "universal", "clause"
    for l in dropped:
        if l in kept:
            raise _Reject(
                "%s: reduction deleted %s %d from a %s" % (where, kept_kind, l, shape)
            )
        if scopes.blocked((l,), anchors):
            raise _Reject(
                "%s: %s %d is blocked by a deeper %s" % (where, drop_kind, l, kept_kind)
            )


def _resolve_checked(
    a: Sequence[int], b: Sequence[int], pivot: int, scopes: _Scopes, is_cube: bool, where: str
) -> Tuple[int, ...]:
    """Verify and perform one resolution step; returns the raw resolvent."""
    if pivot <= 0 or pivot not in scopes.bound:
        raise _Reject("%s: pivot %d is not a bound variable" % (where, pivot))
    if is_cube:
        if pivot not in scopes.universals:
            raise _Reject("%s: cube resolution pivot %d is not universal" % (where, pivot))
    else:
        if pivot not in scopes.existentials:
            raise _Reject(
                "%s: clause resolution pivot %d is not existential" % (where, pivot)
            )
    a_set = set(a)
    b_set = set(b)
    a_pos = pivot in a_set
    b_pos = pivot in b_set
    if a_pos == (-pivot in a_set) or b_pos == (-pivot in b_set) or a_pos == b_pos:
        raise _Reject(
            "%s: pivot %d does not occur with opposite signs in the antecedents"
            % (where, pivot)
        )
    resolvent = (a_set | b_set) - {pivot, -pivot}
    if resolvent.isdisjoint(map(neg, resolvent)):
        return _canon(resolvent)
    # A variable with both signs: merge literal by literal to name it.
    merged: Dict[int, int] = {}
    for lit in a:
        if var_of(lit) != pivot:
            merged[var_of(lit)] = lit
    for lit in b:
        v = var_of(lit)
        if v == pivot:
            continue
        if v in merged and merged[v] != lit:
            raise _Reject("%s: tautological resolvent (variable %d)" % (where, v))
        merged[v] = lit
    return _canon(merged.values())


def _clause_masks(formula: QBF, scopes: _Scopes) -> Tuple[Dict[int, int], int]:
    """Per bound literal, the bitmask of the matrix clauses it occurs in
    (bit ``i`` for clause ``i``), and the mask of all clauses."""
    masks = dict.fromkeys(scopes.bound, 0)
    for index, clause in enumerate(formula.clauses):
        bit = 1 << index
        for l in clause.lits:
            masks[l] |= bit
    return masks, (1 << len(formula.clauses)) - 1


def _check_initial_cube(
    lits: Sequence[int], scopes: _Scopes, masks: Dict[int, int], full: int, where: str
) -> None:
    """Term axiom rule: a consistent implicant of the whole matrix.

    ``lits`` is canonical (distinct literals), so two literals share a
    variable only when they contradict each other. The cube satisfies the
    matrix iff the OR of its literals' clause masks is ``full``; the lowest
    bit missing names the first clause it leaves unsatisfied.
    """
    if not scopes.bound.issuperset(lits) or len(set(map(abs, lits))) != len(lits):
        seen: Dict[int, int] = {}
        for l in lits:
            v = var_of(l)
            if l not in scopes.bound:
                raise _Reject("%s: literal %d is not bound by the prefix" % (where, l))
            if seen.get(v, l) != l:
                raise _Reject("%s: contradictory literals on variable %d" % (where, v))
            seen[v] = l
    missing = full & ~reduce(or_, map(masks.__getitem__, lits), 0)
    if missing:
        index = (missing & -missing).bit_length() - 1
        raise _Reject("%s: matrix clause %d is not satisfied by the cube" % (where, index))


def check_certificate(formula: QBF, source: CertificateSource) -> CheckReport:
    """Replay ``source`` against ``formula`` and report the verdict.

    Never raises on malformed certificates — every defect is reported as an
    ``invalid`` :class:`CheckReport` with the offending step in ``error``.
    """
    scopes = _Scopes(formula.prefix)
    #: clause bitmasks, built at the first initial cube (FALSE proofs and
    #: unknown runs may have none).
    masks: Optional[Dict[int, int]] = None
    full = 0
    derived: Dict[int, Tuple[bool, Tuple[int, ...]]] = {}
    steps = 0
    saw_header = False
    conclusion: Optional[Dict[str, object]] = None

    def fetch(step_id, kind_is_cube: bool, where: str) -> Tuple[int, ...]:
        entry = derived.get(step_id)
        if entry is None:
            raise _Reject("%s: unknown antecedent id %r" % (where, step_id))
        is_cube, lits = entry
        if is_cube != kind_is_cube:
            raise _Reject("%s: antecedent %r has the wrong kind" % (where, step_id))
        return lits

    def record(step_id, is_cube: bool, lits: Tuple[int, ...], where: str) -> None:
        if not isinstance(step_id, int):
            raise _Reject("%s: step id %r is not an integer" % (where, step_id))
        if step_id in derived:
            raise _Reject("%s: step id %d reused" % (where, step_id))
        derived[step_id] = (is_cube, lits)

    try:
        for step in read_certificate(source):
            steps += 1
            if not isinstance(step, dict):
                raise _Reject("step %d is not an object" % steps)
            t = step.get("type")
            where = "step %d (%s)" % (steps, t)
            if steps == 1:
                if t != HEADER:
                    raise _Reject("certificate does not start with a header")
                if step.get("format") != CERT_FORMAT:
                    raise _Reject("unknown certificate format %r" % (step.get("format"),))
                if step.get("version") != CERT_VERSION:
                    raise _Reject(
                        "unsupported certificate version %r" % (step.get("version"),)
                    )
                saw_header = True
                continue
            if conclusion is not None:
                raise _Reject("%s: step after the conclusion" % where)
            if t == INPUT_CLAUSE:
                index = step.get("clause")
                if not isinstance(index, int) or not (0 <= index < len(formula.clauses)):
                    raise _Reject("%s: bad matrix clause index %r" % (where, index))
                lits = _canon(step.get("lits", ()))
                original = _canon(formula.clauses[index].lits)
                _check_legal_reduction(original, lits, scopes, False, where)
                record(step.get("id"), False, lits, where)
            elif t == INITIAL_CUBE:
                lits = _canon(step.get("lits", ()))
                if masks is None:
                    masks, full = _clause_masks(formula, scopes)
                _check_initial_cube(lits, scopes, masks, full, where)
                record(step.get("id"), True, lits, where)
            elif t == RESOLUTION:
                is_cube = step.get("kind") == KIND_CUBE
                ant = step.get("ant")
                if not isinstance(ant, list) or len(ant) != 2:
                    raise _Reject("%s: resolution needs two antecedents" % where)
                a = fetch(ant[0], is_cube, where)
                b = fetch(ant[1], is_cube, where)
                pivot = step.get("pivot")
                if not isinstance(pivot, int):
                    raise _Reject("%s: bad pivot %r" % (where, pivot))
                resolvent = _resolve_checked(a, b, pivot, scopes, is_cube, where)
                lits = _canon(step.get("lits", ()))
                _check_legal_reduction(resolvent, lits, scopes, is_cube, where)
                record(step.get("id"), is_cube, lits, where)
            elif t == REDUCTION:
                is_cube = step.get("kind") == KIND_CUBE
                ant = step.get("ant")
                if not isinstance(ant, list) or len(ant) != 1:
                    raise _Reject("%s: reduction needs one antecedent" % where)
                before = fetch(ant[0], is_cube, where)
                lits = _canon(step.get("lits", ()))
                _check_legal_reduction(before, lits, scopes, is_cube, where)
                record(step.get("id"), is_cube, lits, where)
            elif t == CONCLUSION:
                conclusion = step
            else:
                raise _Reject("%s: unknown step type" % where)
    except _Reject as exc:
        return CheckReport(INVALID, None, steps, str(exc))
    except (TypeError, ValueError, KeyError) as exc:
        return CheckReport(INVALID, None, steps, "malformed certificate: %s" % (exc,))

    if not saw_header:
        return CheckReport(INVALID, None, steps, "empty certificate")
    if conclusion is None:
        return CheckReport(INCOMPLETE, None, steps, "no conclusion step")

    outcome = conclusion.get("outcome")
    if outcome == "unknown":
        return CheckReport(UNKNOWN, "unknown", steps)
    if outcome not in ("true", "false"):
        return CheckReport(INVALID, None, steps, "bad conclusion outcome %r" % (outcome,))
    final = conclusion.get("final")
    if final is None or not conclusion.get("complete", False):
        return CheckReport(
            INCOMPLETE,
            outcome,
            steps,
            conclusion.get("reason") or "conclusion not backed by a derivation",
        )
    entry = derived.get(final)
    if entry is None:
        return CheckReport(INVALID, outcome, steps, "conclusion names unknown step %r" % final)
    is_cube, lits = entry
    want_cube = outcome == "true"
    if is_cube != want_cube:
        return CheckReport(
            INVALID,
            outcome,
            steps,
            "conclusion kind mismatch: outcome %s needs a %s"
            % (outcome, "cube" if want_cube else "clause"),
        )
    if lits != ():
        return CheckReport(
            INVALID,
            outcome,
            steps,
            "final %s is not empty: %s" % ("cube" if is_cube else "clause", list(lits)),
        )
    return CheckReport(VERIFIED, outcome, steps)
