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

The certificate source is streamed; the checker keeps only the id ->
literals map needed to resolve antecedent references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from repro.certify.store import (
    CERT_FORMAT,
    CERT_VERSION,
    CONCLUSION,
    HEADER,
    INITIAL_CUBE,
    INPUT_CLAUSE,
    KIND_CLAUSE,
    KIND_CUBE,
    REDUCTION,
    RESOLUTION,
    CertificateSource,
    read_certificate,
)
from repro.core.formula import QBF
from repro.core.literals import EXISTS, FORALL, var_of

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
    return tuple(sorted(set(int(l) for l in lits), key=lambda l: (var_of(l), l)))


def _check_legal_reduction(
    before: Sequence[int], after: Sequence[int], prefix, is_cube: bool, where: str
) -> None:
    """Verify ``after`` arises from ``before`` by deleting only reducible
    literals under the prefix's partial order (Lemma 3 / its dual).

    Existential reduction lets an existential literal leave a cube iff it
    precedes no universal literal of the cube (universals are never
    deletable); universal reduction lets a universal literal leave a clause
    iff it precedes no existential literal of the clause. ``≺`` depends
    only on the blocks involved, so the anchors are deduplicated by block,
    and once a dropped literal is found legal, the rest of its block is too.
    """
    before_set = set(before)
    after_set = set(after)
    extra = after_set - before_set
    if extra:
        raise _Reject("%s: reduction invents literals %s" % (where, sorted(extra)))
    dropped = before_set - after_set
    if not dropped:
        return
    if is_cube:
        deletable, kept_kind, drop_kind, shape = EXISTS, "universal", "existential", "cube"
    else:
        deletable, kept_kind, drop_kind, shape = FORALL, "existential", "universal", "clause"
    block_of = prefix.block_of
    anchors: Dict[object, int] = {}
    for l in before:
        block = block_of(var_of(l))
        if block.quant is not deletable and block not in anchors:
            anchors[block] = l
    legal: Set[object] = set()
    for l in dropped:
        block = block_of(var_of(l))
        if block.quant is not deletable:
            raise _Reject(
                "%s: reduction deleted %s %d from a %s" % (where, kept_kind, l, shape)
            )
        if block in legal:
            continue
        if any(prefix.prec(l, a) for a in anchors.values()):
            raise _Reject(
                "%s: %s %d is blocked by a deeper %s" % (where, drop_kind, l, kept_kind)
            )
        legal.add(block)


def _resolve_checked(
    a: Sequence[int], b: Sequence[int], pivot: int, prefix, is_cube: bool, where: str
) -> Tuple[int, ...]:
    """Verify and perform one resolution step; returns the raw resolvent."""
    if pivot not in prefix:
        raise _Reject("%s: pivot %d is not a bound variable" % (where, pivot))
    if is_cube:
        if not prefix.is_universal(pivot):
            raise _Reject("%s: cube resolution pivot %d is not universal" % (where, pivot))
    else:
        if not prefix.is_existential(pivot):
            raise _Reject(
                "%s: clause resolution pivot %d is not existential" % (where, pivot)
            )
    a_signs = {l for l in a if var_of(l) == pivot}
    b_signs = {l for l in b if var_of(l) == pivot}
    if len(a_signs) != 1 or len(b_signs) != 1 or a_signs == b_signs:
        raise _Reject(
            "%s: pivot %d does not occur with opposite signs in the antecedents"
            % (where, pivot)
        )
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


def _check_initial_cube(lits: Sequence[int], formula: QBF, where: str) -> None:
    """Term axiom rule: a consistent implicant of the whole matrix."""
    prefix = formula.prefix
    seen: Dict[int, int] = {}
    for l in lits:
        v = var_of(l)
        if v not in prefix:
            raise _Reject("%s: literal %d is not bound by the prefix" % (where, l))
        if seen.get(v, l) != l:
            raise _Reject("%s: contradictory literals on variable %d" % (where, v))
        seen[v] = l
    cube = set(lits)
    for index, clause in enumerate(formula.clauses):
        if cube.isdisjoint(clause.lits):
            raise _Reject(
                "%s: matrix clause %d is not satisfied by the cube" % (where, index)
            )


def check_certificate(formula: QBF, source: CertificateSource) -> CheckReport:
    """Replay ``source`` against ``formula`` and report the verdict.

    Never raises on malformed certificates — every defect is reported as an
    ``invalid`` :class:`CheckReport` with the offending step in ``error``.
    """
    prefix = formula.prefix
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
                _check_legal_reduction(original, lits, prefix, False, where)
                record(step.get("id"), False, lits, where)
            elif t == INITIAL_CUBE:
                lits = _canon(step.get("lits", ()))
                _check_initial_cube(lits, formula, where)
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
                resolvent = _resolve_checked(a, b, pivot, prefix, is_cube, where)
                lits = _canon(step.get("lits", ()))
                _check_legal_reduction(resolvent, lits, prefix, is_cube, where)
                record(step.get("id"), is_cube, lits, where)
            elif t == REDUCTION:
                is_cube = step.get("kind") == KIND_CUBE
                ant = step.get("ant")
                if not isinstance(ant, list) or len(ant) != 1:
                    raise _Reject("%s: reduction needs one antecedent" % where)
                before = fetch(ant[0], is_cube, where)
                lits = _canon(step.get("lits", ()))
                _check_legal_reduction(before, lits, prefix, is_cube, where)
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
