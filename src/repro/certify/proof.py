"""Proof logging: record the solver's implicit clause/term resolution proof.

Q-DLL with learning implicitly constructs a clause-resolution refutation when
the QBF is FALSE and a term(cube)-resolution confirmation when it is TRUE
(Giunchiglia, Narizzano, Tacchella — *Clause/Term Resolution and Learning in
the Evaluation of Quantified Boolean Formulas*). The :class:`ProofLogger`
makes that proof explicit: it is handed to :class:`repro.core.solver.
QdpllSolver` and receives, as they happen,

* the (reduced) input clauses installed from the matrix,
* every initial cube built from a model of the matrix,
* every resolution/reduction step of every conflict and solution analysis
  (via :class:`DerivationTrace` objects threaded through
  :mod:`repro.core.learning`), and
* the final conclusion.

Logging is strictly passive: it never changes a decision, an assignment or a
learned constraint, so a run with a logger attached is decision-for-decision
identical to the same run without one. With ``proof=None`` (the default) the
solver skips every hook, so the disabled cost is a handful of ``is None``
tests.

A certificate is *complete* when the conclusion is backed by a resolution
derivation of the empty constraint. Two engine behaviours cannot be backed
that way and mark the certificate incomplete instead of lying: a verdict
reached by exhausting chronological backtracking (no Terminal analysis ever
fired), and terminal derivations that run into a literal whose reason is not
a constraint (a pure-literal assignment — the monotone rule has no
counterpart in the resolution calculi). Running the engine with
``pure_literals=False`` and learning enabled avoids both in practice; the
logger records honestly either way.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.certify.store import (
    CONCLUSION,
    INITIAL_CUBE,
    INPUT_CLAUSE,
    KIND_CLAUSE,
    KIND_CUBE,
    REDUCTION,
    RESOLUTION,
    header_step,
)
from repro.core.constraints import universal_reduce

#: map keys are (is_cube, lits) pairs.
_Key = Tuple[bool, Tuple[int, ...]]


class ProofLogger:
    """Accumulates one run's derivation steps into a step sink.

    The sink needs a single ``emit(dict)`` method —
    :class:`repro.certify.store.MemorySink` or
    :class:`repro.certify.store.JsonlSink`.
    """

    def __init__(self, sink):
        self._sink = sink
        self._next_id = 1
        self._ids: Dict[_Key, int] = {}
        self.complete = True
        self.incomplete_reason: Optional[str] = None
        self.concluded = False
        self.outcome: Optional[str] = None
        self._emit(header_step())

    # -- plumbing ----------------------------------------------------------

    def _emit(self, step: Dict[str, object]) -> None:
        self._sink.emit(step)

    def _fresh(self) -> int:
        out = self._next_id
        self._next_id += 1
        return out

    def mark_incomplete(self, reason: str) -> None:
        """Record the first cause that keeps this proof from closing."""
        if self.complete:
            self.complete = False
            self.incomplete_reason = reason

    def lookup(self, is_cube: bool, lits: Tuple[int, ...]) -> Optional[int]:
        return self._ids.get((is_cube, lits))

    def bind(self, is_cube: bool, lits: Tuple[int, ...], step_id: int) -> None:
        """Name a derived constraint so later analyses can reference it.

        First binding wins: the engine dedups learned constraints by
        literals, so a second derivation of the same constraint is simply a
        second proof of an already-named fact.
        """
        self._ids.setdefault((is_cube, lits), step_id)

    # -- axioms ------------------------------------------------------------

    def register_formula(self, formula) -> None:
        """Emit one input step per distinct reduced matrix clause.

        Mirrors the engine's install-time universal reduction so the ids
        handed out here are exactly the constraints the engine resolves
        with. Emitted eagerly: input steps are cheap, and a TRUE proof's
        checker walks the whole matrix anyway.
        """
        prefix = formula.prefix
        for index, clause in enumerate(formula.clauses):
            reduced = universal_reduce(clause.lits, prefix)
            if (False, reduced) in self._ids:
                continue
            step_id = self._fresh()
            self._ids[(False, reduced)] = step_id
            self._emit(
                {
                    "type": INPUT_CLAUSE,
                    "id": step_id,
                    "clause": index,
                    "lits": list(reduced),
                }
            )

    def initial_cube(self, lits: Tuple[int, ...]) -> int:
        """An initial cube (model of the matrix); dedups repeats."""
        known = self._ids.get((True, lits))
        if known is not None:
            return known
        step_id = self._fresh()
        self._ids[(True, lits)] = step_id
        self._emit({"type": INITIAL_CUBE, "id": step_id, "lits": list(lits)})
        return step_id

    # -- derivation steps --------------------------------------------------

    def emit_resolution(
        self,
        is_cube: bool,
        a_id: int,
        b_id: int,
        pivot: int,
        lits: Tuple[int, ...],
    ) -> int:
        step_id = self._fresh()
        self._emit(
            {
                "type": RESOLUTION,
                "id": step_id,
                "kind": KIND_CUBE if is_cube else KIND_CLAUSE,
                "ant": [a_id, b_id],
                "pivot": pivot,
                "lits": list(lits),
            }
        )
        return step_id

    def emit_reduction(self, is_cube: bool, a_id: int, lits: Tuple[int, ...]) -> int:
        step_id = self._fresh()
        self._emit(
            {
                "type": REDUCTION,
                "id": step_id,
                "kind": KIND_CUBE if is_cube else KIND_CLAUSE,
                "ant": [a_id],
                "lits": list(lits),
            }
        )
        return step_id

    # -- traces ------------------------------------------------------------

    def begin_clause(self, lits: Tuple[int, ...]) -> Optional["DerivationTrace"]:
        """Start tracing a conflict analysis from a database clause."""
        return self._begin(False, lits)

    def begin_cube(self, lits: Tuple[int, ...]) -> Optional["DerivationTrace"]:
        """Start tracing a solution analysis from a database cube."""
        return self._begin(True, lits)

    def begin_initial_cube(self, lits: Tuple[int, ...]) -> "DerivationTrace":
        """Start tracing a solution analysis from a fresh model cube."""
        return DerivationTrace(self, True, self.initial_cube(lits), lits)

    def _begin(self, is_cube: bool, lits: Tuple[int, ...]) -> Optional["DerivationTrace"]:
        start = self.lookup(is_cube, lits)
        if start is None:
            # The starting constraint was never derived on record — give up
            # on completeness for this run rather than fabricate an axiom.
            self.mark_incomplete(
                "analysis started from an unrecorded %s"
                % (KIND_CUBE if is_cube else KIND_CLAUSE,)
            )
            return None
        return DerivationTrace(self, is_cube, start, lits)

    # -- conclusion --------------------------------------------------------

    def conclude(
        self,
        outcome: str,
        final_id: Optional[int],
        reason: Optional[str] = None,
    ) -> None:
        """Write the conclusion step; only the first call counts."""
        if self.concluded:
            return
        self.concluded = True
        self.outcome = outcome
        if final_id is None and outcome in ("true", "false"):
            self.mark_incomplete(reason or "no terminal derivation recorded")
        if reason is not None and self.incomplete_reason is None and final_id is None:
            self.incomplete_reason = reason
        self._emit(
            {
                "type": CONCLUSION,
                "outcome": outcome,
                "final": final_id,
                "complete": self.complete and final_id is not None,
                "reason": self.incomplete_reason if not self.complete else None,
            }
        )


class DerivationTrace:
    """The working constraint of one analysis, mirrored step by step.

    :mod:`repro.core.learning` drives it: ``reduced`` after every standalone
    reduction and ``resolved`` after every resolve-then-reduce; the trace
    emits matching certificate steps and tracks the current step id, which
    becomes the learned constraint's name (on Backjump) or the conclusion's
    ``final`` id (on Terminal, once the terminal derivation reaches the
    empty constraint).
    """

    __slots__ = ("logger", "is_cube", "cur_id", "cur_lits", "ok")

    def __init__(
        self,
        logger: ProofLogger,
        is_cube: bool,
        start_id: int,
        start_lits: Tuple[int, ...],
    ):
        self.logger = logger
        self.is_cube = is_cube
        self.cur_id = start_id
        self.cur_lits = tuple(start_lits)
        self.ok = True

    def reduced(self, lits: Tuple[int, ...]) -> None:
        """The working constraint was reduced (no-op reductions are elided)."""
        if not self.ok or lits == self.cur_lits:
            return
        self.cur_id = self.logger.emit_reduction(self.is_cube, self.cur_id, lits)
        self.cur_lits = tuple(lits)

    def resolved(
        self, reason_lits: Tuple[int, ...], pivot: int, lits: Tuple[int, ...]
    ) -> None:
        """The working constraint was resolved with a database constraint."""
        if not self.ok:
            return
        other = self.logger.lookup(self.is_cube, tuple(reason_lits))
        if other is None:
            self.fail("resolution against an unrecorded reason constraint")
            return
        self.cur_id = self.logger.emit_resolution(
            self.is_cube, self.cur_id, other, pivot, lits
        )
        self.cur_lits = tuple(lits)

    def fail(self, reason: str) -> None:
        """This derivation cannot be finished on record; poison the proof."""
        self.ok = False
        self.logger.mark_incomplete(reason)

    @property
    def final_id(self) -> Optional[int]:
        """The empty-constraint step id, if this trace derived one."""
        if self.ok and self.cur_lits == ():
            return self.cur_id
        return None
