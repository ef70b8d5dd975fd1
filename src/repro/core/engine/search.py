"""The search layer: decide, backjump, learn — over the backend interface.

:class:`SearchEngine` owns the trail, the branching heuristic state and the
statistics, and talks to the matrix exclusively through a
:class:`~repro.core.engine.backend.PropagationBackend`. It implements the
outer QDPLL loop (propagate → decide / analyze → backjump or flip), the
budget accounting and the certificate hooks; everything it knows about
clauses and cubes arrives as opaque records from the backend.
"""

from __future__ import annotations

import time
import warnings
from typing import Callable, List, Optional, Tuple

from repro.core.constraints import Constraint
from repro.core.engine.backend import CONFLICT, PropagationBackend, Rec
from repro.core.engine.config import SolverConfig
from repro.core.engine.counters import CounterBackend
from repro.core.engine.native import (
    NativeBackend,
    NativeFallbackWarning,
    NativeUnavailableError,
    native_available,
    native_import_error,
)
from repro.core.engine.trail import Trail
from repro.core.formula import QBF
from repro.core.heuristics import ScoreKeeper, make_picker
from repro.core.learning import (
    AnalysisOutcome,
    Backjump,
    Terminal,
    TrailView,
    analyze_conflict,
    analyze_solution,
    build_model_cube,
)
from repro.core.literals import EXISTS, FORALL
from repro.core.result import Outcome, SolveResult, SolverStats

#: name → class, the registry behind ``SolverConfig.engine``.
BACKENDS = {
    CounterBackend.name: CounterBackend,
    NativeBackend.name: NativeBackend,
}


def resolve_backend(config: SolverConfig, stats: SolverStats) -> type:
    """Map ``config.engine`` to a backend class, with the native fallback.

    ``native`` on a build without the compiled kernel degrades to the
    counter backend it ports — recorded in ``stats.engine_fallback`` and
    announced with a :class:`NativeFallbackWarning`, so no run ever changes
    engines silently. With ``config.require_native`` (or
    ``REPRO_REQUIRE_NATIVE=1``) the degradation becomes a structured
    :class:`~repro.core.engine.native.NativeUnavailableError` instead.
    """
    cls = BACKENDS[config.engine]
    if cls is NativeBackend and not native_available():
        reason = native_import_error() or "unknown import error"
        if config.require_native:
            raise NativeUnavailableError(reason)
        warnings.warn(
            "engine 'native' requested but the compiled kernel is "
            "unavailable (%s); falling back to the pure-Python counters "
            "backend. Build it with `python setup.py build_ext --inplace`, "
            "or set REPRO_REQUIRE_NATIVE=1 to make this an error." % reason,
            NativeFallbackWarning,
            stacklevel=3,
        )
        stats.engine_fallback = CounterBackend.name
        return CounterBackend
    return cls


def _reason_reader(reason: List[object]) -> Callable[[int], Optional[Constraint]]:
    """The analyses' ``reason_of`` over a trail's reason list: the
    constraint behind a variable's reason record, None for decisions and
    pure literals."""

    def reason_of(var: int) -> Optional[Constraint]:
        r = reason[var]
        return r.constraint if isinstance(r, Rec) else None

    return reason_of


class SearchEngine:
    """One solving session over a fixed QBF. Use :func:`solve` for one-shots.

    ``proof`` optionally attaches a :class:`repro.certify.proof.ProofLogger`
    that records the run's implicit clause/term resolution derivation as a
    machine-checkable certificate. Logging is passive — decisions,
    assignments and learned constraints are identical with and without it —
    and with ``proof=None`` every hook short-circuits on an ``is None``
    test, so the disabled cost is zero.
    """

    #: test hook: a PropagationBackend subclass pinned by a test; when set,
    #: it wins over the ``config.engine`` registry lookup.
    backend_override: Optional[type] = None

    def __init__(
        self,
        formula: QBF,
        config: Optional[SolverConfig] = None,
        proof: Optional[object] = None,
        interrupt: Optional[object] = None,
    ):
        self.formula = formula
        self.config = config or SolverConfig()
        self._proof = proof
        #: cooperative preemption: an object with ``is_set()`` (or a bare
        #: callable) polled at the budget-check sites; see
        #: :mod:`repro.robustness.interrupt`.
        self._interrupt = interrupt
        self.interrupted = False
        self.prefix = formula.prefix
        self.stats = SolverStats()
        nv = max(self.prefix.variables, default=0)
        self.trail = Trail(nv, prefix=self.prefix, paranoid=self.config.paranoid)
        self._lit_value = self.trail.lit_value
        self._keeper = ScoreKeeper(self.prefix)
        backend_cls = self.backend_override or resolve_backend(self.config, self.stats)
        self.backend: PropagationBackend = backend_cls(
            formula, self.prefix, self.config, self.stats, self.trail, self._keeper
        )
        # The branching closure is built once here (not per decision): a
        # fused frontier scan + ranking over the trail, compiled when the
        # backend carries one.
        self._frontier_pick = self.backend.accelerated_frontier_picker(
            self.config.policy, self._keeper, self.trail
        ) or make_picker(self.config.policy, self._keeper, self.trail)
        if self._proof is not None:
            self._proof.register_formula(formula)
        # Every callable below reads the trail, never the engine, so an
        # engine holds no reference to itself and is freed as soon as it is
        # dropped.
        self._view = TrailView(
            value=self._lit_value,
            level_of=self.trail.level.__getitem__,
            pos_of=self.trail.pos.__getitem__,
            reason_of=_reason_reader(self.trail.reason),
            prefix=self.prefix,
            reduce_clause=self.backend.reduce_clause_fast,
            reduce_cube=self.backend.reduce_cube_fast,
        )
        self._deadline: Optional[float] = None

    # -- trail accessors -------------------------------------------------------

    @property
    def current_level(self) -> int:
        return self.trail.current_level

    # -- decisions ----------------------------------------------------------------

    def _available_vars(self) -> List[int]:
        """Unassigned variables whose ``≺`` predecessors are all assigned.

        A variable is *top* in the current subproblem iff no unassigned
        variable of a strictly lower alternation level sits above it in the
        tree. The walk carries two flags: pending variables in ancestors of
        strictly lower level (blocks them) and pending variables in
        ancestors of the same level (blocks only deeper levels).

        This is the *reference* computation: ``_decide`` scans the trail's
        incrementally maintained frontier (``Trail.available_vars`` lists
        it), which must hold exactly these variables, in this order — a
        contract enforced by the frontier property tests.
        """
        out: List[int] = []
        value = self.trail.value

        def visit(block, pending_lt: bool, pending_eq: bool) -> None:
            pending_here = False
            for v in block.variables:
                if value[v] == 0:
                    pending_here = True
                    if not pending_lt:
                        out.append(v)
            for child in block.children:
                if child.level == block.level:
                    visit(child, pending_lt, pending_eq or pending_here)
                else:
                    visit(child, pending_lt or pending_eq or pending_here, False)

        visit(self.prefix.root, False, False)
        return out

    def _decide(self) -> bool:
        """Branch on a heuristic literal; False when no variable remains."""
        lit = self._frontier_pick()
        if lit is None:
            return False
        self.stats.decisions += 1
        self.trail.open_level(lit, flipped=False)
        self.backend.assign(lit, None)
        return True

    def _flip_chronological(self, want: object) -> bool:
        """Chronological fallback: flip the deepest unflipped ``want`` decision.

        ``want`` is EXISTS after a conflict and FORALL after a solution.
        Returns False when no such decision exists (search exhausted).
        """
        self.stats.chrono_backtracks += 1
        for lvl in range(self.current_level, 0, -1):
            lit, flipped = self.trail.decision[lvl]
            if not flipped and self.prefix.quant(lit) is want:
                self.backend.backtrack(lvl - 1)
                self.trail.open_level(-lit, flipped=True)
                self.backend.assign(-lit, None)
                return True
        return False

    # -- main loop ---------------------------------------------------------------------

    def solve(self) -> SolveResult:
        """Run the search to completion, budget exhaustion, or interruption."""
        start = time.monotonic()
        if self.config.max_seconds is not None:
            self._deadline = start + self.config.max_seconds
        outcome = self._run()
        seconds = time.monotonic() - start
        if self._proof is not None and not self._proof.concluded:
            # A verdict that never passed through a Terminal analysis:
            # budget exhaustion, or search exhausted by chronological flips
            # alone. Conclude honestly with no backing derivation.
            if outcome is Outcome.UNKNOWN:
                reason = "interrupted" if self.interrupted else "budget exhausted"
            else:
                reason = "verdict reached by chronological exhaustion"
            self._proof.conclude(outcome.value, None, reason=reason)
        return SolveResult(outcome, self.stats, seconds, interrupted=self.interrupted)

    def _interrupt_requested(self) -> bool:
        flag = self._interrupt
        if flag is None:
            return False
        check = getattr(flag, "is_set", None)
        return bool(check() if check is not None else flag())

    def _should_stop(self) -> bool:
        """Budget *or* preemption — polled only at quiescent points, so an
        UNKNOWN exit always leaves consistent stats behind."""
        if self._interrupt_requested():
            self.interrupted = True
            return True
        return self._budget_exhausted()

    def _budget_exhausted(self) -> bool:
        cfg = self.config
        if cfg.max_decisions is not None:
            if self.stats.decisions >= cfg.max_decisions:
                return True
            # Safety net: backjump/propagation loops that make no decisions
            # still burn backtracks; bound them by a generous multiple so a
            # budgeted run can never spin forever.
            if self.stats.backtracks >= 32 * cfg.max_decisions + 1024:
                return True
        if self._deadline is not None and time.monotonic() > self._deadline:
            return True
        return False

    def _run(self) -> Outcome:
        backend = self.backend
        if backend.trivially_false:
            if self._proof is not None:
                # register_formula logged the clause whose reduction is
                # empty; it is the whole refutation.
                self._proof.conclude("false", self._proof.lookup(False, ()))
            return Outcome.FALSE
        if not backend.orig_clauses:
            if self._proof is not None:
                # Empty matrix: the empty cube vacuously satisfies it.
                self._proof.conclude("true", self._proof.initial_cube(()))
            return Outcome.TRUE
        while True:
            event = backend.propagate()
            if event is None:
                if self._should_stop():
                    return Outcome.UNKNOWN
                if not self._decide():
                    # Every variable assigned without conflict: all clauses
                    # are satisfied, which propagate reports as a model.
                    raise AssertionError("decision requested with no variables left")
                continue
            kind, payload = event
            if kind == CONFLICT:
                self.stats.conflicts += 1
                verdict = self._handle_conflict(payload)
            else:
                self.stats.solutions += 1
                verdict = self._handle_solution(payload)
            if verdict is not None:
                return verdict
            if self._should_stop():
                return Outcome.UNKNOWN

    # -- analysis plumbing ----------------------------------------------------------

    def _bind_learned(self, trace: Optional[object], is_cube: bool, lits: Tuple[int, ...]) -> None:
        """Name a learned constraint after its derivation's final step."""
        if trace is None or not trace.ok:
            return
        if trace.cur_lits == lits:
            self._proof.bind(is_cube, lits, trace.cur_id)
        else:  # pragma: no cover - trace desync would be a logger bug
            trace.fail("learned constraint does not match its derivation")

    def _handle_conflict(self, rec: Rec) -> Optional[Outcome]:
        if not self.config.learn_clauses:
            return self._settle(False, None, None)
        trace = None
        if self._proof is not None:
            trace = self._proof.begin_clause(rec.lits)
        return self._settle(False, analyze_conflict(rec.lits, self._view, trace), trace)

    def _handle_solution(self, rec: Optional[Rec]) -> Optional[Outcome]:
        # the model cube before existential reduction: a certificate's
        # initial cube
        initial: Tuple[int, ...] = ()
        if rec is not None:
            cube_lits: Tuple[int, ...] = rec.lits
        elif self.backend.native_model_cube is not None:
            cube_lits = initial = self.backend.native_model_cube()
        else:
            # Reduced already; the chosen set it came from is sorted into
            # the initial cube only when a certificate needs it.
            cube_lits = build_model_cube(self.backend.orig_clauses, self._view)
            if self._proof is not None:
                initial = tuple(sorted(self._view.model_set, key=abs))
        if not self.config.learn_cubes:
            return self._settle(True, None, None)
        trace = None
        if self._proof is not None:
            if rec is not None:
                trace = self._proof.begin_cube(cube_lits)
            else:
                trace = self._proof.begin_initial_cube(initial)
        return self._settle(True, analyze_solution(cube_lits, self._view, trace), trace)

    def _settle(
        self, is_cube: bool, outcome: Optional[AnalysisOutcome], trace: Optional[object]
    ) -> Optional[Outcome]:
        """The shared tail of a conflict (clauses) or a solution (cubes).

        A Terminal analysis concludes the search: FALSE after a conflict,
        TRUE after a solution. A Backjump backtracks, learns its constraint
        and asserts it: the existential literal of a clause, the negation
        of the universal literal of a cube. Anything else (a Fallback, or
        learning switched off) flips the deepest unflipped decision of the
        side that lost: existential after a conflict, universal after a
        solution. Returns the verdict, or None to search on.
        """
        verdict = Outcome.TRUE if is_cube else Outcome.FALSE
        if isinstance(outcome, Terminal):
            if self._proof is not None:
                self._proof.conclude(verdict.value, trace.final_id)
            return verdict
        if isinstance(outcome, Backjump):
            self.stats.backjumps += 1
            self.backend.backtrack(outcome.level)
            if is_cube:
                learned = self.backend.add_learned_cube(outcome.lits)
                lit = -outcome.assert_lit
            else:
                learned = self.backend.add_learned_clause(outcome.lits)
                lit = outcome.assert_lit
            self._bind_learned(trace, is_cube, outcome.lits)
            if self._lit_value(lit) is None:
                self.stats.propagations += 1
                self.backend.assign(lit, learned)
            return None
        if not self._flip_chronological(FORALL if is_cube else EXISTS):
            return verdict
        return None
