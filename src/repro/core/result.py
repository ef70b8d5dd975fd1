"""Solver outcome and statistics containers shared by all engines."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class BudgetExceeded(RuntimeError):
    """Raised internally when a solver exhausts its decision budget."""

    def __init__(self, spent: int):
        super().__init__("budget exceeded after %d decisions" % spent)
        self.spent = spent


class UnknownOutcomeError(ValueError):
    """An UNKNOWN outcome was asked for its truth value.

    Subclasses :class:`ValueError` so existing ``except ValueError`` guards
    keep working. ``spent`` carries the decisions consumed before the budget
    ran out (``None`` when the converter has no stats in hand), so batch
    callers can report the censored cost without re-deriving it.
    """

    def __init__(self, spent: Optional[int] = None):
        detail = "" if spent is None else " (budget exhausted after %d decisions)" % spent
        super().__init__("UNKNOWN outcome has no truth value" + detail)
        self.spent = spent


class Outcome(enum.Enum):
    """Verdict of a solver run."""

    TRUE = "true"
    FALSE = "false"
    #: Budget (decision or wall-clock) exhausted — the paper's "timeout".
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        if self is Outcome.UNKNOWN:
            raise UnknownOutcomeError()
        return self is Outcome.TRUE


@dataclass
class SolverStats:
    """Work counters of one :class:`~repro.core.solver.QdpllSolver` run.

    ``decisions`` is the primary cost metric of the reproduction (the
    platform-independent stand-in for the paper's CPU seconds); the rest
    supports the ablations and the learning analyses.
    """

    decisions: int = 0
    propagations: int = 0
    pure_literals: int = 0
    conflicts: int = 0
    solutions: int = 0
    learned_clauses: int = 0
    learned_cubes: int = 0
    learned_clause_lits: int = 0
    learned_cube_lits: int = 0
    backjumps: int = 0
    chrono_backtracks: int = 0
    max_trail: int = 0
    #: propagation-layer observability (engine-dependent by design, unlike
    #: the counters above, which every backend must reproduce exactly):
    #: full constraint-body scans during propagation.
    clause_visits: int = 0
    cube_visits: int = 0
    #: engine-selection notice: the backend actually used when the requested
    #: one was unavailable (``"counters"`` after ``engine="native"`` on a
    #: build without the compiled kernel), else "". Never set silently —
    #: selection also emits a NativeFallbackWarning. Engine metadata, not a
    #: work counter: excluded from cross-backend stat comparisons.
    engine_fallback: str = ""

    @property
    def backtracks(self) -> int:
        return self.conflicts + self.solutions


@dataclass
class SolveResult:
    """Outcome + cost of a solver run.

    ``interrupted`` distinguishes a cooperative preemption (SIGTERM/SIGINT
    via an interrupt flag) from an exhausted budget — both report
    ``Outcome.UNKNOWN`` with the stats spent so far.
    """

    outcome: Outcome
    stats: SolverStats = field(default_factory=SolverStats)
    seconds: float = 0.0
    interrupted: bool = False

    @property
    def timed_out(self) -> bool:
        return self.outcome is Outcome.UNKNOWN

    @property
    def value(self) -> bool:
        """Truth value; raises :class:`UnknownOutcomeError` on UNKNOWN."""
        if self.outcome is Outcome.UNKNOWN:
            raise UnknownOutcomeError(self.stats.decisions)
        return self.outcome is Outcome.TRUE

    def __repr__(self) -> str:
        return "SolveResult(%s, decisions=%d, %.3fs)" % (
            self.outcome.value,
            self.stats.decisions,
            self.seconds,
        )
