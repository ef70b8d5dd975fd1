"""Budgeted TO-vs-PO solver runs — the reproduction's measurement layer.

The paper measures CPU seconds on 3.2 GHz Pentium-IV machines with 600 s
(DIA: 3600 s) timeouts. A pure-Python solver is orders of magnitude slower
and noisier, so the harness measures *decisions* (branching literals
assigned), the platform-independent search-effort metric, with a per-run
decision budget standing in for the timeout. Wall-clock seconds are still
recorded for reference.

``solve_to`` prenexes with a chosen strategy before solving (QUBE(TO)'s
input pipeline), ``solve_po`` solves the quantifier tree directly
(QUBE(PO)). Both run the identical engine: the paper's point is precisely
that the prefix *representation* is the only difference.

With ``certify=True`` both runners attach a :class:`repro.certify.proof.
ProofLogger` and self-check the recorded clause/term resolution proof with
the independent checker — always against the *original* formula, so a TO
certificate (produced on the prenex form) is validated under the tree's
``d(z)/f(z)`` partial order. Certified runs use ``pure_literals=False``
(the monotone rule has no resolution counterpart), so their decision counts
are comparable only with other certified runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.formula import QBF
from repro.core.result import Outcome, SolveResult, SolverStats
from repro.core.solver import SolverConfig, solve
from repro.prenexing.strategies import prenex


@dataclass(frozen=True)
class Budget:
    """Per-run cost limits; ``decisions`` plays the role of the timeout.

    The wall-clock cap defaults to *off*: with a decision budget in force a
    cooperative ``max_seconds`` only censors runs early on slow machines and
    makes recorded decision counts machine-dependent. Pass ``seconds``
    explicitly for interactive use; batch sweeps should prefer the parallel
    harness's *hard* per-run timeout (:mod:`repro.evalx.parallel`), which
    kills the worker without biasing completed measurements.
    """

    decisions: int = 2000
    seconds: Optional[float] = None

    def to_config(self, **overrides) -> SolverConfig:
        return SolverConfig(
            max_decisions=self.decisions, max_seconds=self.seconds, **overrides
        )


@dataclass
class Measurement:
    """One solver run on one instance."""

    instance: str
    solver: str
    outcome: Outcome
    decisions: int
    seconds: float
    learned_clauses: int = 0
    learned_cubes: int = 0
    #: full work counters of the run, for JSONL persistence and post-hoc
    #: analysis; None for hand-built or legacy measurements.
    stats: Optional[SolverStats] = None
    #: independent-checker verdict of the run's certificate: one of the
    #: :mod:`repro.certify.checker` statuses, or None when the run was not
    #: certified.
    certificate_status: Optional[str] = None
    #: True when the run was preempted (SIGTERM/SIGINT) rather than ending
    #: on a verdict or its own budget; the outcome is UNKNOWN and the stats
    #: are those spent up to the preemption.
    interrupted: bool = False

    @classmethod
    def from_result(
        cls,
        instance: str,
        solver: str,
        result: SolveResult,
        certificate_status: Optional[str] = None,
    ) -> "Measurement":
        """The measurement of one finished solve."""
        stats = result.stats
        return cls(
            instance=instance,
            solver=solver,
            outcome=result.outcome,
            decisions=stats.decisions,
            seconds=result.seconds,
            learned_clauses=stats.learned_clauses,
            learned_cubes=stats.learned_cubes,
            stats=stats,
            certificate_status=certificate_status,
            interrupted=result.interrupted,
        )

    @property
    def certificate_ok(self) -> Optional[bool]:
        """False iff the checker rejected the certificate; None when uncertified.

        An honest partial proof (status ``incomplete``, e.g. a verdict that
        was reached by chronological exhaustion) and a budget-exhausted run
        (status ``unknown``) are not failures — only ``invalid`` is: the
        certificate claimed a derivation the checker refuted.
        """
        if self.certificate_status is None:
            return None
        from repro.certify.checker import INVALID

        return self.certificate_status != INVALID

    @property
    def timed_out(self) -> bool:
        return self.outcome is Outcome.UNKNOWN

    @property
    def cost(self) -> int:
        """Decisions spent; budget value when timed out (censored cost)."""
        return self.decisions


def _measure(
    instance: str,
    solver: str,
    formula: QBF,
    config: SolverConfig,
    check_formula: Optional[QBF] = None,
    interrupt: Optional[object] = None,
) -> Measurement:
    """Run once; with ``check_formula`` set, certify and self-check the run.

    ``check_formula`` is the formula the certificate is validated against —
    the *original* (possibly non-prenex) instance, which may differ from the
    ``formula`` actually solved (the TO pipeline solves the prenex form).
    ``interrupt`` is the engine's preemption hook.
    """
    certificate_status: Optional[str] = None
    if check_formula is not None:
        from repro.certify import (
            MemorySink,
            ProofLogger,
            certifying_config,
            check_certificate,
        )

        sink = MemorySink()
        result = solve(
            formula,
            certifying_config(config),
            proof=ProofLogger(sink),
            interrupt=interrupt,
        )
        certificate_status = check_certificate(check_formula, sink).status
    else:
        result = solve(formula, config, interrupt=interrupt)
    return Measurement.from_result(instance, solver, result, certificate_status)


def solve_po(
    formula: QBF,
    instance: str = "",
    budget: Budget = Budget(),
    certify: bool = False,
    interrupt: Optional[object] = None,
    **overrides,
) -> Measurement:
    """QUBE(PO): solve the (possibly non-prenex) formula directly."""
    return _measure(
        instance,
        "PO",
        formula,
        budget.to_config(**overrides),
        check_formula=formula if certify else None,
        interrupt=interrupt,
    )


def solve_to(
    formula: QBF,
    instance: str = "",
    strategy: str = "eu_au",
    budget: Budget = Budget(),
    certify: bool = False,
    interrupt: Optional[object] = None,
    **overrides,
) -> Measurement:
    """QUBE(TO): prenex with ``strategy``, then solve the total order.

    A certified TO run is checked against the *original* formula: every
    reduction legal under the prenex total order is legal under the tree's
    partial order (prenexing only extends ``≺``), so the same certificate
    validates under the stricter tree conditions.
    """
    flat = prenex(formula, strategy)
    return _measure(
        instance,
        "TO(%s)" % strategy,
        flat,
        budget.to_config(**overrides),
        check_formula=formula if certify else None,
        interrupt=interrupt,
    )


class SolverDisagreement(AssertionError):
    """Two completed runs of the same instance returned different outcomes.

    Subclasses :class:`AssertionError` for backward compatibility with
    callers that guarded ``check_agreement`` with ``except AssertionError``.
    Carries both :class:`Measurement` objects so a batch harness can record
    the disagreement as data (a first-class failure row) instead of letting
    one bad instance crash a whole sweep.

    When the runs were certified, ``winner`` is the measurement whose
    outcome is backed by an independently verified proof (None when neither
    or both certificates verified — the latter would mean the checker is
    broken, which is worth the louder triage).
    """

    def __init__(self, a: Measurement, b: Measurement, winner: Optional[Measurement] = None):
        detail = ""
        if winner is not None:
            detail = " (certificate sides with %s=%s)" % (winner.solver, winner.outcome)
        super().__init__(
            "solver disagreement on %s: %s=%s vs %s=%s%s"
            % (a.instance, a.solver, a.outcome, b.solver, b.outcome, detail)
        )
        self.a = a
        self.b = b
        self.winner = winner


def _certified_winner(a: Measurement, b: Measurement) -> Optional[Measurement]:
    """The side whose outcome a verified certificate backs, if exactly one."""
    from repro.certify.checker import VERIFIED

    a_ok = a.certificate_status == VERIFIED
    b_ok = b.certificate_status == VERIFIED
    if a_ok and not b_ok:
        return a
    if b_ok and not a_ok:
        return b
    return None


def check_agreement(a: Measurement, b: Measurement) -> None:
    """Raise :class:`SolverDisagreement` if two completed runs disagree.

    When the measurements carry certificate verdicts, the exception names
    the run whose outcome is backed by the verified proof — the harness
    records it so a disagreement row triages itself.
    """
    if a.timed_out or b.timed_out:
        return
    if a.outcome is not b.outcome:
        raise SolverDisagreement(a, b, winner=_certified_winner(a, b))
