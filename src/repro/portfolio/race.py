"""The portfolio racer: run several paradigms, keep the first verdict.

One :func:`race` call solves one instance with every entrant of the
portfolio concurrently (default: QUBE(TO) search, QUBE(PO) search, and the
expansion engine) and returns as soon as any entrant reports a determinate
TRUE/FALSE — the siblings are cancelled with the same SIGTERM → grace →
SIGKILL escalation the batch pool uses, so a cooperative entrant still
reports its partial (interrupted) measurement.

Entrants are ordinary :class:`repro.evalx.parallel.Task` objects, and a
race is one :func:`repro.evalx.parallel.run_tasks` call that stops at the
first determinate verdict. That is what makes the race fault-isolated: a
crashing paradigm loses the race instead of taking the process down.
``jobs=1`` is the deterministic degenerate case — entrants run serially
in-process, in declaration order, stopping at the first verdict — so a
portfolio result is reproducible bit-for-bit when needed.

**Disagreement triage.** When two entrants both finish and claim opposite
verdicts (possible in the race window, and forced in CI by the
``flip-verdict`` fault), the racer re-solves the instance with the
proof-capable search paradigm under ``certify=True`` and sides with the
outcome backed by a VERIFIED certificate — the same rule as
:attr:`repro.evalx.runner.SolverDisagreement.winner`. Expansion cannot log
proofs (honest capability flag), so its claims can never outvote a
verified search certificate; if certification itself fails, the race
reports UNKNOWN with the disagreement attached rather than guessing.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.formula import QBF
from repro.core.result import Outcome
from repro.evalx.parallel import (
    STATUS_CANCELLED,
    STATUS_HARD_TIMEOUT,
    Record,
    Task,
    run_tasks,
)
from repro.evalx.runner import Budget, Measurement, solve_po
from repro.evalx.suites import paradigm_overrides
from repro.robustness.faults import FaultPlan

__all__ = ["DEFAULT_ENTRANTS", "ENTRANTS", "Entrant", "PortfolioResult", "race"]


@dataclass(frozen=True)
class Entrant:
    """One lane of the portfolio: a pipeline plus a paradigm.

    ``mode`` is the evalx pipeline ("to" prenexes first, "po" solves the
    tree as-is); ``paradigm`` selects the registered solving algorithm.
    """

    name: str
    mode: str
    paradigm: str = "search"

    def task(
        self, formula: QBF, instance: str, budget: Budget, strategy: str, engine: str
    ) -> Task:
        overrides: Tuple[Tuple[str, object], ...] = paradigm_overrides(self.paradigm)
        if engine != "counters" and self.paradigm == "search":
            overrides += (("engine", engine),)
        return Task(
            instance=instance,
            solver=self.name,
            formula=formula,
            mode=self.mode,
            strategy=strategy,
            budget=budget,
            overrides=overrides,
        )


#: the standard field: partial-order search, total-order search, expansion.
ENTRANTS: Dict[str, Entrant] = {
    "TO": Entrant("TO", "to", "search"),
    "PO": Entrant("PO", "po", "search"),
    "EXP": Entrant("EXP", "po", "expansion"),
}
#: declaration order doubles as the serial-mode priority: PO first (the
#: paper's structure-aware headline procedure, and empirically the best
#: single paradigm on the fig6 families), then TO, then expansion.
DEFAULT_ENTRANTS: Tuple[str, ...] = ("PO", "TO", "EXP")


@dataclass
class PortfolioResult:
    """One race's verdict and its provenance."""

    instance: str
    outcome: Outcome
    #: entrant whose verdict stands (None when every lane came back UNKNOWN
    #: or an unresolved disagreement forced the outcome to UNKNOWN).
    winner: Optional[str]
    #: wall-clock of the whole race, cancellation included.
    seconds: float
    #: concurrency the race actually used (requested jobs clamped to the
    #: machine's cores; 1 means the deterministic serial mode ran).
    jobs: int = 1
    #: measurements that made it back, in completion order (cancelled lanes
    #: that reported an interrupted partial measurement are included).
    measurements: List[Measurement] = field(default_factory=list)
    #: lanes cancelled (or never started) once the verdict was in.
    cancelled: List[str] = field(default_factory=list)
    #: lanes that crashed, with their error text.
    errors: Dict[str, str] = field(default_factory=dict)
    #: human-readable description when determinate lanes disagreed.
    disagreement: Optional[str] = None
    #: certificate-triage verdict for a disagreement (see :func:`race`).
    triage: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        from repro.evalx.parallel import measurement_to_dict

        out: Dict[str, object] = {
            "instance": self.instance,
            "outcome": self.outcome.value,
            "winner": self.winner,
            "seconds": self.seconds,
            "jobs": self.jobs,
            "measurements": [measurement_to_dict(m) for m in self.measurements],
            "cancelled": list(self.cancelled),
        }
        if self.errors:
            out["errors"] = dict(self.errors)
        if self.disagreement is not None:
            out["disagreement"] = self.disagreement
        if self.triage is not None:
            out["triage"] = self.triage
        return out


def _apply_flip(m: Measurement, label: str, faults: Optional[FaultPlan]) -> Measurement:
    """Parent-side flip-verdict injection (UNKNOWN stays UNKNOWN)."""
    if faults is None or not faults.flips_verdict(label) or m.timed_out:
        return m
    m.outcome = Outcome.FALSE if m.outcome is Outcome.TRUE else Outcome.TRUE
    m.certificate_status = None  # a flipped verdict cannot keep its proof
    return m


def _triage(
    formula: QBF,
    instance: str,
    budget: Budget,
    engine: str,
    determinate: Sequence[Measurement],
) -> Tuple[Outcome, Optional[str], Dict[str, object]]:
    """Certificate triage of a cross-paradigm disagreement.

    Re-solves with the proof-capable search paradigm (PO pipeline, the one
    that works on the original formula) under ``certify=True`` — a 4x
    decision budget, since certifying configs disable pure literals — and
    sides with the VERIFIED certificate, exactly as
    ``SolverDisagreement.winner`` does for TO/PO sweeps. Returns
    ``(outcome, winner_label, triage_info)``; outcome is UNKNOWN when the
    certificate could not settle it.
    """
    from repro.certify.checker import VERIFIED

    certified = solve_po(
        formula,
        instance,
        budget=Budget(decisions=budget.decisions * 4, seconds=budget.seconds),
        certify=True,
        engine=engine,
    )
    info: Dict[str, object] = {
        "certified_by": "PO/search",
        "certificate_status": certified.certificate_status,
        "certified_outcome": certified.outcome.value,
    }
    if certified.timed_out or certified.certificate_status != VERIFIED:
        info["resolved"] = False
        return Outcome.UNKNOWN, None, info
    truth = certified.outcome
    info["resolved"] = True
    info["losers"] = [m.solver for m in determinate if m.outcome is not truth]
    for m in determinate:
        if m.outcome is truth:
            return truth, m.solver, info
    # No racer claimed the certified truth (e.g. every determinate lane was
    # flipped); the certified run itself stands as the winner.
    return truth, "PO(certified)", info


def race(
    formula: QBF,
    instance: str = "",
    budget: Budget = Budget(),
    jobs: int = 3,
    entrants: Sequence[str] = DEFAULT_ENTRANTS,
    strategy: str = "eu_au",
    engine: str = "counters",
    run_all: bool = False,
    faults: Optional[FaultPlan] = None,
    wall_timeout: Optional[float] = None,
    term_grace: float = 2.0,
    mem_limit_mb: Optional[float] = None,
) -> PortfolioResult:
    """Race the portfolio on one instance; first determinate verdict wins.

    Args:
        formula: the instance (prenex or tree; the TO lane prenexes it).
        jobs: requested concurrent lanes, clamped to the machine's cores:
            racing N CPU-bound lanes on fewer cores only adds timeslicing
            overhead to whichever lane would have won, so the racer never
            oversubscribes. ``1`` (requested or clamped) runs entrants
            serially in declaration order and stops at the first verdict —
            fully deterministic.
        entrants: entrant names from :data:`ENTRANTS`, or
            ``name:mode:paradigm`` triples for custom lanes.
        run_all: let every lane finish (no cancellation) and cross-check
            all verdicts — the agreement-audit mode CI's forced-
            disagreement check uses.
        faults: a :class:`FaultPlan`; ``crash``/``hang`` kinds fire in the
            workers as in batch sweeps, ``flip-verdict`` inverts the
            labeled lane's verdict on arrival (label = ``instance|name``).
        wall_timeout: hard per-lane seconds (pool mode only), with the
            usual SIGTERM → ``term_grace`` → SIGKILL escalation.
        mem_limit_mb: per-lane address-space ceiling in MiB (pool mode
            only), as for :func:`repro.evalx.parallel.run_tasks`.
    """
    field_: List[Entrant] = []
    for name in entrants:
        if name in ENTRANTS:
            field_.append(ENTRANTS[name])
        else:
            parts = name.split(":")
            if len(parts) != 3:
                raise ValueError(
                    "unknown entrant %r (choose from %s or name:mode:paradigm)"
                    % (name, sorted(ENTRANTS))
                )
            field_.append(Entrant(parts[0], parts[1], parts[2]))
    if not field_:
        raise ValueError("empty portfolio")
    tasks = [e.task(formula, instance, budget, strategy, engine) for e in field_]

    measurements: List[Measurement] = []
    cancelled: List[str] = []
    errors: Dict[str, str] = {}

    def settled(record: Record) -> bool:
        """File a lane's record on arrival; True (a verdict) stops the race."""
        m = record.measurement
        if record.status in (STATUS_CANCELLED, STATUS_HARD_TIMEOUT):
            cancelled.append(record.solver)
            # Keep what a stopped lane reported on its way out; a hard
            # timeout's stand-in measurement was never reported.
            if m is None or not (m.interrupted or record.status == STATUS_CANCELLED):
                return False
        elif not record.ok:
            errors[record.solver] = record.error or record.status
            return False
        measurements.append(_apply_flip(m, FaultPlan.label(record), faults))
        return not run_all and not m.timed_out

    effective_jobs = max(1, min(jobs, len(tasks), os.cpu_count() or 1))
    start = time.perf_counter()
    run_tasks(
        tasks,
        jobs=effective_jobs,
        max_retries=0,
        faults=faults,
        wall_timeout=wall_timeout,
        term_grace=term_grace,
        mem_limit_mb=mem_limit_mb,
        stop_when=settled,
    )
    seconds = time.perf_counter() - start

    determinate = [m for m in measurements if not m.timed_out]
    result = PortfolioResult(
        instance=instance,
        outcome=Outcome.UNKNOWN,
        winner=None,
        seconds=seconds,
        jobs=effective_jobs,
        measurements=measurements,
        cancelled=cancelled,
        errors=errors,
    )
    if not determinate:
        return result
    outcomes = {m.outcome for m in determinate}
    if len(outcomes) == 1:
        result.outcome = determinate[0].outcome
        result.winner = determinate[0].solver
        return result
    # Cross-paradigm disagreement: describe it, then let the certificate
    # checker arbitrate.
    result.disagreement = "; ".join(
        "%s=%s" % (m.solver, m.outcome.value) for m in determinate
    )
    result.outcome, result.winner, result.triage = _triage(
        formula, instance, budget, engine, determinate
    )
    return result
