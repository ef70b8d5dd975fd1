"""``repro portfolio bench``: portfolio vs best-single on the fig6 series.

Runs the Figure-6 counter and semaphore diameter series twice over:

* each lane alone — TO search, PO search — timed with the same
  wall-clock protocol the race uses (in-process ``execute_task``), which
  yields the per-family *best single lane*;
* the portfolio race per instance (``--jobs 2``, clamped to the machine's
  cores like every race), recording who won each instance.

The emitted ``BENCH_portfolio.json`` is schema-versioned and carries, per
family: the winner breakdown, every lane's standalone wall-clock, the
portfolio's wall-clock, and the ratio against the best single lane —
the number the acceptance bound (≤ ``BOUND``x) is checked against. Like
``BENCH_kernels.json``, the decision counts are machine-independent and
comparable across reports; the seconds are host-specific.

The stopping rule matches ``run_dia_scaling``: a family's series stops at
the first length where the portfolio itself comes back UNKNOWN (every lane
budget-exhausted) — longer lengths only get harder.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.evalx.parallel import execute_task
from repro.evalx.runner import Budget, Measurement
from repro.portfolio.race import ENTRANTS, entrant_task, race

#: bump on any change to the JSON layout so downstream tooling can dispatch.
SCHEMA = "repro-portfolio-bench/1"

#: the acceptance bound: portfolio wall-clock vs best single lane.
BOUND = 1.15

#: full mode covers the fig6 counter and semaphore families; quick mode is
#: the CI smoke — one family, one size, short budget, same stopping rule.
FULL_SERIES = dict(
    families=(("counter", (2, 3)), ("semaphore", (1, 2))),
    max_n_cap=4,
    budget_decisions=3000,
)
QUICK_SERIES = dict(
    families=(("counter", (2,)),),
    max_n_cap=2,
    budget_decisions=1500,
)


def _single_run(
    name: str, formula, instance: str, budget: Budget, strategy: str
) -> Tuple[Measurement, float]:
    """One standalone lane, timed like a race (task build + execution)."""
    start = time.perf_counter()
    task = entrant_task(name, formula, instance, budget, strategy, "counters")
    m = execute_task(task)
    return m, time.perf_counter() - start


def run_family(
    family: str,
    sizes: Sequence[int],
    max_n_cap: int,
    budget_decisions: int,
    jobs: int,
    strategy: str = "eu_au",
) -> dict:
    """Bench one model family; returns its report section."""
    from repro.smv.diameter import diameter_qbf
    from repro.smv.models import model_by_name
    from repro.smv.reachability import eccentricity

    budget = Budget(decisions=budget_decisions)
    instances: List[dict] = []
    winners: Dict[str, int] = {}
    single_seconds: Dict[str, float] = {name: 0.0 for name in ENTRANTS}
    single_decisions: Dict[str, int] = {name: 0 for name in ENTRANTS}
    portfolio_seconds = 0.0
    for size in sizes:
        model = model_by_name(family, size)
        d = eccentricity(model)
        for n in range(min(d, max_n_cap) + 1):
            phi = diameter_qbf(model, n, "tree")
            label = "%s-n%d" % (model.name, n)
            singles: Dict[str, dict] = {}
            for name in ENTRANTS:
                m, wall = _single_run(name, phi, label, budget, strategy)
                single_seconds[name] += wall
                single_decisions[name] += m.decisions
                singles[name] = {
                    "outcome": m.outcome.value,
                    "decisions": m.decisions,
                    "seconds": wall,
                }
            result = race(phi, label, budget, jobs=jobs, strategy=strategy)
            portfolio_seconds += result.seconds
            if result.winner is not None:
                winners[result.winner] = winners.get(result.winner, 0) + 1
            instances.append(
                {
                    "instance": label,
                    "outcome": result.outcome.value,
                    "winner": result.winner,
                    "portfolio_seconds": result.seconds,
                    "jobs": result.jobs,
                    "singles": singles,
                }
            )
            if result.outcome.value == "unknown":
                # the series' stopping rule: every lane blew the budget;
                # longer lengths only get harder.
                break
    best_name = min(single_seconds, key=lambda k: single_seconds[k])
    best = single_seconds[best_name]
    ratio = portfolio_seconds / best if best > 0 else float("nan")
    return {
        "family": family,
        "sizes": list(sizes),
        "instances": instances,
        "winners": winners,
        "single_wall_seconds": single_seconds,
        "single_decisions": single_decisions,
        "portfolio_wall_seconds": portfolio_seconds,
        "best_single": {"entrant": best_name, "wall_seconds": best},
        "portfolio_vs_best_single": ratio,
        "within_bound": ratio <= BOUND,
    }


def run_portfolio_bench(quick: bool = False, jobs: int = 2) -> dict:
    """Run every family; the full report for ``BENCH_portfolio.json``."""
    series = QUICK_SERIES if quick else FULL_SERIES
    families = [
        run_family(
            family,
            sizes,
            series["max_n_cap"],
            series["budget_decisions"],
            jobs,
        )
        for family, sizes in series["families"]
    ]
    return {
        "schema": SCHEMA,
        "generated_by": "repro portfolio bench",
        "mode": "quick" if quick else "full",
        "jobs_requested": jobs,
        "budget_decisions": series["budget_decisions"],
        "max_n_cap": series["max_n_cap"],
        "entrants": list(ENTRANTS),
        "bound": BOUND,
        "families": families,
        "all_within_bound": all(f["within_bound"] for f in families),
    }


def render_report(report: dict) -> str:
    """Human-readable summary table (stdout companion of the JSON)."""
    lines = [
        "repro portfolio bench — fig6 series, %s mode (jobs=%d requested)"
        % (report["mode"], report["jobs_requested"]),
        "entrants: %s  budget=%d decisions  bound=%.2fx"
        % (", ".join(report["entrants"]), report["budget_decisions"], report["bound"]),
        "",
        "  %-12s %-22s %12s %14s %8s %8s"
        % ("family", "winners", "portfolio", "best single", "ratio", "bound"),
    ]
    for fam in report["families"]:
        winners = ",".join("%s:%d" % kv for kv in sorted(fam["winners"].items())) or "-"
        best = fam["best_single"]
        lines.append(
            "  %-12s %-22s %11.2fs %8s %4.2fs %7.2fx %8s"
            % (
                fam["family"],
                winners,
                fam["portfolio_wall_seconds"],
                best["entrant"],
                best["wall_seconds"],
                fam["portfolio_vs_best_single"],
                "ok" if fam["within_bound"] else "OVER",
            )
        )
    lines.append("")
    lines.append(
        "portfolio within %.2fx of best single lane: %s"
        % (report["bound"], "yes" if report["all_within_bound"] else "NO")
    )
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
