"""Cube-and-conquer speedup benchmark (``repro cube bench``).

Runs the pinned Figure-6 model-checking series (counter and semaphore
diameter bounds, tree form) through :func:`repro.cube.run_cube` at
``jobs=1`` — the genuine sequential baseline: no splitting, no fork — and
at each parallel job count, and reports the wall-clock speedup per
instance.

The CI gate is **verdict agreement only**: every parallel configuration
must reproduce the sequential verdict (a disagreement raises
:class:`CubeDivergence`, and the divergent report is still persisted for
triage). Speedup is recorded, never gated — wall-clock numbers from shared
CI runners would gate on scheduler noise, and on a single hardware thread
the decomposition's work reduction is the only source of speedup anyway.

Report schema (``repro-cube-bench/2``)::

    {"schema": "...", "mode": "quick"|"full", "jobs": [1, 4],
     "instances": [{"instance": "counter3/n=7", "family": ..., "size": ...,
                    "n": ..., "verdict": "false", "agreement": true,
                    "runs": [{"jobs": 1, "wall_seconds": ..,
                              "total_decisions": .., "outcome": "false",
                              "speedup": 1.0, ...}, ...]}, ...],
     "verdict_agreement_ok": true}
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cube.coordinator import run_cube
from repro.smv.diameter import diameter_qbf
from repro.smv.models import model_by_name

SCHEMA = "repro-cube-bench/2"

#: (family, size, bounds) triples of the pinned series. The full series is
#: the Figure-6 pair: the counter family around its eccentricity (one TRUE
#: and one FALSE bound) plus the semaphore family; quick mode is a small
#: member of each family, sized for a CI smoke leg.
FULL_SERIES: Tuple[Tuple[str, int, Tuple[int, ...]], ...] = (
    ("counter", 3, (6, 7)),
    ("semaphore", 2, (4,)),
)
QUICK_SERIES: Tuple[Tuple[str, int, Tuple[int, ...]], ...] = (
    ("counter", 2, (4,)),
    ("semaphore", 2, (4,)),
)

FULL_JOBS: Tuple[int, ...] = (1, 2, 4)
QUICK_JOBS: Tuple[int, ...] = (1, 2)


class CubeDivergence(AssertionError):
    """A parallel run disagreed with the sequential verdict."""

    def __init__(self, report: dict):
        bad = [
            "%s (jobs=%d: %s vs %s)"
            % (i["instance"], r["jobs"], r["outcome"], i["verdict"])
            for i in report["instances"]
            for r in i["runs"]
            if r["outcome"] != i["verdict"]
        ]
        super().__init__(
            "cube verdicts diverged from sequential: %s" % ", ".join(bad)
        )
        self.report = report


def _run_one(formula, jobs: int, seed: int) -> Dict[str, object]:
    start = time.perf_counter()
    report = run_cube(formula, jobs=jobs, seed=seed)
    wall = time.perf_counter() - start
    return {
        "jobs": jobs,
        "outcome": report.outcome.value,
        "wall_seconds": wall,
        "total_decisions": report.total_decisions,
        "leaves": report.leaves,
        "escalations": report.escalations,
        "resplits": report.resplits,
        "cancelled": report.cancelled,
    }


def run_cube_bench(
    quick: bool = False,
    jobs: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> dict:
    """Run the series; returns the report dict (see module docstring).

    Raises :class:`CubeDivergence` — with the full report attached — when
    any parallel verdict disagrees with the sequential one.
    """
    series = QUICK_SERIES if quick else FULL_SERIES
    job_counts = tuple(jobs) if jobs else (QUICK_JOBS if quick else FULL_JOBS)
    if 1 not in job_counts:
        job_counts = (1,) + job_counts
    instances: List[Dict[str, object]] = []
    agreement_ok = True
    for family, size, bounds in series:
        model = model_by_name(family, size)
        for n in bounds:
            formula = diameter_qbf(model, n, form="tree")
            runs = [_run_one(formula, j, seed) for j in sorted(job_counts)]
            sequential = runs[0]
            for run in runs:
                run["speedup"] = (
                    sequential["wall_seconds"] / run["wall_seconds"]
                    if run["wall_seconds"] > 0
                    else float("nan")
                )
            agree = all(r["outcome"] == sequential["outcome"] for r in runs)
            agreement_ok = agreement_ok and agree
            instances.append(
                {
                    "instance": "%s%d/n=%d" % (family, size, n),
                    "family": family,
                    "size": size,
                    "n": n,
                    "verdict": sequential["outcome"],
                    "agreement": agree,
                    "runs": runs,
                }
            )
    report = {
        "schema": SCHEMA,
        "mode": "quick" if quick else "full",
        "jobs": list(sorted(job_counts)),
        "seed": seed,
        "instances": instances,
        "verdict_agreement_ok": agreement_ok,
    }
    if not agreement_ok:
        raise CubeDivergence(report)
    return report


def render_report(report: dict) -> str:
    """Human-readable summary table of a report (stdout companion)."""
    lines = [
        "repro cube bench — Figure-6 series, %s mode" % report["mode"],
        "",
        "  %-18s %8s %6s %10s %12s %9s" % (
            "instance", "verdict", "jobs", "wall", "decisions", "speedup"),
    ]
    for inst in report["instances"]:
        for run in inst["runs"]:
            lines.append("  %-18s %8s %6d %9.2fs %12d %8.2fx" % (
                inst["instance"], inst["verdict"].upper(), run["jobs"],
                run["wall_seconds"], run["total_decisions"], run["speedup"],
            ))
    verdict = "ok" if report["verdict_agreement_ok"] else "DIVERGED"
    lines.append("")
    lines.append("parallel-vs-sequential verdict agreement: %s" % verdict)
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
