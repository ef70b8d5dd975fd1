"""Shared helpers for the benchmark harness.

Every benchmark writes its rendered table/figure to ``benchmarks/results/``
and prints it, so a ``pytest benchmarks/ --benchmark-only`` run leaves the
full reproduction record on disk. Budgets here are the reproduction's
"timeouts" (see repro.evalx.runner).

Environment knobs (all optional):

* ``REPRO_JOBS=N`` — fan the suite sweeps out over N worker processes via
  :mod:`repro.evalx.parallel` (default 1: the serial legacy path).
* ``REPRO_RESULTS_DIR=dir`` — persist every raw measurement as JSONL under
  ``dir`` and make interrupted benchmark sessions resumable (recorded runs
  are skipped on the next invocation). Off by default so a fresh run after
  a solver change can never be contaminated by stale records.
* ``REPRO_HARD_TIMEOUT=seconds`` — hard per-run cap, enforced by killing
  the worker (only effective with ``REPRO_JOBS > 1``).
* ``REPRO_ENGINE=counters|native`` — propagation backend for every suite
  run. Decision counts are engine-independent by contract, so recorded
  artefacts are comparable across engines; only wall-clock moves.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.core.solver import default_engine
from repro.evalx.runner import Budget

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: suite budgets (decisions stand in for the paper's 600 s / 3600 s caps).
#: The budgets are decision-only on purpose: a cooperative wall-clock cap
#: would censor runs early on slow machines and make the recorded decision
#: counts nondeterministic across hosts. Hard wall-clock protection against
#: pathological instances is the parallel harness's job (worker kills, see
#: HARD_TIMEOUT_SECONDS), which never biases a completed measurement.
NCF_BUDGET = Budget(decisions=5000)
FPV_BUDGET = Budget(decisions=5000)
DIA_BUDGET = Budget(decisions=6000)
EVAL06_BUDGET = Budget(decisions=4000)

NCF_INSTANCES_PER_SETTING = 3
FPV_COUNT = 20
EVAL06_COUNT = 24
DIA_MAX_N = 6

#: parallel-harness knobs threaded into every suite fixture (conftest.py).
JOBS = int(os.environ.get("REPRO_JOBS", "1"))
HARD_TIMEOUT_SECONDS = float(os.environ.get("REPRO_HARD_TIMEOUT", "120"))
RESULTS_JSONL_DIR: Optional[str] = os.environ.get("REPRO_RESULTS_DIR")
ENGINE = default_engine()


def suite_run_options(suite: str) -> dict:
    """jobs/results_path/wall_timeout/engine kwargs for one run_* call."""
    results_path = None
    if RESULTS_JSONL_DIR:
        os.makedirs(RESULTS_JSONL_DIR, exist_ok=True)
        results_path = os.path.join(RESULTS_JSONL_DIR, "%s_runs.jsonl" % suite)
    return {
        "jobs": JOBS,
        "results_path": results_path,
        "wall_timeout": HARD_TIMEOUT_SECONDS if JOBS > 1 else None,
        "engine": ENGINE,
    }


def save(name: str, text: str) -> None:
    """Write a rendered artefact and echo it to stdout."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print("\n" + "=" * 72)
    print(text)
    print("(saved to %s)" % path)


def po_vs_to_counts(results) -> dict:
    """Quick aggregate used by shape assertions."""
    po_wins = sum(1 for r in results if r.to_best.cost > r.po_run.cost)
    to_wins = sum(1 for r in results if r.po_run.cost > r.to_best.cost)
    to_timeouts = sum(1 for r in results if r.to_best.timed_out)
    po_timeouts = sum(1 for r in results if r.po_run.timed_out)
    return {
        "po_wins": po_wins,
        "to_wins": to_wins,
        "to_timeouts": to_timeouts,
        "po_timeouts": po_timeouts,
        "total": len(results),
    }
