"""``repro bench``: the kernel benchmark harness and the perf trajectory.

Runs the pinned Figure-6 counter series (the same instances, budget and
double-timeout stopping rule as ``repro.evalx.suites.run_dia_scaling``)
under every propagation backend this build can run — counters, and the
compiled native kernel when built — with the pure-literal rule both on and
off, and emits a schema-versioned ``BENCH_kernels.json``:

* throughput per configuration — decisions/sec, propagations/sec,
  clause_visits/sec — plus wall-clock for the whole series;
* a per-run decision log, verified decision-for-decision against the
  counter backend (the eager reference engine);
* the recorded pre-kernel baseline (PR 3's layered engine, measured on
  the identical series) with the wall-clock speedup next to it, and the
  native kernel's decisions/sec speedup over the same-run counters rows;
* a ``kernel`` block recording whether the compiled extension was
  importable — a missing kernel is reported as an explicit fallback to
  the counters rows, never silently.

The series is fully deterministic — pinned models, decision-only budgets —
so the *decision* columns of two reports are comparable across machines
and across solver versions; only the wall/throughput columns are
host-dependent. That is what makes the file a trajectory: each perf PR
re-runs the harness and appends its report next to the previous one.

``--profile`` wraps each configuration in :mod:`cProfile` and embeds the
top functions by cumulative time in the report, which is how the hot
paths flattened by the kernel work were found in the first place.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine.native import (
    kernel_version,
    native_available,
    native_import_error,
)
from repro.evalx.runner import Budget, Measurement, solve_po

#: bump on any change to the JSON layout so downstream tooling can dispatch.
SCHEMA = "repro-bench/2"

#: The pre-kernel engine (PR 3, commit 1f10356) on this exact series —
#: ``family="counter"``, sizes (2, 3), Budget(decisions=8000), max_n_cap=8 —
#: measured with the same wall-clock protocol as :func:`run_series`. The
#: decision counts are part of the engine contract (the kernels must
#: reproduce them literally); the seconds are the reference machine's and
#: only the *ratio* against a same-machine rerun is meaningful.
PR3_BASELINE: Dict[str, Dict[str, float]] = {
    "counters/pure=on": {"wall_seconds": 35.09, "decisions": 13103},
    "counters/pure=off": {"wall_seconds": 3.52, "decisions": 35669},
}
PR3_BASELINE_LABEL = "PR-3 layered engine (pre-kernel), same series and budget"

#: full mode reproduces the fig6 engine-comparison series exactly; quick
#: mode is the CI smoke: one model size, short budget, same stopping rule.
FULL_SERIES = dict(sizes=(2, 3), max_n_cap=8, budget_decisions=8000)
QUICK_SERIES = dict(sizes=(2,), max_n_cap=4, budget_decisions=2000)


def config_key(engine: str, pure: bool) -> str:
    return "%s/pure=%s" % (engine, "on" if pure else "off")


def run_series(
    engine: str,
    pure: bool,
    sizes: Sequence[int],
    max_n_cap: int,
    budget_decisions: int,
) -> Tuple[List[dict], float, float]:
    """One configuration over the Figure-6 counter series.

    Returns ``(runs, wall_seconds, solve_seconds)``: a per-run record list,
    the wall-clock of the whole series (instance construction and
    prenexing included — the number the baseline was measured with), and
    the summed in-solver seconds (what the throughput rates divide by).
    """
    from repro.smv.diameter import diameter_qbf
    from repro.smv.models import model_by_name
    from repro.smv.reachability import eccentricity

    budget = Budget(decisions=budget_decisions)
    runs: List[dict] = []
    solve_seconds = 0.0
    start = time.perf_counter()
    for size in sizes:
        model = model_by_name("counter", size)
        d = eccentricity(model)
        for n in range(min(d, max_n_cap) + 1):
            po = solve_po(
                diameter_qbf(model, n, "tree"),
                budget=budget, engine=engine, pure_literals=pure,
            )
            to = solve_po(
                diameter_qbf(model, n, "prenex"),
                budget=budget, engine=engine, pure_literals=pure,
            )
            for pipeline, m in (("PO", po), ("TO", to)):
                runs.append(_run_record(model.name, n, pipeline, m))
                solve_seconds += m.seconds
            # the series' stopping rule, same as run_dia_scaling: once both
            # pipelines blow the budget, longer lengths only get harder.
            if po.timed_out and to.timed_out:
                break
    wall = time.perf_counter() - start
    return runs, wall, solve_seconds


def _run_record(model_name: str, n: int, pipeline: str, m: Measurement) -> dict:
    stats = m.stats
    return {
        "instance": "%s/n=%d/%s" % (model_name, n, pipeline),
        "outcome": m.outcome.value,
        "timed_out": m.timed_out,
        "decisions": m.decisions,
        "propagations": stats.propagations,
        "clause_visits": stats.clause_visits,
        "cube_visits": stats.cube_visits,
        "seconds": m.seconds,
    }


def _aggregate(runs: List[dict], wall: float, solve_seconds: float) -> dict:
    totals = {
        key: sum(r[key] for r in runs)
        for key in ("decisions", "propagations", "clause_visits", "cube_visits")
    }
    # rates over in-solver time: instance construction does not dilute them
    denom = solve_seconds if solve_seconds > 0 else float("nan")
    return {
        "wall_seconds": wall,
        "solve_seconds": solve_seconds,
        **totals,
        "decisions_per_second": totals["decisions"] / denom,
        "propagations_per_second": totals["propagations"] / denom,
        "clause_visits_per_second": totals["clause_visits"] / denom,
    }


def _profile_series(kwargs: dict, top: int = 15) -> Tuple[Tuple[List[dict], float, float], str]:
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    out = run_series(**kwargs)
    profiler.disable()
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("cumulative").print_stats(top)
    return out, buf.getvalue()


def run_bench(
    quick: bool = False,
    profile: bool = False,
    engines: Optional[Sequence[str]] = None,
    pure_modes: Sequence[bool] = (True, False),
) -> dict:
    """Run every (engine, pure) configuration; verify decision identity.

    The counter backend is always run (prepended if missing): it is the
    eager reference every other backend's decision counts are checked
    against, run by run. A mismatch is a broken engine contract and raises
    immediately — a benchmark that silently timed different search trees
    would be meaningless.

    ``engines`` defaults to every backend this build can run: counters, and
    native when the compiled kernel is importable. A missing kernel is
    never silent: the report's ``kernel`` block records the import error
    and that the native rows fell back to ``counters`` (i.e. are absent —
    the counters rows ARE the fallback measurement).
    """
    series = dict(QUICK_SERIES if quick else FULL_SERIES)
    if engines is None:
        # Ask for both; the fallback branch below records (never hides) a
        # native row that this build cannot produce.
        engines = ["counters", "native"]
    engines = list(engines)
    kernel = {
        "available": native_available(),
        "version": kernel_version(),
        "import_error": native_import_error(),
    }
    if "native" in engines and not native_available():
        # loud skip, mirroring SolverStats.engine_fallback: the counters
        # rows stand in for native, and the report says so explicitly.
        engines = [e for e in engines if e != "native"]
        kernel["fallback"] = "counters"
    if "counters" not in engines:
        engines.insert(0, "counters")
    else:  # reference first, so every later engine has something to check
        engines.sort(key=lambda e: e != "counters")

    configs: List[dict] = []
    reference: Dict[bool, List[dict]] = {}
    identity_ok = True
    for pure in pure_modes:
        for engine in engines:
            kwargs = dict(engine=engine, pure=pure, **series)
            if profile:
                (runs, wall, solve_seconds), profile_text = _profile_series(kwargs)
            else:
                runs, wall, solve_seconds = run_series(**kwargs)
                profile_text = None
            key = config_key(engine, pure)
            entry = {
                "key": key,
                "engine": engine,
                "pure_literals": pure,
                **_aggregate(runs, wall, solve_seconds),
                "runs": runs,
                "baseline": _against_baseline(key, runs, wall) if not quick else None,
            }
            if profile_text is not None:
                entry["profile"] = profile_text
            if engine == "counters":
                reference[pure] = runs
            else:
                mismatches = _identity_mismatches(reference[pure], runs)
                entry["decision_identity_vs_counters"] = not mismatches
                if mismatches:
                    identity_ok = False
                    entry["decision_identity_mismatches"] = mismatches
            configs.append(entry)

    report = {
        "schema": SCHEMA,
        "generated_by": "repro bench",
        "mode": "quick" if quick else "full",
        "series": {"family": "counter", **series},
        "reference_engine": "counters",
        "decision_identity_ok": identity_ok,
        "kernel": kernel,
        "native_speedup_vs_counters": _native_speedups(configs),
        "baseline": {"label": PR3_BASELINE_LABEL, "configs": PR3_BASELINE},
        "configs": configs,
    }
    if not identity_ok:
        raise EngineDivergence(report)
    return report


def _native_speedups(configs: List[dict]) -> Optional[Dict[str, float]]:
    """decisions/sec ratio of the native rows over the counters rows.

    Same decisions by the identity contract, so the throughput ratio IS the
    wall speedup of the solving itself. None when native didn't run.
    """
    by_key = {c["key"]: c for c in configs}
    out = {}
    for key, c in by_key.items():
        if c["engine"] != "native":
            continue
        ref = by_key.get(config_key("counters", c["pure_literals"]))
        if ref and ref["decisions_per_second"] > 0:
            out[key] = c["decisions_per_second"] / ref["decisions_per_second"]
    return out or None


class EngineDivergence(AssertionError):
    """A backend produced different decision counts than the reference.

    Carries the full report so the caller can persist it for triage before
    failing the run.
    """

    def __init__(self, report: dict):
        bad = [
            c["key"] for c in report["configs"]
            if c.get("decision_identity_vs_counters") is False
        ]
        super().__init__("decision counts diverged from counters: %s" % ", ".join(bad))
        self.report = report


def _identity_mismatches(reference: List[dict], runs: List[dict]) -> List[dict]:
    mismatches = []
    for ref, run in zip(reference, runs):
        if (ref["instance"], ref["decisions"]) != (run["instance"], run["decisions"]):
            mismatches.append({"expected": ref, "got": run})
    if len(reference) != len(runs):
        mismatches.append({
            "expected_runs": len(reference), "got_runs": len(runs),
        })
    return mismatches


def _against_baseline(key: str, runs: List[dict], wall: float) -> Optional[dict]:
    base = PR3_BASELINE.get(key)
    if base is None:
        return None
    decisions = sum(r["decisions"] for r in runs)
    return {
        "label": PR3_BASELINE_LABEL,
        "baseline_wall_seconds": base["wall_seconds"],
        "baseline_decisions": base["decisions"],
        "wall_speedup": base["wall_seconds"] / wall if wall > 0 else float("nan"),
        "decisions_identical": decisions == base["decisions"],
    }


def render_report(report: dict) -> str:
    """Human-readable summary table of a report (stdout companion)."""
    lines = [
        "repro bench — Figure-6 counter series, %s mode" % report["mode"],
        "series: sizes=%s  max_n_cap=%d  budget=%d decisions"
        % (tuple(report["series"]["sizes"]), report["series"]["max_n_cap"],
           report["series"]["budget_decisions"]),
        "",
        "  %-22s %10s %12s %14s %10s" % (
            "config", "wall", "decisions", "decisions/sec", "speedup"),
    ]
    for c in report["configs"]:
        base = c.get("baseline")
        speedup = "%.2fx" % base["wall_speedup"] if base else "-"
        lines.append("  %-22s %9.2fs %12d %14.0f %10s" % (
            c["key"], c["wall_seconds"], c["decisions"],
            c["decisions_per_second"], speedup,
        ))
    verdict = "ok" if report["decision_identity_ok"] else "DIVERGED"
    lines.append("")
    lines.append("decision identity vs %s backend: %s"
                 % (report["reference_engine"], verdict))
    kernel = report.get("kernel") or {}
    if kernel.get("available"):
        lines.append("native kernel: available (version %s)" % kernel.get("version"))
    else:
        lines.append(
            "native kernel: UNAVAILABLE (%s) — native rows fell back to counters"
            % kernel.get("import_error")
        )
    speedups = report.get("native_speedup_vs_counters")
    if speedups:
        for key in sorted(speedups):
            lines.append("native speedup vs counters (%s): %.2fx decisions/sec"
                         % (key.split("/", 1)[1], speedups[key]))
    if any(c.get("baseline") for c in report["configs"]):
        lines.append("baseline: %s" % PR3_BASELINE_LABEL)
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
