"""``repro bench``: the paper bench and the kernel perf trajectory.

One command runs every experiment behind the paper's evidence, at fixed
grid sizes and decision budgets, under every propagation backend this build
can run (``counters``, and the compiled ``native`` kernel when built):

* Table I: the NCF, FPV, DIA, PROB and FIXED suites through the evalx pool;
* Figures 3, 4, 5 and 7, drawn from those suites' runs;
* Figure 6: the counter and semaphore diameter-scaling series;
* the branching-policy and learning ablations, and the Section VII-C
  learned-good lengths;
* the NCF grid of ``repro evalx run ncf``'s defaults, where the NCF
  claims do not hold yet, as an extra row that is never gated;
* Section VII-C's diameter sweep on six SMV families, bound by bound on
  one incremental solver and from scratch, with the families where
  retention does not save decisions reported but not gated;
* the kernel rows: the Figure 6 counter series with the pure-literal rule
  on and off, with throughput, the recorded pre-kernel baseline and the
  native kernel's speedup over the same-run counters rows.

Every run's decisions are checked against the ``counters`` runs, run by
run; a mismatch raises :class:`EngineDivergence` with the report attached.
The paper's shape claims are named gates ``{name, value, op, bound, ok}``,
computed by :func:`paper_gates` from the report's aggregates alone, on the
``counters`` runs. No gate reads wall-clock: the series are pinned-seed and
decision-budgeted, so every decision column repeats on every host and only
the wall and throughput columns are host-dependent.

The schema-versioned report keeps per-suite aggregates (Table I columns,
TO and PO decision totals and their ratio, wall seconds per engine), the
rendered tables and figures, and the gates. Per-run rows are kept only for
the kernel series. A ``kernel`` block records whether the compiled
extension was importable: a missing kernel is an explicit fallback to the
counters rows, never a silent one.
"""

from __future__ import annotations

import json
import math
import operator
import os
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine.native import (
    kernel_version,
    native_available,
    native_import_error,
)
from repro.core.solver import SolverConfig
from repro.evalx.report import render_kv, render_scaling, render_scatter
from repro.evalx.runner import Budget, Measurement, solve_po, solve_to
from repro.evalx.scatter import (
    ScalingSeries,
    pair_point,
    setting_medians,
    summarize_scatter,
)
from repro.evalx.suites import SUITES, PairResult, run_suite, table1_rows
from repro.evalx.table1 import Table1Row, render_table
from repro.generators.ncf import NcfParams, generate_ncf
from repro.smv.diameter import diameter_qbf
from repro.smv.incremental import incremental_diameter, scratch_diameter
from repro.smv.models import DmeModel, RingModel, SemaphoreModel, model_by_name
from repro.smv.reachability import eccentricity

#: bump on any change to the JSON layout so downstream tooling can dispatch.
SCHEMA = "repro-bench/4"
REFERENCE_ENGINE = "counters"

# -- the grid ------------------------------------------------------------------
#
# Decision budgets stand in for the paper's 600 s / 3600 s timeouts. They are
# decision-only so the recorded counts repeat on every host; the pool's hard
# per-task kill (HARD_TIMEOUT_SECONDS) guards against a pathological run
# without ever biasing a completed one.

NCF_INSTANCES, NCF_BUDGET = 3, Budget(decisions=5000)
FPV_COUNT, FPV_BUDGET = 20, Budget(decisions=5000)
DIA_MAX_N, DIA_BUDGET = 6, Budget(decisions=6000)
EVAL06_COUNT, EVAL06_BUDGET = 24, Budget(decisions=4000)
#: the ``repro evalx run ncf`` defaults (48 instances): reported, never gated.
NCF_DEFAULT_INSTANCES, NCF_DEFAULT_BUDGET = 8, Budget(decisions=4000)
#: Table I's tie margin in decisions, the stand-in for the paper's "within 1 s".
TIE_MARGIN = 50
HARD_TIMEOUT_SECONDS = 120.0

#: Figure 6, one panel each: (model family, model sizes, cap on the tested
#: length). The counter panel with pure literals on and off is also the
#: kernel series.
FIG6_COUNTER = ("counter", (2, 3), 8)
FIG6_SEMAPHORE = ("semaphore", (1, 2, 3), 4)
FIG6_DECISIONS = 8000

HEURISTIC_BUDGET = Budget(decisions=6000, seconds=15.0)
POLICIES = ("levelsub", "subtree", "counter", "naive")
LEARNING_BUDGET = Budget(decisions=5000, seconds=15.0)

#: the incremental diameter sweeps, (model family, size), each run to its
#: diameter without a budget. Retention saves decisions on the gated ones;
#: the others are reported, never gated (semaphore2 costs more decisions
#: incrementally than from scratch).
INCREMENTAL_FAMILIES = (("counter", 2), ("dme", 5), ("ring", 4),
                        ("dme", 4), ("ring", 3), ("semaphore", 2))
INCREMENTAL_GATED = ("counter2", "dme5", "ring4")

#: Decision totals of the kernel series, the same since the pre-kernel
#: baseline below and reproduced literally by every backend. Update them
#: deliberately when a change intends to alter the search, never to quiet a
#: failure.
PINNED_DECISIONS = {True: 13103, False: 35669}

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


def heuristic_sample() -> List[Tuple[str, object]]:
    """Non-prenex instances for the branching-policy ablation."""
    instances = [
        ("sem2-n2", diameter_qbf(SemaphoreModel(2), 2, "tree")),
        ("sem3-n1", diameter_qbf(SemaphoreModel(3), 1, "tree")),
        ("dme4-n3", diameter_qbf(DmeModel(4), 3, "tree")),
        ("ring3-n2", diameter_qbf(RingModel(3), 2, "tree")),
    ]
    for seed in range(3):
        params = NcfParams(dep=6, var=4, cls=12, lpc=5, seed=seed)
        instances.append(("ncf-%d" % seed, generate_ncf(params)))
    return instances


def learning_sample() -> List[Tuple[str, object]]:
    """The DIA + NCF sample of the learning ablation."""
    instances = []
    for seed in range(4):
        params = NcfParams(dep=6, var=4, cls=12, lpc=5, seed=seed)
        instances.append(("ncf-%d" % seed, generate_ncf(params)))
    instances.append(("sem2-n2", diameter_qbf(SemaphoreModel(2), 2, "tree")))
    instances.append(("dme4-n3", diameter_qbf(DmeModel(4), 3, "tree")))
    return instances


# -- measuring one section under one engine ----------------------------------------


@dataclass
class Section:
    """One part of the bench measured under one engine."""

    data: object
    #: (run, decisions) in run order: what the identity check compares.
    runs: List[Tuple[str, int]]
    wall_seconds: float


@dataclass
class Series:
    """One pass of the Figure 6 loop: per-run records and the plotted lines."""

    runs: List[dict]
    po: List[ScalingSeries]
    to: List[ScalingSeries]
    wall_seconds: float
    #: summed in-solver seconds, what the throughput rates divide by.
    solve_seconds: float


def config_key(engine: str, pure: bool) -> str:
    return "%s/pure=%s" % (engine, "on" if pure else "off")


def run_series(
    family: str,
    sizes: Sequence[int],
    max_n_cap: int,
    engine: str,
    pure: bool = True,
) -> Series:
    """Figure 6: diameter-test cost against the tested length, PO and TO.

    Serial on purpose: once both pipelines blow the budget at a length,
    longer lengths only get harder, so each run decides whether the series
    goes on. ``wall_seconds`` covers instance construction and prenexing
    too, the number the pre-kernel baseline was measured with.
    """
    budget = Budget(decisions=FIG6_DECISIONS)
    series = Series([], [], [], 0.0, 0.0)
    start = time.perf_counter()
    for size in sizes:
        model = model_by_name(family, size)
        po_line = ScalingSeries("%s (PO)" % model.name)
        to_line = ScalingSeries("%s (TO)" % model.name)
        for n in range(min(eccentricity(model), max_n_cap) + 1):
            po = solve_po(diameter_qbf(model, n, "tree"), budget=budget,
                          engine=engine, pure_literals=pure)
            to = solve_po(diameter_qbf(model, n, "prenex"), budget=budget,
                          engine=engine, pure_literals=pure)
            for pipeline, line, m in (("PO", po_line, po), ("TO", to_line, to)):
                series.runs.append(_run_record(model.name, n, pipeline, m))
                series.solve_seconds += m.seconds
                line.add(n, m.decisions, m.timed_out)
            if po.timed_out and to.timed_out:
                break
        series.po.append(po_line)
        series.to.append(to_line)
    series.wall_seconds = time.perf_counter() - start
    return series


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


def _pair_runs(results: List[PairResult]) -> List[Tuple[str, int]]:
    return [
        ("%s %s" % (m.instance, m.solver), m.decisions)
        for r in results
        for m in list(r.to_runs.values()) + [r.po_run]
    ]


def _heuristic(engine: str) -> Tuple[dict, List[Tuple[str, int]]]:
    sample = heuristic_sample()
    totals: Dict[str, Dict[str, int]] = {}
    runs = []
    for policy in POLICIES:
        decisions = timeouts = 0
        for label, phi in sample:
            m = solve_po(phi, label, budget=HEURISTIC_BUDGET, policy=policy,
                         engine=engine)
            runs.append(("%s %s" % (label, policy), m.decisions))
            decisions += m.decisions
            timeouts += int(m.timed_out)
        totals[policy] = {"decisions": decisions, "timeouts": timeouts}
    return totals, runs


def _learning(engine: str) -> Tuple[dict, List[Tuple[str, int]]]:
    sample = learning_sample()
    totals: Dict[str, int] = {}
    runs = []
    for learning in (True, False):
        tag = "learning" if learning else "no-learning"
        for solver, solve in (("PO", solve_po), ("TO", solve_to)):
            total = 0
            for label, phi in sample:
                m = solve(phi, label, budget=LEARNING_BUDGET, engine=engine,
                          learn_clauses=learning, learn_cubes=learning)
                runs.append(("%s %s (%s)" % (label, solver, tag), m.decisions))
                total += m.decisions
            totals["%s-decisions (%s)" % (solver, tag)] = total
    return totals, runs


def _cube_lengths(engine: str) -> Tuple[dict, List[Tuple[str, int]]]:
    """The Section VII-C effect: goods are shorter under the tree prefix."""
    means = {}
    runs = []
    for solver, form in (("PO", "tree"), ("TO", "prenex")):
        phi = diameter_qbf(SemaphoreModel(2), 2, form)
        stats = solve_po(phi, budget=LEARNING_BUDGET, engine=engine).stats
        runs.append(("sem2-n2 %s" % solver, stats.decisions))
        means[solver] = stats.learned_cube_lits / max(1, stats.learned_cubes)
    return means, runs


def _incremental(engine: str) -> Tuple[dict, List[Tuple[str, int]]]:
    """Section VII-C's sweep on the stable-id encoder, per family: bound by
    bound on one incremental solver, then from scratch."""
    config = SolverConfig(engine=engine)
    families = {}
    runs = []
    for family, size in INCREMENTAL_FAMILIES:
        model = model_by_name(family, size)
        inc = incremental_diameter(model, config)
        scratch = scratch_diameter(model, config)
        for kind, sweep in (("incremental", inc), ("scratch", scratch)):
            runs += [("%s/n=%d %s" % (model.name, n, kind), r.stats.decisions)
                     for n, r in enumerate(sweep.results)]
        families[model.name] = {
            "bfs_diameter": eccentricity(model),
            "incremental_diameter": inc.diameter,
            "scratch_diameter": scratch.diameter,
            "incremental_decisions": inc.total_decisions,
            "scratch_decisions": scratch.total_decisions,
            "retained_per_bound": inc.retained_per_bound,
            "gated": model.name in INCREMENTAL_GATED,
        }
    return families, runs


COUNTER_ON = config_key("fig6_counter", True)
COUNTER_OFF = config_key("fig6_counter", False)
#: every part of the bench, in run order. The kernel series go first, while
#: the process holds no other results, so their throughput is measured as
#: it always was.
SECTIONS = (
    COUNTER_ON, COUNTER_OFF, "fig6_semaphore",
    "ncf", "fpv", "dia", "prob", "fixed", "ncf_default_grid",
    "ablation_heuristic", "ablation_learning", "ablation_cube_lengths",
    "incremental_diameter",
)
#: the sections that run serially in this process.
_IN_PROCESS = {
    "ablation_heuristic": _heuristic,
    "ablation_learning": _learning,
    "ablation_cube_lengths": _cube_lengths,
    "incremental_diameter": _incremental,
}


def measure(name: str, engine: str, jobs: int) -> Section:
    """One section of the bench under ``engine``, named explicitly on every run."""
    suites = {
        "ncf": ("ncf", NCF_INSTANCES, NCF_BUDGET),
        "fpv": ("fpv", FPV_COUNT, FPV_BUDGET),
        "dia": ("dia", DIA_MAX_N, DIA_BUDGET),
        "prob": ("prob", EVAL06_COUNT, EVAL06_BUDGET),
        "fixed": ("fixed", EVAL06_COUNT, EVAL06_BUDGET),
        "ncf_default_grid": ("ncf", NCF_DEFAULT_INSTANCES, NCF_DEFAULT_BUDGET),
    }
    start = time.perf_counter()
    if name in suites:
        data = run_suite(*suites[name], jobs=jobs, wall_timeout=HARD_TIMEOUT_SECONDS,
                         engine=engine)
        runs = _pair_runs(data[0])
    elif name in (COUNTER_ON, COUNTER_OFF, "fig6_semaphore"):
        panel = FIG6_SEMAPHORE if name == "fig6_semaphore" else FIG6_COUNTER
        data = run_series(*panel, engine, pure=name != COUNTER_OFF)
        runs = [(r["instance"], r["decisions"]) for r in data.runs]
    else:
        data, runs = _IN_PROCESS[name](engine)
    return Section(data, runs, time.perf_counter() - start)


# -- the report ------------------------------------------------------------------


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def _columns(row: Table1Row) -> Dict[str, int]:
    return {k: v for k, v in asdict(row).items() if k not in ("suite", "strategy")}


def _table1(suite: str, results: List[PairResult]) -> Tuple[dict, List[Table1Row]]:
    """One suite's Table I rows and decision totals."""
    rows = table1_rows(suite, results, TIE_MARGIN)
    po = sum(r.po_run.decisions for r in results)
    to = {label: sum(r.to_run(key).decisions for r in results)
          for label, key in SUITES[suite].rows}
    summary = {
        "instances": len(results),
        "table1": {row.strategy: _columns(row) for row in rows},
        "po_decisions": po,
        "to_decisions": to,
        "po_over_to": {label: _ratio(po, total) for label, total in to.items()},
    }
    return summary, rows


def _scatter(points, title: str) -> dict:
    stats = summarize_scatter(points)
    geomean = stats.get("geomean_to_over_po")
    if geomean is not None and math.isnan(geomean):  # no pair completed on both sides
        stats["geomean_to_over_po"] = None
    return {
        **stats,
        "po_decisions": sum(p.po_cost for p in points),
        "to_decisions": sum(p.to_cost for p in points),
        "rendered": render_scatter(points, title=title).split("\n"),
    }


def _scaling(series: Series, title: str) -> dict:
    models = {}
    for po_line, to_line in zip(series.po, series.to):
        models[po_line.model_name.split(" ")[0]] = {
            "po_decisions": sum(c for _, c, _ in po_line.points),
            "to_decisions": sum(c for _, c, _ in to_line.points),
            "po_largest_solved": po_line.largest_solved,
            "to_largest_solved": to_line.largest_solved,
        }
    po = sum(m["po_decisions"] for m in models.values())
    to = sum(m["to_decisions"] for m in models.values())
    return {
        "models": models,
        "po_decisions": po,
        "to_decisions": to,
        "po_over_to": _ratio(po, to),
        "rendered": render_scaling(series.po + series.to, title=title).split("\n"),
    }


def _sections(measured: Dict[str, Dict[str, Section]]) -> Dict[str, dict]:
    """Aggregates, tables and figures of the reference runs; walls of every engine."""
    ref = measured[REFERENCE_ENGINE]

    def wall(*names: str) -> Dict[str, float]:
        return {engine: sum(sections[n].wall_seconds for n in names)
                for engine, sections in measured.items()}

    def table(summary: dict, rows: List[Table1Row], *names: str) -> dict:
        return dict(summary, wall_seconds=wall(*names),
                    rendered=render_table(rows).split("\n"))

    (ncf, _), (fpv, _), (dia, _), (prob, prob_dropped), (fixed, fixed_dropped) = (
        ref[name].data for name in ("ncf", "fpv", "dia", "prob", "fixed"))
    out: Dict[str, dict] = {}
    out["table1_ncf"] = table(*_table1("ncf", ncf), "ncf")
    out["table1_fpv"] = table(*_table1("fpv", fpv), "fpv")
    out["table1_dia"] = table(*_table1("dia", dia), "dia")
    prob_summary, prob_rows = _table1("prob", prob)
    fixed_summary, fixed_rows = _table1("fixed", fixed)
    note = (
        "filter (footnote 9, PO/TO > 20%%): prob kept %d dropped %d; "
        "fixed kept %d dropped %d"
        % (len(prob), prob_dropped, len(fixed), fixed_dropped)
    )
    out["table1_eval06"] = {
        "prob": dict(prob_summary, filtered_out=prob_dropped),
        "fixed": dict(fixed_summary, filtered_out=fixed_dropped),
        "wall_seconds": wall("prob", "fixed"),
        "rendered": (render_table(prob_rows + fixed_rows) + "\n" + note).split("\n"),
    }
    out["fig3_ncf"] = _scatter(
        setting_medians([(r.setting, r.to_best, r.po_run) for r in ncf]),
        "Figure 3: QUBE(TO)* (y) vs QUBE(PO) (x), NCF medians",
    )
    out["fig4_fpv"] = _scatter(
        [pair_point(r.instance, r.to_run("eu_au"), r.po_run) for r in fpv],
        "Figure 4: QUBE(TO) (y) vs QUBE(PO) (x), FPV",
    )
    out["fig5_dia"] = _scatter(
        [pair_point(r.instance, r.to_run("eu_au"), r.po_run) for r in dia],
        "Figure 5: QUBE(TO) (y) vs QUBE(PO) (x), DIA",
    )
    out["fig6_counter"] = dict(_scaling(
        ref[COUNTER_ON].data,
        "Figure 6 (left): diameter-test cost vs length, counter<N>",
    ), wall_seconds=wall(COUNTER_ON))
    out["fig6_semaphore"] = dict(_scaling(
        ref["fig6_semaphore"].data,
        "Figure 6 (right): diameter-test cost vs length, semaphore<N>",
    ), wall_seconds=wall("fig6_semaphore"))
    out["fig7_eval06"] = _scatter(
        [pair_point(r.instance, r.to_run("eu_au"), r.po_run) for r in prob + fixed],
        "Figure 7: QUBE(TO) (y) vs QUBE(PO) (x), PROB+FIXED after miniscoping",
    )
    policies = ref["ablation_heuristic"].data
    out["ablation_heuristic"] = {
        "policies": policies,
        "wall_seconds": wall("ablation_heuristic"),
        "rendered": render_kv(
            "Branching-policy ablation (total decisions on tree inputs)",
            {p: "%d decisions, %d timeouts" % (t["decisions"], t["timeouts"])
             for p, t in policies.items()},
        ).split("\n"),
    }
    learning = ref["ablation_learning"].data
    out["ablation_learning"] = {
        "decisions": learning,
        "wall_seconds": wall("ablation_learning"),
        "rendered": render_kv("Learning ablation (total decisions)", learning).split("\n"),
    }
    means = ref["ablation_cube_lengths"].data
    out["ablation_cube_lengths"] = {
        "po_mean_cube_lits": means["PO"],
        "to_mean_cube_lits": means["TO"],
        "wall_seconds": wall("ablation_cube_lengths"),
        "rendered": render_kv(
            "Average learned good length (Section VII-C effect)",
            {"tree prefix (PO)": "%.1f literals" % means["PO"],
             "total order (TO)": "%.1f literals" % means["TO"]},
        ).split("\n"),
    }
    # the NCF claims fail on this grid: reported so it stays visible, never
    # gated, never shrunk
    out["ncf_default_grid"] = dict(
        table(*_table1("ncf", ref["ncf_default_grid"].data[0]), "ncf_default_grid"),
        gated=False,
    )
    families = ref["incremental_diameter"].data
    strictly_fewer = all(f["incremental_decisions"] < f["scratch_decisions"]
                         for f in families.values())
    out["incremental_diameter"] = {
        "families": families,
        # over every family, the ungated ones included
        "incremental_strictly_fewer": strictly_fewer,
        "wall_seconds": wall("incremental_diameter"),
        "rendered": _render_incremental(families, strictly_fewer),
    }
    return out


def _render_incremental(families: Dict[str, dict], strictly_fewer: bool) -> List[str]:
    lines = [
        "Incremental vs scratch diameter sweeps (decisions over every bound)",
        "  %-12s %-22s %11s %8s %6s  %s" % (
            "model", "diameter bfs/inc/scr", "incremental", "scratch", "saved", "gated"),
    ]
    for model, f in families.items():
        lines.append("  %-12s %-22s %11d %8d %6d  %s" % (
            model,
            "%s/%s/%s" % (f["bfs_diameter"], f["incremental_diameter"],
                          f["scratch_diameter"]),
            f["incremental_decisions"], f["scratch_decisions"],
            f["scratch_decisions"] - f["incremental_decisions"],
            "yes" if f["gated"] else "no",
        ))
    lines.append("incremental strictly fewer on every family: %s" % strictly_fewer)
    return lines


# -- gates -------------------------------------------------------------------------

_OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
        ">": operator.gt, ">=": operator.ge}


def gate(name: str, value, op: str, bound) -> dict:
    """The claim ``value op bound`` as a named report entry."""
    return {"name": name, "value": value, "op": op, "bound": bound,
            "ok": bool(_OPS[op](value, bound))}


def ratio_gate(name: str, num: float, den: float, bound: float) -> dict:
    """The claim ``num <= bound * den``, reported as the ratio ``num / den``.

    The ratio is null on a zero denominator; the gate still decides on the
    totals, so a zero TO total admits only a zero PO total.
    """
    return {"name": name, "value": _ratio(num, den), "op": "<=", "bound": bound,
            "ok": num <= bound * den}


def _solved(largest: Optional[int]) -> int:
    return -1 if largest is None else largest


def paper_gates(sections: Dict[str, dict], configs: Sequence[dict]) -> List[dict]:
    """Every shape claim of the paper, plus the kernel pins, as named gates.

    A pure function of the report's aggregates, so each bound can be checked
    without running a grid.
    """
    gates = []
    # Table I: PO at par or ahead in aggregate decisions under every
    # strategy, and never with more one-sided timeouts than TO.
    for name in ("table1_ncf", "table1_fpv", "table1_dia"):
        suite = sections[name]
        for label, to_total in suite["to_decisions"].items():
            row = suite["table1"][label]
            gates.append(ratio_gate("%s.%s.po_over_to" % (name, label),
                                    suite["po_decisions"], to_total, 1.1))
            gates.append(gate("%s.%s.po_only_timeouts" % (name, label),
                              row["po_timeout_only"], "<=", row["to_timeout_only"]))
    eval06 = sections["table1_eval06"]
    for kind in ("prob", "fixed"):
        gates.append(ratio_gate("table1_eval06.%s.po_over_to" % kind,
                                eval06[kind]["po_decisions"],
                                eval06[kind]["to_decisions"]["eu_au"], 1.1))
    # the structure filter must drop some probabilistic instances
    gates.append(gate("table1_eval06.prob.filtered_out",
                      eval06["prob"]["filtered_out"], ">", 0))
    # Figure 3: no timed-out PO median without a timed-out TO* median
    fig = sections["fig3_ncf"]
    gates.append(gate("fig3_ncf.po_timeouts", fig["po_timeouts"], "<=", fig["to_timeouts"]))
    for name in ("fig4_fpv", "fig5_dia", "fig7_eval06"):
        fig = sections[name]
        gates.append(ratio_gate(name + ".po_over_to", fig["po_decisions"],
                                fig["to_decisions"], 1.1))
    fig = sections["fig5_dia"]
    gates.append(gate("fig5_dia.po_timeouts", fig["po_timeouts"], "<=", fig["to_timeouts"]))
    # Figure 6: PO's curve grows more slowly and never solves fewer lengths
    for model, line in sections["fig6_counter"]["models"].items():
        gates.append(ratio_gate("fig6_counter.%s.po_over_to" % model,
                                line["po_decisions"], line["to_decisions"], 1.3))
        gates.append(gate("fig6_counter.%s.largest_solved" % model,
                          _solved(line["po_largest_solved"]), ">=",
                          _solved(line["to_largest_solved"])))
    fig = sections["fig6_semaphore"]
    gates.append(ratio_gate("fig6_semaphore.po_over_to", fig["po_decisions"],
                            fig["to_decisions"], 1.3))
    # the default prefix-aware policy beats the tree-blind ones
    policies = sections["ablation_heuristic"]["policies"]
    gates.append(gate("ablation_heuristic.levelsub_decisions",
                      policies["levelsub"]["decisions"], "<=",
                      policies["counter"]["decisions"]))
    gates.append(gate("ablation_heuristic.levelsub_timeouts",
                      policies["levelsub"]["timeouts"], "<=",
                      min(p["timeouts"] for p in policies.values())))
    # learning helps both variants, and PO stays ahead of TO with it on
    learning = sections["ablation_learning"]["decisions"]
    for solver in ("PO", "TO"):
        gates.append(gate("ablation_learning.%s_learning_helps" % solver.lower(),
                          learning["%s-decisions (learning)" % solver], "<=",
                          learning["%s-decisions (no-learning)" % solver]))
    gates.append(ratio_gate("ablation_learning.po_over_to",
                            learning["PO-decisions (learning)"],
                            learning["TO-decisions (learning)"], 1.2))
    lengths = sections["ablation_cube_lengths"]
    gates.append(gate("ablation_cube_lengths.po_shorter",
                      lengths["po_mean_cube_lits"], "<", lengths["to_mean_cube_lits"]))
    # retained constraints save decisions on the gated families, and no sweep
    # of any family misses the explicit-state diameter
    families = sections["incremental_diameter"]["families"]
    for model, f in families.items():
        if f["gated"]:
            gates.append(gate("incremental_diameter.%s.incremental_fewer" % model,
                              f["incremental_decisions"], "<", f["scratch_decisions"]))
    gates.append(gate("incremental_diameter.diameters_match_bfs",
                      sum(f[key] != f["bfs_diameter"] for f in families.values()
                          for key in ("incremental_diameter", "scratch_diameter")),
                      "==", 0))
    for config in configs:
        gates.append(gate("kernel.%s.decisions" % config["key"], config["decisions"],
                          "==", PINNED_DECISIONS[config["pure_literals"]]))
    return gates


# -- the kernel rows and the whole report --------------------------------------------


def _aggregate(series: Series) -> dict:
    totals = {
        key: sum(r[key] for r in series.runs)
        for key in ("decisions", "propagations", "clause_visits", "cube_visits")
    }
    # rates over in-solver time: instance construction does not dilute them
    solve_seconds = series.solve_seconds
    return {
        "wall_seconds": series.wall_seconds,
        "solve_seconds": solve_seconds,
        **totals,
        "decisions_per_second": _ratio(totals["decisions"], solve_seconds),
        "propagations_per_second": _ratio(totals["propagations"], solve_seconds),
        "clause_visits_per_second": _ratio(totals["clause_visits"], solve_seconds),
    }


def _against_baseline(key: str, series: Series) -> Optional[dict]:
    base = PR3_BASELINE.get(key)
    if base is None:
        return None
    return {
        "label": PR3_BASELINE_LABEL,
        "baseline_wall_seconds": base["wall_seconds"],
        "baseline_decisions": base["decisions"],
        "wall_speedup": _ratio(base["wall_seconds"], series.wall_seconds),
        "decisions_identical":
            sum(r["decisions"] for r in series.runs) == base["decisions"],
    }


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
        ref = by_key.get(config_key(REFERENCE_ENGINE, c["pure_literals"]))
        if ref and ref["decisions_per_second"] and c["decisions_per_second"]:
            out[key] = c["decisions_per_second"] / ref["decisions_per_second"]
    return out or None


def _identity_mismatches(
    reference: List[Tuple[str, int]], runs: List[Tuple[str, int]]
) -> List[dict]:
    mismatches = [
        {"expected": list(ref), "got": list(run)}
        for ref, run in zip(reference, runs) if ref != run
    ]
    if len(reference) != len(runs):
        mismatches.append({"expected_runs": len(reference), "got_runs": len(runs)})
    return mismatches


def build_report(
    measured: Dict[str, Dict[str, Section]], kernel: dict, jobs: int
) -> dict:
    """The report of one bench: identity, kernel rows, aggregates and gates.

    ``measured`` maps each engine to its sections, the reference first.
    """
    ref = measured[REFERENCE_ENGINE]
    mismatches = [
        dict(section=name, engine=engine, **m)
        for engine, sections in measured.items() if engine != REFERENCE_ENGINE
        for name, section in sections.items()
        for m in _identity_mismatches(ref[name].runs, section.runs)
    ]
    configs = []
    for pure, name in ((True, COUNTER_ON), (False, COUNTER_OFF)):
        for engine, sections in measured.items():
            key = config_key(engine, pure)
            series = sections[name].data
            entry = {
                "key": key,
                "engine": engine,
                "pure_literals": pure,
                **_aggregate(series),
                "runs": series.runs,
                "baseline": _against_baseline(key, series),
            }
            if engine != REFERENCE_ENGINE:
                entry["decision_identity_vs_counters"] = not any(
                    m["engine"] == engine and m["section"] == name for m in mismatches)
            configs.append(entry)
    sections = _sections(measured)
    gates = paper_gates(sections, configs)
    return {
        "schema": SCHEMA,
        "generated_by": "repro bench",
        "jobs": jobs,
        "engines": list(measured),
        "reference_engine": REFERENCE_ENGINE,
        "decision_identity_ok": not mismatches,
        "gates_ok": all(g["ok"] for g in gates),
        "identity_mismatches": mismatches,
        "kernel": kernel,
        "grid": _grid(),
        "gates": gates,
        "sections": sections,
        "native_speedup_vs_counters": _native_speedups(configs),
        "baseline": {"label": PR3_BASELINE_LABEL, "configs": PR3_BASELINE},
        "configs": configs,
    }


def _grid() -> dict:
    def budget(b: Budget) -> dict:
        return {"decisions": b.decisions, "seconds": b.seconds}

    def panel(family: str, sizes: Sequence[int], cap: int) -> dict:
        return {"family": family, "sizes": list(sizes), "max_n_cap": cap,
                "decisions": FIG6_DECISIONS}

    return {
        "ncf": dict(instances_per_setting=NCF_INSTANCES, **budget(NCF_BUDGET)),
        "fpv": dict(instances=FPV_COUNT, **budget(FPV_BUDGET)),
        "dia": dict(max_n=DIA_MAX_N, **budget(DIA_BUDGET)),
        "eval06": dict(instances=EVAL06_COUNT, **budget(EVAL06_BUDGET)),
        "ncf_default_grid": dict(instances_per_setting=NCF_DEFAULT_INSTANCES,
                                 **budget(NCF_DEFAULT_BUDGET)),
        "fig6_counter": panel(*FIG6_COUNTER),
        "fig6_semaphore": panel(*FIG6_SEMAPHORE),
        "ablation_heuristic": budget(HEURISTIC_BUDGET),
        "ablation_learning": budget(LEARNING_BUDGET),
        "incremental_diameter": {
            "families": ["%s%d" % pair for pair in INCREMENTAL_FAMILIES],
            "gated": list(INCREMENTAL_GATED),
        },
        "tie_margin": TIE_MARGIN,
        "hard_timeout_seconds": HARD_TIMEOUT_SECONDS,
    }


class EngineDivergence(AssertionError):
    """A backend produced different decision counts than the reference.

    Carries the full report so the caller can persist it for triage before
    failing the run.
    """

    def __init__(self, report: dict):
        bad = sorted({"%s (%s)" % (m["section"], m["engine"])
                      for m in report["identity_mismatches"]})
        super().__init__("decision counts diverged from counters: %s" % ", ".join(bad))
        self.report = report


def run_bench() -> dict:
    """Run the whole bench under every engine this build can run.

    Each section runs under every engine back to back, the reference
    first. ``native`` joins when the compiled kernel is importable;
    otherwise the ``kernel`` block records the import error and that the
    counters rows stand in for it. The pool takes one worker per CPU.
    Raises :class:`EngineDivergence` on any identity break.
    """
    kernel = {
        "available": native_available(),
        "version": kernel_version(),
        "import_error": native_import_error(),
    }
    engines = [REFERENCE_ENGINE]
    if kernel["available"]:
        engines.append("native")
    else:
        kernel["fallback"] = REFERENCE_ENGINE
    jobs = os.cpu_count() or 1
    measured: Dict[str, Dict[str, Section]] = {e: {} for e in engines}
    for name in SECTIONS:
        for engine in engines:  # back to back, so same-run ratios compare
            measured[engine][name] = measure(name, engine, jobs)
    report = build_report(measured, kernel, jobs)
    if not report["decision_identity_ok"]:
        raise EngineDivergence(report)
    return report


def render_report(report: dict) -> str:
    """Every table and figure, the gates and the kernel rows, as text."""
    lines = [
        "repro bench — Table I, Figures 3-7, ablations, incremental sweeps "
        "and kernel rows",
        "engines: %s (reference %s), %d worker process(es)"
        % (", ".join(report["engines"]), report["reference_engine"], report["jobs"]),
    ]
    for name, section in report["sections"].items():
        lines += ["", "== %s%s" % (name, "" if section.get("gated", True)
                                    else " (ungated)")]
        lines += section["rendered"]
        if "wall_seconds" in section:
            lines.append("wall: " + "  ".join(
                "%s %.2fs" % item for item in section["wall_seconds"].items()))
    failed = [g for g in report["gates"] if not g["ok"]]
    lines += ["", "gates: %d/%d ok" % (len(report["gates"]) - len(failed),
                                       len(report["gates"]))]
    for g in failed:
        lines.append("  FAILED %s: %s %s %s" % (g["name"], g["value"], g["op"], g["bound"]))
    series = report["grid"]["fig6_counter"]
    lines += [
        "",
        "kernel rows — Figure-6 counter series, sizes=%s max_n_cap=%d budget=%d decisions"
        % (tuple(series["sizes"]), series["max_n_cap"], series["decisions"]),
        "  %-22s %10s %12s %14s %10s" % (
            "config", "wall", "decisions", "decisions/sec", "speedup"),
    ]
    for c in report["configs"]:
        base = c.get("baseline")
        speedup = "%.2fx" % base["wall_speedup"] if base and base["wall_speedup"] else "-"
        lines.append("  %-22s %9.2fs %12d %14.0f %10s" % (
            c["key"], c["wall_seconds"], c["decisions"],
            c["decisions_per_second"] or 0.0, speedup,
        ))
    lines.append("")
    if report["decision_identity_ok"]:
        lines.append("decision identity vs %s: ok" % report["reference_engine"])
    else:
        lines.append("decision identity vs %s: DIVERGED" % report["reference_engine"])
        for m in report["identity_mismatches"]:
            lines.append("  %s" % json.dumps(m))
    kernel = report["kernel"]
    if kernel["available"]:
        lines.append("native kernel: available (version %s)" % kernel["version"])
    else:
        lines.append(
            "native kernel: UNAVAILABLE (%s) — native rows fell back to counters"
            % kernel["import_error"]
        )
    for key, speedup in sorted((report["native_speedup_vs_counters"] or {}).items()):
        lines.append("native speedup vs counters (%s): %.2fx decisions/sec"
                     % (key.split("/", 1)[1], speedup))
    lines.append("baseline: %s" % PR3_BASELINE_LABEL)
    return "\n".join(lines)


def write_report(report: dict, path: str) -> None:
    """Strict JSON: a NaN or infinity raises instead of corrupting the file."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, allow_nan=False)
        handle.write("\n")
