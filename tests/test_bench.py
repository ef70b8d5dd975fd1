"""The paper bench (``repro bench``): gates, identity, report and CLI."""

import copy
import json

import pytest

from repro import bench
from repro.cli import main
from repro.evalx.runner import Budget
from repro.prenexing.strategies import STRATEGIES
from repro.smv.diameter import diameter_qbf
from repro.smv.models import SemaphoreModel

#: the 31 shape claims of Table I, Figures 3-7 and the ablations.
SHAPE_GATES = 31
SECTIONS = [
    "table1_ncf", "table1_fpv", "table1_dia", "table1_eval06",
    "fig3_ncf", "fig4_fpv", "fig5_dia", "fig6_counter", "fig6_semaphore",
    "fig7_eval06", "ablation_heuristic", "ablation_learning",
    "ablation_cube_lengths", "ncf_default_grid",
]


# -- gate kinds -------------------------------------------------------------------


@pytest.mark.parametrize("num, ok", [(109, True), (110, True), (111, False)])
def test_ratio_gate_inside_at_and_past_its_bound(num, ok):
    g = bench.ratio_gate("g", num, 100, 1.1)
    assert g == {"name": "g", "value": num / 100, "op": "<=", "bound": 1.1, "ok": ok}


@pytest.mark.parametrize("num, ok", [(0, True), (1, False)])
def test_ratio_gate_zero_denominator_is_null_and_decides_on_counts(num, ok):
    g = bench.ratio_gate("g", num, 0, 1.1)
    assert g["value"] is None and g["ok"] is ok


@pytest.mark.parametrize("op, value, bound, ok", [
    ("<=", 0, 1, True), ("<=", 1, 1, True), ("<=", 2, 1, False),
    ("<", 9.8, 21.9, True), ("<", 21.9, 21.9, False), ("<", 22.0, 21.9, False),
    (">", 1, 0, True), (">", 0, 0, False),
    ("==", 13103, 13103, True), ("==", 13104, 13103, False),
])
def test_gate_inside_at_and_past_its_bound(op, value, bound, ok):
    assert bench.gate("g", value, op, bound)["ok"] is ok


# -- paper_gates on hand-built aggregates --------------------------------------------


def _suite(po, to, labels=("eu_au",)):
    row = {"po_timeout_only": 0, "to_timeout_only": 0}
    return {"po_decisions": po, "to_decisions": {s: to for s in labels},
            "table1": {s: dict(row) for s in labels}}


def _sections():
    """Aggregates where every shape gate sits exactly on its bound."""
    line = {"po_decisions": 130, "to_decisions": 100,
            "po_largest_solved": 7, "to_largest_solved": 7}
    return {
        "table1_ncf": _suite(110, 100, STRATEGIES),
        "table1_fpv": _suite(110, 100),
        "table1_dia": _suite(110, 100, ("eq16",)),
        "table1_eval06": {"prob": dict(_suite(110, 100), filtered_out=1),
                          "fixed": dict(_suite(110, 100), filtered_out=0)},
        "fig3_ncf": {"po_timeouts": 1, "to_timeouts": 1},
        "fig4_fpv": {"po_decisions": 110, "to_decisions": 100},
        "fig5_dia": {"po_decisions": 110, "to_decisions": 100,
                     "po_timeouts": 1, "to_timeouts": 1},
        "fig6_counter": {"models": {"counter2": dict(line), "counter3": dict(line)}},
        "fig6_semaphore": {"po_decisions": 130, "to_decisions": 100},
        "fig7_eval06": {"po_decisions": 110, "to_decisions": 100},
        "ablation_heuristic": {"policies": {
            p: {"decisions": 100, "timeouts": 0} for p in bench.POLICIES}},
        "ablation_learning": {"decisions": {
            "PO-decisions (learning)": 120, "PO-decisions (no-learning)": 120,
            "TO-decisions (learning)": 100, "TO-decisions (no-learning)": 100}},
        "ablation_cube_lengths": {"po_mean_cube_lits": 9.8, "to_mean_cube_lits": 21.9},
    }


CONFIGS = [{"key": "counters/pure=on", "pure_literals": True, "decisions": 13103},
           {"key": "counters/pure=off", "pure_literals": False, "decisions": 35669}]


def test_paper_gates_at_their_bounds_all_hold():
    gates = bench.paper_gates(_sections(), CONFIGS)
    assert len(gates) == SHAPE_GATES + len(CONFIGS)
    assert len({g["name"] for g in gates}) == len(gates)
    assert all(g["ok"] for g in gates), [g for g in gates if not g["ok"]]


def _set(path, value):
    def mutate(sections):
        *parents, leaf = path.split("/")
        node = sections
        for key in parents:
            node = node[key]
        node[leaf] = value
    return mutate


@pytest.mark.parametrize("mutate, failing", [
    (_set("table1_ncf/po_decisions", 111),
     {"table1_ncf.%s.po_over_to" % s for s in STRATEGIES}),
    (_set("table1_dia/table1/eq16/po_timeout_only", 1),
     {"table1_dia.eq16.po_only_timeouts"}),
    (_set("table1_eval06/fixed/to_decisions/eu_au", 99),
     {"table1_eval06.fixed.po_over_to"}),
    (_set("table1_eval06/prob/filtered_out", 0), {"table1_eval06.prob.filtered_out"}),
    (_set("fig3_ncf/po_timeouts", 2), {"fig3_ncf.po_timeouts"}),
    (_set("fig7_eval06/po_decisions", 111), {"fig7_eval06.po_over_to"}),
    (_set("fig6_counter/models/counter3/po_decisions", 131),
     {"fig6_counter.counter3.po_over_to"}),
    (_set("fig6_counter/models/counter2/po_largest_solved", None),
     {"fig6_counter.counter2.largest_solved"}),
    (_set("fig6_semaphore/to_decisions", 99), {"fig6_semaphore.po_over_to"}),
    (_set("ablation_heuristic/policies/counter/decisions", 99),
     {"ablation_heuristic.levelsub_decisions"}),
    (_set("ablation_heuristic/policies/naive/timeouts", -1),
     {"ablation_heuristic.levelsub_timeouts"}),
    (_set("ablation_learning/decisions/TO-decisions (learning)", 99),
     {"ablation_learning.po_over_to"}),
    (_set("ablation_learning/decisions/PO-decisions (no-learning)", 119),
     {"ablation_learning.po_learning_helps"}),
    (_set("ablation_cube_lengths/po_mean_cube_lits", 21.9),
     {"ablation_cube_lengths.po_shorter"}),
])
def test_paper_gates_one_step_past_a_bound_fail_by_name(mutate, failing):
    sections = _sections()
    mutate(sections)
    gates = bench.paper_gates(sections, CONFIGS)
    assert {g["name"] for g in gates if not g["ok"]} == failing


def test_kernel_pins_gate_every_config():
    configs = CONFIGS + [{"key": "native/pure=on", "pure_literals": True, "decisions": 13102}]
    gates = bench.paper_gates(_sections(), configs)
    assert [g["name"] for g in gates if not g["ok"]] == ["kernel.native/pure=on.decisions"]


# -- the whole report, on a tiny grid ------------------------------------------------


@pytest.fixture(scope="module")
def tiny_sections():
    """Every section of the bench measured once, serially, on a tiny grid."""
    tiny = Budget(decisions=60)
    sample = [("sem1-n1", diameter_qbf(SemaphoreModel(1), 1, "tree"))]
    with pytest.MonkeyPatch.context() as mp:
        for name, value in [
            ("NCF_INSTANCES", 1), ("NCF_BUDGET", tiny), ("FPV_COUNT", 2),
            ("FPV_BUDGET", tiny), ("DIA_MAX_N", 0), ("DIA_BUDGET", tiny),
            ("EVAL06_COUNT", 4), ("EVAL06_BUDGET", tiny),
            ("NCF_DEFAULT_INSTANCES", 0),
            ("FIG6_COUNTER", ("counter", (2, 3), 0)),
            ("FIG6_SEMAPHORE", ("semaphore", (1,), 1)),
            ("HEURISTIC_BUDGET", tiny), ("LEARNING_BUDGET", tiny),
            ("heuristic_sample", lambda: sample), ("learning_sample", lambda: sample),
        ]:
            mp.setattr(bench, name, value)
        return {name: bench.measure(name, "counters", 1) for name in bench.SECTIONS}


@pytest.fixture
def canned(monkeypatch, tiny_sections):
    """``run_bench`` measures nothing: each engine gets a copy of the tiny runs."""
    monkeypatch.setattr(bench, "measure",
                        lambda name, engine, jobs: copy.deepcopy(tiny_sections[name]))
    monkeypatch.setattr(bench, "native_available", lambda: False)


def test_tiny_report_has_every_section_and_gate(canned):
    report = bench.run_bench()
    assert report["schema"] == bench.SCHEMA
    assert report["engines"] == ["counters"]
    assert report["kernel"]["fallback"] == "counters"
    assert list(report["sections"]) == SECTIONS
    assert len(report["gates"]) == SHAPE_GATES + 2
    assert report["decision_identity_ok"] and report["identity_mismatches"] == []
    assert report["sections"]["ncf_default_grid"]["gated"] is False
    assert not any(g["name"].startswith("ncf_default_grid") for g in report["gates"])
    text = bench.render_report(report)
    for section in report["sections"].values():
        assert "\n".join(section["rendered"]) in text


def test_one_decision_mismatch_raises_with_the_report(canned, monkeypatch):
    measure = bench.measure

    def skewed(name, engine, jobs):
        section = measure(name, engine, jobs)
        if (name, engine) == ("fpv", "native"):
            run, decisions = section.runs[0]
            section.runs[0] = (run, decisions + 1)
        return section

    monkeypatch.setattr(bench, "measure", skewed)
    monkeypatch.setattr(bench, "native_available", lambda: True)
    with pytest.raises(bench.EngineDivergence) as info:
        bench.run_bench()
    report = info.value.report
    assert report["engines"] == ["counters", "native"]
    assert not report["decision_identity_ok"]
    [mismatch] = report["identity_mismatches"]
    assert mismatch["section"] == "fpv" and mismatch["engine"] == "native"
    assert mismatch["got"][1] == mismatch["expected"][1] + 1
    assert all(c["decision_identity_vs_counters"]
               for c in report["configs"] if c["engine"] == "native")


def test_cli_writes_the_report_and_exits_1_on_a_failed_gate(canned, tmp_path, capsys):
    out = tmp_path / "BENCH_paper.json"
    # the tiny kernel series cannot reach the pinned decision totals
    assert main(["bench", "-o", str(out)]) == 1
    report = json.loads(out.read_text(), parse_constant=pytest.fail)
    assert report["decision_identity_ok"] and not report["gates_ok"]
    failed = {g["name"] for g in report["gates"] if not g["ok"]}
    assert {"kernel.counters/pure=on.decisions", "kernel.counters/pure=off.decisions"} <= failed
    assert "FAILED kernel.counters/pure=on.decisions" in capsys.readouterr().out


def test_write_report_is_strict_json(tmp_path):
    with pytest.raises(ValueError):
        bench.write_report({"ratio": float("nan")}, str(tmp_path / "r.json"))


@pytest.mark.parametrize("flag", ["--quick", "--profile"])
def test_retired_bench_flags_exit_2(flag):
    with pytest.raises(SystemExit) as info:
        main(["bench", flag])
    assert info.value.code == 2


# -- the Figure 6 loop -----------------------------------------------------------------


def test_run_series_smoke():
    series = bench.run_series("dme", (3,), 2, "counters")
    assert len(series.po) == len(series.to) == 1
    assert series.po[0].points
    assert len(series.runs) == 2 * len(series.po[0].points)
    assert [r["instance"] for r in series.runs[:2]] == ["dme3/n=0/PO", "dme3/n=0/TO"]
