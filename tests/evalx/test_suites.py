"""Smoke tests for the experiment suites (tiny budgets, tiny pools)."""

import pytest

from repro.core.result import Outcome
from repro.evalx.runner import Budget
from repro.evalx.suites import (
    PairResult,
    dia_instances,
    engine_overrides,
    eval06_instances,
    fpv_instances,
    ncf_settings,
    run_suite,
)
from repro.prenexing.strategies import STRATEGIES

TINY = Budget(decisions=200, seconds=5.0)


class TestPools:
    def test_ncf_settings_grid(self):
        settings = ncf_settings(instances=2)
        assert len(settings) == 6
        labels = [label for label, _ in settings]
        assert len(set(labels)) == 6
        for _, params in settings:
            assert len(params) == 2

    def test_fpv_instances_distinct(self):
        pool = fpv_instances(count=5)
        assert len({p.label for p in pool}) == 5

    def test_dia_instances_cover_families(self):
        triples = dia_instances(max_n_cap=1)
        names = {label.rsplit("-", 1)[0] for label, _, _ in triples}
        assert any(n.startswith("counter") for n in names)
        assert any(n.startswith("dme") for n in names)
        assert any(n.startswith("semaphore") for n in names)
        for _, tree, flat in triples:
            assert flat.is_prenex

    def test_eval06_instances_are_prenex(self):
        for kind in ("prob", "fixed"):
            for _, phi in eval06_instances(kind, count=4):
                assert phi.is_prenex

    def test_eval06_bad_kind(self):
        with pytest.raises(ValueError):
            eval06_instances("quantum", count=1)


#: suite -> (size, pairs, filtered out, TO run labels by strategy)
SWEEPS = {
    "ncf": (1, 6, 0, {s: "TO(%s)" % s for s in STRATEGIES}),
    "fpv": (2, 2, 0, {"eu_au": "TO(eu_au)"}),
    # one bound (n = 0) per model
    "dia": (0, 10, 0, {"eu_au": "TO(eq16)"}),
    "prob": (4, 2, 2, {"eu_au": "TO(eu_au)"}),
    "fixed": (4, 4, 0, {"eu_au": "TO(eu_au)"}),
}


@pytest.mark.parametrize("suite", list(SWEEPS))
def test_run_suite(suite):
    size, count, dropped, labels = SWEEPS[suite]
    pairs, filtered_out = run_suite(suite, size, TINY)
    assert (len(pairs), filtered_out) == (count, dropped)
    assert len({r.instance for r in pairs}) == count
    for r in pairs:
        assert isinstance(r, PairResult)
        assert r.po_run.solver == "PO" and r.po_run.instance == r.instance
        assert {s: m.solver for s, m in r.to_runs.items()} == labels


def test_engine_overrides_name_every_non_default_engine(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    # the default keeps the fingerprints of existing results files
    assert engine_overrides("counters") == ()
    assert engine_overrides("native") == (("engine", "native"),)
    # REPRO_ENGINE must not turn a counters task into a native one
    monkeypatch.setenv("REPRO_ENGINE", "native")
    assert engine_overrides("counters") == (("engine", "counters"),)
