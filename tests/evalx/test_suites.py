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
    run_dia,
    run_eval06,
    run_fpv,
    run_ncf,
)

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


class TestRunners:
    def test_run_ncf_smoke(self):
        results = run_ncf(budget=TINY, instances=1, strategies=("eu_au",))
        assert len(results) == 6
        for r in results:
            assert isinstance(r, PairResult)
            assert r.po_run.solver == "PO"
            assert r.to_run("eu_au").solver == "TO(eu_au)"
            assert r.to_best is r.to_run("eu_au")

    def test_run_fpv_smoke(self):
        results = run_fpv(budget=TINY, count=2)
        assert len(results) == 2

    def test_run_dia_smoke(self):
        results = run_dia(budget=TINY, max_n_cap=0)
        assert results
        # Each model contributes n = 0 .. min(d+1, 0)+1 instances.
        assert all("-n" in r.instance for r in results)

    def test_run_eval06_smoke(self):
        kept, filtered = run_eval06("prob", budget=TINY, count=4)
        assert len(kept) + filtered == pytest.approx(4, abs=0)


def test_engine_overrides_name_every_non_default_engine(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    # the default keeps the fingerprints of existing results files
    assert engine_overrides("counters") == ()
    assert engine_overrides("native") == (("engine", "native"),)
    # REPRO_ENGINE must not turn a counters task into a native one
    monkeypatch.setenv("REPRO_ENGINE", "native")
    assert engine_overrides("counters") == (("engine", "counters"),)
