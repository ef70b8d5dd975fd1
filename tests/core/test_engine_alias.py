"""The retired ``watched`` engine name: an exact alias of ``counters``.

Command lines, ``REPRO_ENGINE`` settings and evalx results files written
while the watched backend existed must keep working.
"""

import json

from repro.cli import main
from repro.core.engine.counters import CounterBackend
from repro.core.solver import QdpllSolver, SolverConfig, solve
from repro.evalx.parallel import ResultsLog
from repro.generators.ncf import NcfParams, generate_ncf
from repro.io import qtree


def _phi():
    return generate_ncf(NcfParams(dep=6, var=3, cls=9, lpc=5, seed=0))


def test_config_and_environment_run_on_counters(monkeypatch):
    ref = solve(_phi(), SolverConfig(engine="counters"))
    monkeypatch.setenv("REPRO_ENGINE", "watched")
    for config in (SolverConfig(engine="watched"), SolverConfig()):
        assert config.engine == "counters"
        engine = QdpllSolver(_phi(), config)
        assert type(engine.backend) is CounterBackend
        result = engine.solve()
        assert result.stats.engine_fallback == ""
        assert result.stats == ref.stats


def test_cli_reports_the_engine_that_ran(tmp_path, capsys):
    path = str(tmp_path / "phi.qtree")
    qtree.dump(_phi(), path)
    main(["solve", path, "--engine", "watched"])
    assert "engine      counters\n" in capsys.readouterr().out


#: the resume keys the last release with the watched backend wrote for the
#: sweep below (``evalx run fpv --instances 1 --decisions 200 --engine
#: watched``); results files keyed by them must still resume.
LEGACY_FINGERPRINTS = {
    '{"decisions":200,"mode":"po","overrides":[["engine","watched"]],'
    '"seconds":null,"strategy":null}',
    '{"decisions":200,"mode":"to","overrides":[["engine","watched"]],'
    '"seconds":null,"strategy":"eu_au"}',
}


def test_evalx_results_keep_their_keys_and_resume(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    argv = ["evalx", "run", "fpv", "--instances", "1", "--decisions", "200",
            "--engine", "watched", "--results", path]
    main(argv)
    rows = [json.loads(line) for line in open(path)]
    assert {row["fingerprint"] for row in rows} == LEGACY_FINGERPRINTS
    # rows written by the watched backend also carried its swap counter
    for row in rows:
        row["measurement"]["stats"]["watcher_swaps"] = 230
    with open(path, "w") as handle:
        handle.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    before = open(path).read()
    main(argv)
    assert open(path).read() == before  # every task resumed, none re-ran
    loaded = ResultsLog(path).load()
    assert len(loaded) == len(rows)
    assert all(rec.measurement.stats.engine_fallback == "" for rec in loaded.values())

