"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.core.formula import paper_example
from repro.io import qdimacs, qtree
from repro.prenexing.strategies import STRATEGIES, prenex


@pytest.fixture
def tree_file(tmp_path):
    path = str(tmp_path / "eq1.qtree")
    qtree.dump(paper_example(), path)
    return path


@pytest.fixture
def prenex_file(tmp_path):
    path = str(tmp_path / "eq1.qdimacs")
    qdimacs.dump(prenex(paper_example(), "eu_au"), path)
    return path


class TestSolve:
    def test_solve_tree_false_exit_code(self, tree_file, capsys):
        assert main(["solve", tree_file]) == 20
        out = capsys.readouterr().out
        assert "FALSE" in out
        assert "decisions" in out

    def test_solve_qdimacs(self, prenex_file):
        assert main(["solve", prenex_file]) == 20

    def test_solve_with_to_pipeline(self, tree_file):
        assert main(["solve", tree_file, "--to", "--strategy", "ed_ad"]) == 20

    def test_solve_unknown_on_zero_budget(self, tree_file):
        assert main(["solve", tree_file, "--max-decisions", "0"]) == 2

    def test_solve_true_instance(self, tmp_path):
        path = str(tmp_path / "t.qtree")
        with open(path, "w") as f:
            f.write("t (a 1 (e 2))\n1 2 0\n-1 -2 0\n")
        assert main(["solve", path]) == 10

    def test_feature_flags(self, tree_file):
        assert main(["solve", tree_file, "--no-learning", "--no-pure",
                     "--policy", "naive"]) == 20


class TestTransforms:
    def test_prenex_writes_qdimacs(self, tree_file, tmp_path):
        out = str(tmp_path / "flat.qdimacs")
        assert main(["prenex", tree_file, "-o", out]) == 0
        assert qdimacs.load(out).is_prenex

    def test_miniscope_recovers_tree(self, prenex_file, tmp_path, capsys):
        out = str(tmp_path / "tree.qtree")
        assert main(["miniscope", prenex_file, "-o", out]) == 0
        assert not qtree.load(out).is_prenex
        assert "structure ratio" in capsys.readouterr().err

    def test_prenex_to_stdout(self, tree_file, capsys):
        assert main(["prenex", tree_file]) == 0
        assert "p qtree" in capsys.readouterr().out


class TestGenerateAndStats:
    def test_generate_ncf(self, tmp_path):
        out = str(tmp_path / "g.qtree")
        assert main(["generate", "ncf", "--dep", "3", "--var", "2",
                     "--cls", "4", "--lpc", "3", "--seed", "7", "-o", out]) == 0
        phi = qtree.load(out)
        assert not phi.is_prenex

    def test_generate_fpv(self, tmp_path):
        out = str(tmp_path / "g.qtree")
        assert main(["generate", "fpv", "-o", out]) == 0
        assert qtree.load(out).num_clauses > 0

    def test_stats(self, tree_file, capsys):
        assert main(["stats", tree_file]) == 0
        out = capsys.readouterr().out
        assert "variables     7" in out
        assert "prenex        no" in out
        assert "prefix level  3" in out


class TestCertify:
    def test_emit_and_check_roundtrip(self, tree_file, tmp_path, capsys):
        cert = str(tmp_path / "proof.jsonl")
        assert main(["certify", "emit", tree_file, "-o", cert]) == 0
        out = capsys.readouterr().out
        assert "FALSE" in out
        assert "verified" in out
        assert main(["certify", "check", tree_file, cert]) == 0
        assert "verified" in capsys.readouterr().out

    def test_emit_to_pipeline_checks_against_tree(self, tree_file, tmp_path):
        cert = str(tmp_path / "proof.jsonl")
        # --to solves the prenex form; the self-check replays the proof
        # against the original tree formula and must still verify.
        assert main(["certify", "emit", tree_file, "--to", "-o", cert]) == 0
        assert main(["certify", "check", tree_file, cert]) == 0

    def test_check_rejects_tampered_certificate(self, tree_file, tmp_path, capsys):
        import json

        cert = str(tmp_path / "proof.jsonl")
        assert main(["certify", "emit", tree_file, "-o", cert, "--no-check"]) == 0
        rows = [json.loads(l) for l in open(cert)]
        for row in rows:
            if row.get("type") == "res":
                row["lits"] = list(row["lits"]) + [999]
                break
        with open(cert, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        assert main(["certify", "check", tree_file, cert]) == 1
        assert "invalid" in capsys.readouterr().out

    def test_stats_subcommand(self, tree_file, tmp_path, capsys):
        cert = str(tmp_path / "proof.jsonl")
        assert main(["certify", "emit", tree_file, "-o", cert]) == 0
        capsys.readouterr()
        assert main(["certify", "stats", cert]) == 0
        out = capsys.readouterr().out
        assert "resolutions" in out
        assert "outcome" in out

    def test_evalx_run_certify_smoke(self, capsys):
        assert main(["evalx", "run", "ncf", "--instances", "1",
                     "--decisions", "2000", "--certify"]) == 0
        out = capsys.readouterr().out
        assert "certificates:" in out
        assert "0 invalid" in out


#: suite -> (--instances, pairs solved, Table I title, its row labels)
EVALX_SUITES = {
    "ncf": ("1", 6, "NCF", list(STRATEGIES)),
    "fpv": ("2", 2, "FPV", ["eu_au"]),
    "dia": ("0", 10, "DIA", ["eq16"]),
    "prob": ("4", 2, "PROB", ["eu_au"]),
    "fixed": ("4", 4, "FIXED", ["eu_au"]),
}


@pytest.mark.parametrize("suite", list(EVALX_SUITES))
def test_evalx_run_prints_one_table1_row_per_strategy(suite, capsys):
    size, pairs, title, labels = EVALX_SUITES[suite]
    assert main(["evalx", "run", suite, "--instances", size, "--decisions", "200"]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line.split()[:1] == [title]]
    assert [row[1] for row in rows] == labels
    for row in rows:
        # >, < and = split the pairs: every pair is counted in exactly one
        assert sum(int(c) for c in row[2:5]) == pairs
    filtered = [line for line in out.splitlines() if line.startswith("structure filter")]
    assert filtered == (["structure filter dropped %d instance(s)" % (int(size) - pairs)]
                        if suite in ("prob", "fixed") else [])


def test_retired_cube_subcommand_exits_2(tree_file):
    with pytest.raises(SystemExit) as info:
        main(["cube", "run", tree_file])
    assert info.value.code == 2


@pytest.mark.parametrize("flags", [[], ["--quick"]])
def test_retired_serve_bench_subcommand_exits_2(flags):
    with pytest.raises(SystemExit) as info:
        main(["serve", "bench"] + flags)
    assert info.value.code == 2
