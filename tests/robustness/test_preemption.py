"""Graceful preemption: interrupt flags, signal handling, CLI exit codes.

Covers the cooperative interrupt path (flag polled next to the budget
checks, partial stats reported on the way out), the ``handling_signals``
context manager, and the ``repro solve`` exit-code contract — the latter
through real subprocesses, signals included, because that is the only way
the contract is actually consumed.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.core.result import Outcome
from repro.core.solver import QdpllSolver, SolverConfig
from repro.generators.ncf import NcfParams, generate_ncf
from repro.robustness import InterruptFlag, global_flag, handling_signals

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def small_ncf(seed=0):
    return generate_ncf(NcfParams(dep=6, var=3, cls=9, lpc=5, seed=seed))


#: an instance the Python engine chews on for tens of seconds — long enough
#: that a signal sent after startup reliably lands mid-search.
SLOW_NCF = dict(dep=6, var=8, cls=24, lpc=5, seed=0)


class TestInterruptFlag:
    def test_flag_lifecycle(self):
        flag = InterruptFlag()
        assert not flag and not flag.is_set()
        flag.set()
        assert flag and flag.is_set() and flag.last_signal is None
        flag.clear()
        assert not flag.is_set()
        flag.set(signal.SIGTERM, None)  # signal-handler calling convention
        assert flag.is_set() and flag.last_signal == signal.SIGTERM

    def test_preset_flag_interrupts_immediately(self):
        flag = InterruptFlag()
        flag.set()
        result = QdpllSolver(small_ncf(), SolverConfig(), interrupt=flag).solve()
        assert result.outcome is Outcome.UNKNOWN
        assert result.interrupted
        assert result.stats.decisions == 0  # stopped at the first poll

    def test_callable_interrupt_mid_search(self):
        # Interrupt via a plain callable after a few polls: the run stops
        # UNKNOWN with the stats it spent, short of the uninterrupted run.
        phi = small_ncf()
        baseline = QdpllSolver(phi, SolverConfig(max_decisions=100000)).solve()
        polls = [0]

        def tripwire():
            polls[0] += 1
            return polls[0] > 40

        cut = QdpllSolver(
            phi, SolverConfig(max_decisions=100000), interrupt=tripwire
        ).solve()
        assert cut.interrupted and cut.outcome is Outcome.UNKNOWN
        assert 0 < cut.stats.decisions < baseline.stats.decisions
        assert not baseline.interrupted and baseline.outcome is not Outcome.UNKNOWN

    def test_determinate_run_ignores_late_flag(self):
        # A flag that never trips must not perturb the run.
        flag = InterruptFlag()
        plain = QdpllSolver(small_ncf(), SolverConfig()).solve()
        flagged = QdpllSolver(small_ncf(), SolverConfig(), interrupt=flag).solve()
        assert flagged.outcome is plain.outcome
        assert flagged.stats.decisions == plain.stats.decisions
        assert not flagged.interrupted


class TestHandlingSignals:
    def test_installs_and_restores_handlers(self):
        flag = InterruptFlag()
        before = signal.getsignal(signal.SIGTERM)
        with handling_signals(flag):
            assert signal.getsignal(signal.SIGTERM) == flag.set
            os.kill(os.getpid(), signal.SIGTERM)
            assert flag.is_set() and flag.last_signal == signal.SIGTERM
        assert signal.getsignal(signal.SIGTERM) == before

    def test_defaults_to_global_flag(self):
        global_flag().clear()
        with handling_signals():
            os.kill(os.getpid(), signal.SIGTERM)
            assert global_flag().is_set()
        global_flag().clear()


def run_cli(*argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro.cli"] + list(argv),
        env=env, capture_output=True, text=True, cwd=REPO, **kwargs
    )


@pytest.fixture(scope="module")
def qtree_file(tmp_path_factory):
    from repro.io import qtree

    path = str(tmp_path_factory.mktemp("cli") / "inst.qtree")
    qtree.dump(small_ncf(), path)
    return path


class TestCliExitCodes:
    """The stable contract: 10 TRUE, 20 FALSE, 2 budget-unknown, 3 preempted."""

    def test_true_is_10(self, qtree_file):
        proc = run_cli("solve", qtree_file)
        assert proc.returncode == 10, proc.stdout + proc.stderr
        assert "result      TRUE" in proc.stdout

    def test_false_is_20(self, tmp_path):
        from repro.io import qtree

        path = str(tmp_path / "false.qtree")
        qtree.dump(
            generate_ncf(NcfParams(dep=5, var=4, cls=12, lpc=4, seed=7)), path
        )
        proc = run_cli("solve", path)
        assert proc.returncode == 20, proc.stdout + proc.stderr
        assert "result      FALSE" in proc.stdout

    def test_budget_unknown_is_2(self, qtree_file):
        cut = run_cli("solve", qtree_file, "--max-decisions", "3")
        assert cut.returncode == 2, cut.stdout + cut.stderr
        assert "budget exhausted" in cut.stdout
        assert "decisions   3\n" in cut.stdout
        # the same instance with room to finish reaches its verdict
        assert run_cli("solve", qtree_file).returncode == 10

    def test_plain_solve_sigterm_is_3_with_partial_stats(self, tmp_path):
        # No flag needed: `repro solve` always turns SIGTERM into the
        # cooperative stop, so the signal yields stats, not a dead process.
        from repro.io import qtree

        inst = str(tmp_path / "slow.qtree")
        qtree.dump(generate_ncf(NcfParams(**SLOW_NCF)), inst)
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "solve", inst],
            env=env, cwd=REPO,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        time.sleep(2.5)  # past interpreter startup, well into the search
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 3, (proc.returncode, out, err)
        assert "result      UNKNOWN" in out
        assert out.rstrip().endswith("interrupted"), out
        (line,) = [l for l in out.splitlines() if l.startswith("decisions")]
        assert int(line.split()[1]) > 0, out

    @pytest.mark.parametrize("argv", [
        ["solve", "x.qtree", "--checkpoint", "p"],
        ["evalx", "run", "ncf", "--checkpoint-dir", "d"],
        ["serve", "run", "--socket", "s.sock", "--checkpoint-dir", "d"],
    ], ids=["solve", "evalx-run", "serve-run"])
    def test_retired_checkpoint_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --checkpoint" in capsys.readouterr().err

    def test_retired_no_fsync_flag_exits_2(self, capsys):
        # sweeps always fsync their results rows
        with pytest.raises(SystemExit) as exc:
            main(["evalx", "run", "ncf", "--no-fsync"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-fsync" in capsys.readouterr().err
