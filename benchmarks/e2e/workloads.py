"""The four workloads of the end-to-end benchmark.

Each workload builds its inputs from a seed in :meth:`Workload.setup`, runs
them once per :meth:`Workload.run_pass` through the repository's public
entry points, and checks every verdict against an independent reference
while it goes. A pass returns a :class:`Pass`: its wall time, one
:class:`Op` per answer the caller received, and the work counters the
answers carried.

Seeds. Seed 0 is the reference input set, the paper's instances. Seed
``k > 0`` renames the variables of every fig6 and table1 formula onto ids
spread by seeded gaps, keeping their order, and draws the order of each
serve client's requests. The renaming keeps every branching tie-break, so
the search, and with it every decision pin, is the same at every seed.
Seeds that change the search were measured and do not fit a regression
bound: a variable permutation moved the fig6-pure pass by 24% and its
latency percentiles by 37% and 55%, and shifted table1 generator seeds moved
its latency percentiles by 50% (interquartile spread over ten seeds).
"""

from __future__ import annotations

import dataclasses
import os
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: SolverStats fields summed into the per-layer work counters.
STAT_FIELDS = (
    "decisions",
    "propagations",
    "conflicts",
    "solutions",
    "pure_literals",
    "clause_visits",
    "cube_visits",
    "learned_clauses",
    "learned_cubes",
    "learned_clause_lits",
    "learned_cube_lits",
)


@dataclasses.dataclass
class Op:
    """One answer the caller received."""

    kind: str
    #: (start, seconds) of every time the answer was timed: start is the
    #: perf_counter reading, or None where only the duration is known.
    timings: List[Tuple[Optional[float], float]]
    decided: bool = False
    wrong: bool = False
    failed: bool = False
    #: certificate status of a certified run, else None.
    certificate: Optional[str] = None
    #: the instance label, or the request id that joins a serve request's
    #: client latency with the daemon's span for it.
    rid: Optional[str] = None
    #: perf_counter readings between which an answer timed without a start
    #: ran, where narrower than its pass.
    window: Optional[Tuple[float, float]] = None
    #: the median timing at the reference host speed (set by run.py).
    seconds: float = 0.0

    @property
    def latency(self) -> float:
        """The first raw timing."""
        return self.timings[0][1]


@dataclasses.dataclass
class Pass:
    #: perf_counter reading when the pass began.
    start: float
    wall: float
    ops: List[Op]
    counts: Dict[str, float]
    #: human-readable correctness failures (wrong verdicts, broken pins).
    problems: List[str]
    #: engines the runs resolved to ("counters", or "watched (fallback)").
    engines: List[str]
    #: the wall time at the reference host speed (set by run.py).
    seconds: float = 0.0


def add_stats(counts: Dict[str, float], stats) -> None:
    """Sum a SolverStats (object or dict) into ``counts``."""
    get = stats.get if isinstance(stats, dict) else (lambda k, d=0: getattr(stats, k, d))
    for name in STAT_FIELDS:
        counts[name] = counts.get(name, 0) + (get(name, 0) or 0)


def engine_label(stats) -> str:
    from repro.core.engine.config import default_engine

    get = stats.get if isinstance(stats, dict) else (lambda k, d="": getattr(stats, k, d))
    fallback = get("engine_fallback", "") or ""
    return "%s (fallback)" % fallback if fallback else default_engine()


def relabel(phi, seed: int, key: str):
    """``phi`` with its variables renamed onto ids spread by seeded gaps,
    keeping their order; ``phi`` itself at seed 0."""
    if seed == 0:
        return phi
    rng = random.Random("%d:%s" % (seed, key))
    mapping = {}
    nxt = 0
    for v in sorted(phi.prefix.variables):
        nxt += 1 + rng.randrange(4)
        mapping[v] = nxt
    return phi.renamed(mapping)


class Setup:
    """What one set-up produced, with its phase timings (seconds)."""

    def __init__(self) -> None:
        self.phases: Dict[str, float] = {}
        self._t = time.perf_counter()

    def phase(self, name: str) -> None:
        """Charge the time since the previous phase mark to ``name``."""
        now = time.perf_counter()
        self.phases[name] = self.phases.get(name, 0.0) + now - self._t
        self._t = now


class Workload:
    name = "?"
    #: the modules the workload drives; importing them is part of set-up.
    modules: Sequence[str] = ()
    #: set-ups per run (``setup_s`` is their median); cheap ones get more.
    setup_repeats = 3
    #: decisions of one full-size pass; the same at every seed.
    pin: Optional[int] = None
    #: workers each ``run_tasks`` call keeps busy (for the pool's idle share).
    pool_slots = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def setup(self, work_dir: str) -> Setup:
        raise NotImplementedError

    def run_pass(self, inputs: Setup, tracer=None) -> Pass:
        raise NotImplementedError

    def teardown(self, inputs: Setup) -> None:
        pass

    def check_pin(self, decisions: float, problems: List[str]) -> None:
        if not self.tiny and self.pin is not None and decisions != self.pin:
            problems.append("decision total %s differs from the pin %d" % (decisions, self.pin))


# -- fig6 --------------------------------------------------------------------

#: short solves are timed this many more times (see Fig6.run_pass).
SHORT_RETIMES = 8


class Fig6(Workload):
    """The Figure 6 diameter series, serially in-process via ``solve_po``."""

    series: Sequence[Tuple[str, Sequence[int], int]] = ()
    tiny_series: Sequence[Tuple[str, Sequence[int], int]] = ()
    certify = False
    budget = 8000
    modules = ("repro.evalx.runner", "repro.smv.diameter", "repro.smv.reachability")
    setup_repeats = 7
    #: solves of at most this many decisions (the same at every seed and
    #: host speed) are short: every solve up to the median.
    short_decisions = 150

    def setup(self, work_dir: str) -> Setup:
        from repro.smv.diameter import diameter_qbf
        from repro.smv.models import model_by_name
        from repro.smv.reachability import eccentricity

        out = Setup()
        out.runs = []
        for family, sizes, cap in self.tiny_series if self.tiny else self.series:
            for size in sizes:
                model = model_by_name(family, size)
                d = eccentricity(model)
                out.phase("reference")
                points = []
                for n in range(min(d, cap) + 1):
                    forms = []
                    for pipeline, form in (("PO", "tree"), ("TO", "prenex")):
                        label = "%s/n=%d/%s" % (model.name, n, pipeline)
                        forms.append((label, relabel(diameter_qbf(model, n, form), self.seed, label)))
                    points.append((n, forms))
                out.phase("encode")
                out.runs.append((d, points))
        return out

    def run_pass(self, inputs: Setup, tracer=None) -> Pass:
        from repro.core.result import Outcome
        from repro.evalx.runner import Budget, solve_po

        budget = Budget(decisions=self.budget)
        ops: List[Op] = []
        counts: Dict[str, float] = {}
        problems: List[str] = []
        engines = set()
        short = []
        start = time.perf_counter()
        for d, points in inputs.runs:
            for n, forms in points:
                timed_out = []
                for label, phi in forms:
                    if tracer is not None:
                        tracer.set_run_id(label)
                    t0 = time.perf_counter()
                    m = solve_po(phi, label, budget=budget, certify=self.certify)
                    op = Op("solve", [(t0, time.perf_counter() - t0)], rid=label)
                    op.decided = m.outcome is not Outcome.UNKNOWN
                    # phi_n is true exactly when n is below the BFS diameter.
                    want = Outcome.TRUE if n < d else Outcome.FALSE
                    if op.decided and m.outcome is not want:
                        op.wrong = True
                        problems.append("%s: %s, BFS says %s" % (label, m.outcome.value, want.value))
                    if self.certify:
                        op.certificate = m.certificate_status
                        if m.certificate_ok is False:
                            op.wrong = True
                            problems.append("%s: invalid certificate" % label)
                    add_stats(counts, m.stats)
                    engines.add(engine_label(m.stats))
                    ops.append(op)
                    if m.stats.decisions <= self.short_decisions:
                        short.append((op, phi))
                    timed_out.append(m.timed_out)
                # run_dia_scaling's stopping rule: once both pipelines blow
                # the budget, longer lengths only get harder.
                if all(timed_out):
                    break
        wall = time.perf_counter() - start
        if tracer is None:
            # A sweep runs its short solves within its first second, and a
            # solve of a few milliseconds is a point sample of a host whose
            # speed drifts within a second, so the short solves, which set
            # the latency percentiles, are timed SHORT_RETIMES more times in
            # rounds after the pass; run.py takes the median. Which solves
            # count as short depends on their decisions, not their time, so
            # every run treats the same solves alike.
            for _ in range(SHORT_RETIMES):
                for op, phi in short:
                    t0 = time.perf_counter()
                    solve_po(phi, op.rid, budget=budget, certify=self.certify)
                    op.timings.append((t0, time.perf_counter() - t0))
        self.check_pin(counts.get("decisions"), problems)
        return Pass(start, wall, ops, counts, problems, sorted(engines))


class Fig6Pure(Fig6):
    name = "fig6-pure"
    series = (("counter", (2, 3), 8),)
    tiny_series = (("counter", (2,), 3),)
    pin = 13103


class Fig6Certified(Fig6):
    name = "fig6-certified"
    series = (("counter", (2, 3), 8), ("semaphore", (1, 2, 3), 4))
    tiny_series = (("counter", (2,), 3), ("semaphore", (1,), 4))
    certify = True
    pin = 69847
    short_decisions = 700


# -- table1 ------------------------------------------------------------------

#: suite sizes and budgets, the same as benchmarks/common.py uses for Table I.
NCF_INSTANCES, NCF_DECISIONS = 3, 5000
FPV_COUNT, FPV_DECISIONS = 20, 5000
DIA_MAX_N, DIA_DECISIONS = 6, 6000
EVAL06_COUNT, EVAL06_DECISIONS = 24, 4000
#: the footnote-9 structure filter of run_eval06.
EVAL06_MIN_RATIO = 0.2
#: per-task hard timeout, as the suites use with jobs > 1.
HARD_TIMEOUT = 120.0
JOBS = 2


class Table1(Workload):
    """The Table I suites through ``run_tasks`` at jobs=2, one batch per suite."""

    name = "table1-sweep"
    pin = 85875
    pool_slots = JOBS
    modules = ("repro.evalx.parallel", "repro.evalx.suites")

    def setup(self, work_dir: str) -> Setup:
        from repro.evalx.parallel import Task
        from repro.evalx.runner import Budget
        from repro.evalx.suites import (
            dia_models,
            eval06_instances,
            fpv_instances,
            ncf_settings,
        )
        from repro.generators.fpv import generate_fpv
        from repro.generators.ncf import generate_ncf
        from repro.prenexing.strategies import STRATEGIES
        from repro.smv.diameter import diameter_qbf
        from repro.smv.reachability import eccentricity

        tiny = self.tiny
        out = Setup()
        out.batches = []
        out.expect = {}

        tasks = []
        budget = Budget(decisions=NCF_DECISIONS)
        settings = ncf_settings(1 if tiny else NCF_INSTANCES)[: 1 if tiny else None]
        for _, params_list in settings:
            for params in params_list:
                phi = relabel(generate_ncf(params), self.seed, params.label)
                for s in STRATEGIES:
                    tasks.append(Task(params.label, "TO(%s)" % s, phi, "to", s, budget))
                tasks.append(Task(params.label, "PO", phi, "po", budget=budget))
        out.batches.append(("ncf", tasks))

        tasks = []
        budget = Budget(decisions=FPV_DECISIONS)
        for params in fpv_instances(2 if tiny else FPV_COUNT):
            phi = relabel(generate_fpv(params), self.seed, params.label)
            tasks.append(Task(params.label, "TO(eu_au)", phi, "to", "eu_au", budget))
            tasks.append(Task(params.label, "PO", phi, "po", budget=budget))
        out.batches.append(("fpv", tasks))

        out.eval06 = [(kind, label, relabel(phi, self.seed, label)) for kind in ("prob", "fixed")
                      for label, phi in eval06_instances(kind, 2 if tiny else EVAL06_COUNT)]
        out.phase("generate")

        tasks = []
        budget = Budget(decisions=DIA_DECISIONS)
        for model in dia_models()[: 1 if tiny else None]:
            d = eccentricity(model)
            out.phase("reference")
            for n in range(min(d + 1, 3 if tiny else DIA_MAX_N) + 1):
                label = "%s-n%d" % (model.name, n)
                out.expect[label] = n < d
                # The prenex form is the encoder's equation (16), solved as
                # built ("po" mode) and recorded as the TO side, as run_dia does.
                tree = relabel(diameter_qbf(model, n, "tree"), self.seed, label + "/PO")
                flat = relabel(diameter_qbf(model, n, "prenex"), self.seed, label + "/TO")
                tasks.append(Task(label, "PO", tree, "po", budget=budget))
                tasks.append(Task(label, "TO(eq16)", flat, "po", budget=budget))
            out.phase("encode")
        out.batches.append(("dia", tasks))
        return out

    def run_pass(self, inputs: Setup, tracer=None) -> Pass:
        from repro.core.result import Outcome
        from repro.evalx.parallel import Task, run_tasks
        from repro.evalx.runner import Budget
        from repro.prenexing.miniscoping import miniscope, structure_ratio

        ops: List[Op] = []
        counts: Dict[str, float] = {}
        problems: List[str] = []
        engines = set()
        verdicts: Dict[str, Dict[str, str]] = {}
        start = time.perf_counter()
        batches = list(inputs.batches)
        budget = Budget(decisions=EVAL06_DECISIONS)
        for kind in ("prob", "fixed"):
            # run_eval06's pipeline: miniscope in-process, keep instances
            # whose recovered structure passes the filter, solve the rest.
            tasks = []
            for k, label, phi in inputs.eval06:
                if k != kind:
                    continue
                tree = miniscope(phi)
                if structure_ratio(phi, tree) <= EVAL06_MIN_RATIO:
                    continue
                tasks.append(Task(label, "TO(eu_au)", phi, "to", "eu_au", budget))
                tasks.append(Task(label, "PO", tree, "po", budget=budget))
            batches.append(("eval06-" + kind, tasks))
        for _, tasks in batches:
            t0 = time.perf_counter()
            records = run_tasks(tasks, jobs=JOBS, wall_timeout=HARD_TIMEOUT)
            window = (t0, time.perf_counter())
            for rec in records:
                m = rec.measurement
                # The pool does not say when a task ran, only that it ran
                # within its batch.
                op = Op("task", [(None, m.seconds if m is not None else 0.0)], rid=rec.instance,
                        window=window)
                if not rec.ok or m is None:
                    op.failed = True
                    problems.append("%s %s: %s" % (rec.instance, rec.solver, rec.status))
                else:
                    op.decided = m.outcome is not Outcome.UNKNOWN
                    if op.decided:
                        verdicts.setdefault(rec.instance, {})[rec.solver] = m.outcome.value
                    if m.stats is not None:
                        add_stats(counts, m.stats)
                        engines.add(engine_label(m.stats))
                ops.append(op)
                counts["tasks"] = counts.get("tasks", 0) + 1
                counts["failed_tasks"] = counts.get("failed_tasks", 0) + (not rec.ok)
        wall = time.perf_counter() - start

        # PO and TO under every strategy must agree; DIA must match BFS.
        wrong_instances = set()
        for instance, by_solver in verdicts.items():
            seen = set(by_solver.values())
            if instance in inputs.expect:
                want = "true" if inputs.expect[instance] else "false"
                if seen - {want}:
                    wrong_instances.add(instance)
                    problems.append("%s: %s, BFS says %s" % (instance, by_solver, want))
            elif len(seen) > 1:
                wrong_instances.add(instance)
                problems.append("%s: pipelines disagree: %s" % (instance, by_solver))
        for op in ops:
            # one wrong verdict per disagreeing instance
            if op.rid in wrong_instances:
                op.wrong = True
                wrong_instances.discard(op.rid)
        self.check_pin(counts.get("decisions"), problems)
        return Pass(start, wall, ops, counts, problems, sorted(engines))


# -- serve -------------------------------------------------------------------

#: requests per client, cache-hit repeats per client.
SERVE_REQUESTS, SERVE_REPEATS = 300, 135
TINY_REQUESTS, TINY_REPEATS = 14, 5
#: requests per block of a client's script, whose mix is the same at every
#: seed (see _script).
SERVE_BLOCK, TINY_BLOCK = 10, 2
#: smv-diameter families per client; each is swept n = 0 .. diameter.
SERVE_FAMILIES = ((("counter", 2), ("dme", 5), ("dme", 4)),
                  (("ring", 3), ("semaphore", 2), ("ring", 4)))
TINY_FAMILIES = ((("counter", 2),), (("ring", 3),))
#: NCF settings (dep, var, cls/var, lpc) the cold solves cycle through.
SERVE_NCF = ((6, 3, 3, 5), (6, 4, 3, 5), (6, 5, 3, 5), (5, 4, 3, 5),
             (5, 5, 3, 5), (5, 3, 3, 5), (6, 4, 4, 5))
SERVE_DECISIONS = 3000
#: reference verdicts of each client's cold instances (t/f by index): QUBE(PO)
#: and QUBE(TO) agree on every one at a 30000-decision budget. The seed
#: changes only the request order, so they hold at every seed.
SERVE_VERDICTS = (
    "tttttttttfttfftfttttfttttttfttftftftttttttttttftfttftttfttttftfttttftfttft"
    "ttfttttftfttttttfttttftffttfttttfttftfttftftfttftttfttttttfttfttttttfttttt"
    "fttf",
    "tttftttttftftfttftfttttttftfftttftftfttftfttttttfttttttfttffttfttttttftttf"
    "ttttttffttttftftftttffttttffttftttfttfttfttttttttttfttttftttttttttttttftft"
    "tftfttt",
)
#: seconds a daemon may take to answer its first ping.
READY_TIMEOUT = 60.0


class Daemon:
    """One ``repro serve run`` process on a socket under the work dir."""

    def __init__(self, work_dir: str, spool: Optional[str] = None):
        self.dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        # Relative to the checkout root (the cwd of both sides), so the path
        # stays under the unix-socket length limit wherever the checkout is.
        self.socket = os.path.relpath(os.path.join(work_dir, "serve.sock"))
        self.log = open(os.path.join(work_dir, "daemon.log"), "w")
        serve_args = ["--socket", self.socket, "--cache", os.path.join(work_dir, "cache.jsonl")]
        if spool is None:
            argv = [sys.executable, "-m", "repro.cli", "serve", "run"] + serve_args
        else:
            argv = [sys.executable, os.path.join(HERE, "daemon.py"), spool] + serve_args
        src = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.proc = subprocess.Popen(argv, stdout=self.log, stderr=subprocess.STDOUT, env=env)

    def wait_ready(self) -> None:
        from repro.serve.client import wait_ready

        try:
            wait_ready(self.socket, timeout=READY_TIMEOUT)
        except BaseException:  # includes the SIGTERM exit: never orphan it
            self.stop()
            raise

    def stop(self) -> int:
        """SIGTERM, wait for the graceful drain; SIGKILL only as a backstop."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


class Serve(Workload):
    """Two closed-loop clients against ``repro serve run`` with its defaults."""

    name = "serve-mixed"
    modules = ("repro.generators.ncf", "repro.io.qtree", "repro.serve.client",
               "repro.smv.reachability")
    #: daemons started so far, to give each its own directory.
    daemons = 0

    def setup(self, work_dir: str) -> Setup:
        from repro.generators.ncf import NcfParams, generate_ncf
        from repro.io import qtree
        from repro.smv.models import model_by_name
        from repro.smv.reachability import eccentricity

        out = Setup()
        families = TINY_FAMILIES if self.tiny else SERVE_FAMILIES
        total, repeats = (TINY_REQUESTS, TINY_REPEATS) if self.tiny else (SERVE_REQUESTS, SERVE_REPEATS)
        diameters = {}
        for client_families in families:
            for family, size in client_families:
                diameters[(family, size)] = eccentricity(model_by_name(family, size))
        out.phase("reference")
        out.scripts = []
        for client, client_families in enumerate(families):
            smv = [
                {"kind": "smv-diameter", "family": family, "size": size, "n": n,
                 "budget": {"decisions": SERVE_DECISIONS}, "_expect": n < diameters[(family, size)]}
                for family, size in client_families
                for n in range(diameters[(family, size)] + 1)
            ]
            cold = []
            for i in range(total - repeats - len(smv)):
                dep, var, ratio, lpc = SERVE_NCF[i % len(SERVE_NCF)]
                params = NcfParams(dep=dep, var=var, cls=ratio * var, lpc=lpc,
                                   seed=60000 + 1000 * client + i)
                cold.append({
                    "kind": "solve", "instance": "c%d-%d" % (client, i), "format": "qtree",
                    "formula": qtree.dumps(generate_ncf(params)),
                    "mode": "po" if i % 2 == 0 else "to",
                    "budget": {"decisions": SERVE_DECISIONS},
                    "_expect": SERVE_VERDICTS[client][i] == "t",
                })
            out.scripts.append(_script(random.Random("%d:%d" % (self.seed, client)),
                                       cold, repeats, smv, client,
                                       TINY_BLOCK if self.tiny else SERVE_BLOCK))
        out.phase("generate")
        self.daemons += 1
        out.daemon = Daemon(os.path.join(work_dir, "daemon-%d" % self.daemons))
        out.daemon.wait_ready()
        out.phase("daemon")
        out.work_dir = work_dir
        return out

    def run_pass(self, inputs: Setup, tracer=None) -> Pass:
        from repro.serve.client import request

        daemon = inputs.daemon
        if tracer is not None or daemon is None:
            # Every pass starts from an empty cache, and a traced pass needs
            # a daemon started through the tracing launcher.
            if daemon is not None:
                daemon.stop()
            self.daemons += 1
            daemon = Daemon(os.path.join(inputs.work_dir, "daemon-%d" % self.daemons),
                            spool=tracer.spool_dir if tracer is not None else None)
            daemon.wait_ready()
        inputs.daemon = None

        results: List[List[Tuple[dict, dict, float, float]]] = [[] for _ in inputs.scripts]
        errors: List[str] = []
        retries = [0] * len(inputs.scripts)

        def client(index: int) -> None:
            try:
                for req in inputs.scripts[index]:
                    payload = {k: v for k, v in req.items() if not k.startswith("_")}
                    t0 = time.perf_counter()
                    resp = request(daemon.socket, payload, timeout=120.0)
                    if resp.get("status") == "crash":
                        # The daemon's pool takes a worker that reported and
                        # then exited (with code 1, as every daemon worker
                        # does) between its poll and its liveness check for
                        # a crash, and retries only once. A solve is
                        # idempotent, so this client retries once too.
                        retries[index] += 1
                        resp = request(daemon.socket, payload, timeout=120.0)
                    results[index].append((req, resp, t0, time.perf_counter() - t0))
            except Exception as exc:  # reported as a failed pass below
                errors.append("client %d: %s: %s" % (index, type(exc).__name__, exc))

        try:
            start = time.perf_counter()
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(len(inputs.scripts))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - start
            stats = request(daemon.socket, {"kind": "stats"}, timeout=30.0)
        finally:
            code = daemon.stop()

        ops: List[Op] = []
        counts: Dict[str, float] = {}
        problems = list(errors)
        engines = set()
        if code != 0:
            problems.append("daemon exited %s after SIGTERM" % code)
        cold_verdicts: Dict[str, str] = {}
        for client_results in results:
            for req, resp, t0, latency in client_results:
                kind = req.get("_kind", "smv" if req["kind"] == "smv-diameter" else "cold")
                rid = req["id"]
                op = Op(kind, [(t0, latency)], rid=rid)
                op.failed = not resp.get("ok")
                outcome = resp.get("outcome")
                op.decided = outcome in ("true", "false")
                if op.failed:
                    problems.append("%s: %s" % (rid, resp.get("error") or resp.get("status")))
                elif kind == "smv":
                    counts["smv_requests"] = counts.get("smv_requests", 0) + 1
                    counts["retained"] = counts.get("retained", 0) + resp.get("retained", 0)
                    counts["decisions"] = counts.get("decisions", 0) + resp.get("decisions", 0)
                    want = "true" if req["_expect"] else "false"
                    if op.decided and outcome != want:
                        op.wrong = True
                        problems.append("%s: %s, BFS says %s" % (rid, outcome, want))
                elif kind == "hit":
                    cold = cold_verdicts.get(req["instance"])
                    if not resp.get("cached") or outcome != cold:
                        op.wrong = True
                        problems.append("%s: cache hit answered %s (cached=%s), cold said %s"
                                        % (rid, outcome, resp.get("cached"), cold))
                else:
                    cold_verdicts[req["instance"]] = outcome
                    want = "true" if req["_expect"] else "false"
                    if op.decided and outcome != want:
                        op.wrong = True
                        problems.append("%s: %s, reference says %s" % (rid, outcome, want))
                    stats_dict = (resp.get("measurement") or {}).get("stats")
                    if stats_dict:
                        add_stats(counts, stats_dict)
                        engines.add(engine_label(stats_dict))
                ops.append(op)
        admission = (stats.get("supervisor") or {}).get("admission") or {}
        counts["cache_hits"] = stats.get("cache_hits", 0)
        counts["daemon_solves"] = stats.get("solves", 0)
        counts["incremental_solves"] = stats.get("incremental_solves", 0)
        counts["sheds"] = admission.get("shed_total", 0)
        counts["client_retries"] = sum(retries)
        expected = sum(len(s) for s in inputs.scripts)
        if len(ops) != expected:
            problems.append("%d of %d requests answered" % (len(ops), expected))
        return Pass(start, wall, ops, counts, problems, sorted(engines))

    def teardown(self, inputs: Setup) -> None:
        if getattr(inputs, "daemon", None) is not None:
            inputs.daemon.stop()
            inputs.daemon = None


def _script(rng: random.Random, cold: List[dict], repeats: int, smv: List[dict],
            client: int, block: int) -> List[dict]:
    """One client's request order: the same requests at every seed, in a
    seeded order.

    The kinds are spread evenly over the script, none of the repeats in the
    first ``block`` requests, so every block of ``block`` requests holds the
    same mix at every seed, and the seed shuffles the order within each
    block. (A seeded draw of the whole order gave some seeds long runs of
    cold solves and others of cache hits, which moved the median latency
    by 10% from seed to seed.) Cold solves keep their order and smv bounds
    their sweep order. A repeat re-sends a cold solve of an earlier block,
    the same one at every seed, so it is a cache hit and the work does not
    depend on the seed.
    """
    fixed = random.Random("repeats:%d" % client)
    quota = {"cold": len(cold), "hit": repeats, "smv": len(smv)}
    total = sum(quota.values())
    sent = dict.fromkeys(quota, 0)
    kinds, targets = [], []
    for i in range(total):
        if i % block == 0:
            colds_before = sent["cold"]
        kind = max((k for k in quota if sent[k] < quota[k] and (k != "hit" or colds_before)),
                   key=lambda k: quota[k] * (i + 1) / total - sent[k])
        if kind == "hit":
            targets.append(fixed.randrange(colds_before))
        sent[kind] += 1
        kinds.append(kind)

    nxt = dict.fromkeys(quota, 0)
    script = []
    for b in range(0, total, block):
        order = kinds[b:b + block]
        rng.shuffle(order)
        for kind in order:
            if kind == "hit":
                req = dict(cold[targets[nxt["hit"]]], _kind="hit")
            else:
                req = dict((cold if kind == "cold" else smv)[nxt[kind]])
            nxt[kind] += 1
            req["id"] = "c%d-%d" % (client, len(script))
            script.append(req)
    return script


WORKLOADS = {cls.name: cls for cls in (Fig6Pure, Fig6Certified, Table1, Serve)}

