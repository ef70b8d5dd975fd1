"""The reproduction's benchmark suites, scaled for a pure-Python solver.

Every Section VII suite is a list of TO/PO instance pairs solved under one
budget. Below, the function that lists each suite's runs sits next to its
Table I title and rows. :func:`run_suite` solves any of them through the
fault-isolated batch runner and :func:`table1_rows` folds the pairs into
Table I, for both callers: ``repro bench`` (:mod:`repro.bench`) at the
paper bench's grid sizes, and ``repro evalx run`` one suite at a time with
its resume, certify and fault-plan options.

Scaling note (documented per suite): the paper runs hundreds to thousands
of instances with 600-3600 s timeouts on 3.2 GHz hardware and a C++ solver;
the defaults here keep the same *grid shape* with fewer instances per
setting and decision budgets standing in for timeouts, so a full run of
every suite finishes in minutes on a laptop.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.formula import QBF
from repro.core.solver import default_engine
from repro.evalx.parallel import (
    ResultsLog,
    Task,
    measurements_by_key,
    note_disagreement,
    run_tasks,
)
from repro.robustness.faults import FaultPlan
from repro.evalx.runner import (
    Budget,
    Measurement,
    SolverDisagreement,
    check_agreement,
)
from repro.evalx.scatter import virtual_best
from repro.evalx.table1 import Table1Row, build_row
from repro.generators.fixed import FixedParams, generate_fixed
from repro.generators.fpv import FpvParams, generate_fpv
from repro.generators.ncf import NcfParams, generate_ncf
from repro.generators.random_qbf import random_clustered_qbf
from repro.prenexing.miniscoping import miniscope, structure_ratio
from repro.prenexing.strategies import STRATEGIES
from repro.smv.diameter import diameter_qbf
from repro.smv.models import CounterModel, DmeModel, RingModel, SemaphoreModel

import random


@dataclass
class PairResult:
    """One instance's measurements: QUBE(TO) per strategy + QUBE(PO)."""

    instance: str
    setting: str
    to_runs: Dict[str, Measurement]
    po_run: Measurement

    def to_run(self, strategy: str) -> Measurement:
        return self.to_runs[strategy]

    @property
    def to_best(self) -> Measurement:
        """The paper's QUBE(TO)*: virtual best over the strategies run."""
        return virtual_best(self.to_runs)


def engine_overrides(engine: str) -> Tuple[Tuple[str, object], ...]:
    """Task overrides for a propagation-backend choice.

    ``counters`` maps to *no* override while it is also the process default
    (``REPRO_ENGINE`` unset), so the task fingerprints — and therefore the
    resume keys of every pre-existing results file — stay byte-identical.
    Any other choice is named explicitly: it lands in the fingerprint, keys
    its own rows, and ``REPRO_ENGINE`` cannot change what the task runs.
    """
    if engine == "counters" and default_engine() == "counters":
        return ()
    return (("engine", engine),)


#: builds one task of a sweep from (instance, solver, formula[, mode,
#: strategy]); the sweep's budget, engine and certify flag are bound in.
TaskFactory = Callable[..., Task]
#: one instance of a suite: its setting and its runs, in submission order.
#: Every run but "PO" is a TO run, keyed by its task's strategy.
Instance = Tuple[str, List[Task]]


@dataclass(frozen=True)
class Suite:
    """One Section VII suite: its Table I title and rows, and its runs."""

    title: str
    #: Table I rows in paper order: (row label, strategy of the TO run read).
    rows: Tuple[Tuple[str, str], ...]
    #: (size, task factory) -> the suite's instances. An instance with no
    #: runs is one the footnote-9 structure filter dropped.
    build: Callable[[int, TaskFactory], Iterator[Instance]]


SUITES: Dict[str, Suite] = {}
EU_AU_ROW = (("eu_au", "eu_au"),)


# -- NCF (Section VII-A / Table I rows 1-4 / Figure 3) -------------------------


def ncf_settings(instances: int = 4) -> List[Tuple[str, List[NcfParams]]]:
    """The scaled ⟨DEP, VAR, CLS, LPC⟩ grid.

    Paper: DEP=6, VAR ∈ {4,8,16}, CLS/VAR ∈ {1..5}, LPC ∈ {3..6}, 100
    instances per setting. Scaled: DEP ∈ {5,6}, VAR ∈ {3,4,5}, ratio ∈
    {3,4}, LPC ∈ {4,5} pruned to the settings that are non-trivial for the
    Python engine, ``instances`` seeds each.
    """
    grid = [
        (6, 3, 3, 5),
        (6, 4, 3, 5),
        (6, 4, 4, 5),
        (6, 5, 3, 5),
        (5, 4, 3, 5),
        (5, 5, 3, 5),
    ]
    out = []
    seed = 0
    for dep, var, ratio, lpc in grid:
        label = "d%d-v%d-r%d-l%d" % (dep, var, ratio, lpc)
        params = []
        for _ in range(instances):
            params.append(NcfParams(dep=dep, var=var, cls=ratio * var, lpc=lpc, seed=seed))
            seed += 1
        out.append((label, params))
    return out


def _ncf(instances: int, task: TaskFactory) -> Iterator[Instance]:
    """QUBE(TO) under each strategy and QUBE(PO), ``instances`` per setting."""
    for setting, params_list in ncf_settings(instances):
        for params in params_list:
            phi = generate_ncf(params)
            runs = [task(params.label, "TO(%s)" % s, phi, "to", s) for s in STRATEGIES]
            yield setting, runs + [task(params.label, "PO", phi)]


SUITES["ncf"] = Suite("NCF", tuple((s, s) for s in STRATEGIES), _ncf)


# -- FPV (Section VII-B / Table I row 5 / Figure 4) -----------------------------


def fpv_instances(count: int = 24, seed_base: int = 0) -> List[FpvParams]:
    """Paper: 905 web-service QBFs; scaled: ``count`` synthetic encodings."""
    rng = random.Random(seed_base)
    out = []
    for i in range(count):
        out.append(
            FpvParams(
                config_bits=3,
                requirements=rng.randint(2, 3),
                levels=3,
                env_bits=2,
                run_bits=4,
                ratio=rng.choice((2.5, 3.0)),
                clause_len=4,
                seed=seed_base + i,
            )
        )
    return out


def _fpv(count: int, task: TaskFactory) -> Iterator[Instance]:
    """TO under the ∃↑∀↑ strategy (the paper's choice) and PO."""
    for params in fpv_instances(count):
        phi = generate_fpv(params)
        yield "fpv", [task(params.label, "TO(eu_au)", phi, "to", "eu_au"),
                      task(params.label, "PO", phi)]


SUITES["fpv"] = Suite("FPV", EU_AU_ROW, _fpv)


# -- DIA (Section VII-C / Table I row 6 / Figure 5) ------------------------------


def dia_models() -> List[object]:
    """Scaled model pool (paper: counter 4-8, ring, dme, semaphore models)."""
    return [
        CounterModel(2),
        CounterModel(3),
        RingModel(2),
        RingModel(3),
        DmeModel(3),
        DmeModel(4),
        DmeModel(5),
        SemaphoreModel(1),
        SemaphoreModel(2),
        SemaphoreModel(3),
    ]


def dia_instances(max_n_cap: int = 8) -> List[Tuple[str, QBF, QBF]]:
    """(label, tree φ_n, prenex φ_n) triples over the model pool.

    Instead of the full diameter loop, Table I treats every φ_n (for n up to
    the diameter + 1, capped) as one instance — this matches the paper's "91
    QBFs that compute the state space diameter".
    """
    from repro.smv.reachability import eccentricity

    out: List[Tuple[str, QBF, QBF]] = []
    for model in dia_models():
        d = eccentricity(model)
        for n in range(min(d + 1, max_n_cap) + 1):
            label = "%s-n%d" % (model.name, n)
            out.append(
                (label, diameter_qbf(model, n, "tree"), diameter_qbf(model, n, "prenex"))
            )
    return out


def _dia(max_n_cap: int, task: TaskFactory) -> Iterator[Instance]:
    """PO on the tree form, TO on the prenex form (equation (16))."""
    for label, tree, flat in dia_instances(max_n_cap):
        # The encoder builds the prenex form itself, so it is solved as-is
        # ("po" mode, where the strategy does not enter the fingerprint) and
        # recorded as the TO side under eu_au, the order equation (16) is.
        yield label.rsplit("-", 1)[0], [task(label, "PO", tree),
                                        task(label, "TO(eq16)", flat, "po", "eu_au")]


SUITES["dia"] = Suite("DIA", (("eq16", "eu_au"),), _dia)


# -- QBFEVAL'06-style suites (Section VII-D / Table I rows 7-8 / Figure 7) -------


def eval06_instances(
    kind: str, count: int = 30, seed_base: int = 0
) -> List[Tuple[str, QBF]]:
    """Prenex instances of the probabilistic or fixed class."""
    out: List[Tuple[str, QBF]] = []
    if kind == "prob":
        # "Probabilistic" per the paper's definition: a class parameter is a
        # random variable. Instances are NCF games with randomly drawn
        # ⟨VAR, CLS⟩ plus loosely-coupled random cluster games; a sizable
        # share shows no recoverable structure and is filtered out.
        rng = random.Random(seed_base)
        from repro.prenexing.strategies import prenex as _prenex

        for i in range(count):
            if i % 2 == 0:
                var = rng.randint(4, 5)
                params = NcfParams(
                    dep=5, var=var, cls=3 * var, lpc=5, seed=seed_base + 1000 + i
                )
                out.append(("prob-ncf-%02d" % i, _prenex(generate_ncf(params), "eu_au")))
            else:
                coupling = rng.choice((0.0, 0.2, 0.6, 0.9))
                phi = random_clustered_qbf(
                    rng,
                    clusters=rng.randint(2, 3),
                    num_blocks=3,
                    block_size=rng.randint(1, 2),
                    clauses_per_cluster=rng.randint(6, 12),
                    clause_len=3,
                    coupling=coupling,
                )
                out.append(("prob-rnd-%02d-c%.1f" % (i, coupling), phi))
    elif kind == "fixed":
        # "Fixed": fully structured families — prenexings of fixed-parameter
        # NCF games plus interleaved/chained block games.
        from repro.prenexing.strategies import prenex as _prenex

        for i in range(count):
            if i % 2 == 0:
                params = NcfParams(dep=6, var=4, cls=12, lpc=5, seed=seed_base + 2000 + i)
                out.append(("fixed-ncf-%02d" % i, _prenex(generate_ncf(params), "eu_au")))
            else:
                fp = _fixed_pool(1, seed_base + 3000 + i)[0]
                out.append((fp.label, generate_fixed(fp)))
    else:
        raise ValueError("kind must be 'prob' or 'fixed'")
    return out


def _fixed_pool(count: int, seed_base: int) -> List[FixedParams]:
    rng = random.Random(seed_base)
    out = []
    for i in range(count):
        family = "interleaved" if i % 3 != 2 else "chained"
        out.append(
            FixedParams(
                family=family,
                groups=rng.randint(2, 3),
                blocks_per_group=3,
                block_size=rng.randint(1, 2),
                clauses_per_group=rng.randint(6, 12),
                clause_len=3,
                seed=seed_base + i,
            )
        )
    return out


#: footnote 9: an instance is kept only if miniscoping recovers more
#: structure than this PO/TO ratio.
MIN_STRUCTURE_RATIO = 0.2


def _eval06(kind: str, count: int, task: TaskFactory) -> Iterator[Instance]:
    """The Figure-7 pipeline: miniscope, filter by PO/TO ratio, compare.

    The (cheap) miniscoping filter runs in-process; only the solver runs
    are fanned out. The paper reports that the vast majority of evaluation
    instances show no tangible structure.
    """
    for label, phi in eval06_instances(kind, count):
        tree = miniscope(phi)
        if structure_ratio(phi, tree) <= MIN_STRUCTURE_RATIO:
            yield kind, []
            continue
        yield kind, [task(label, "TO(eu_au)", phi, "to", "eu_au"), task(label, "PO", tree)]


SUITES["prob"] = Suite("PROB", EU_AU_ROW, functools.partial(_eval06, "prob"))
SUITES["fixed"] = Suite("FIXED", EU_AU_ROW, functools.partial(_eval06, "fixed"))


# -- the sweep -------------------------------------------------------------------


def run_suite(
    suite: str,
    size: int,
    budget: Budget,
    jobs: int = 1,
    results_path: Optional[str] = None,
    wall_timeout: Optional[float] = None,
    certify: bool = False,
    engine: str = "counters",
    faults: Optional[FaultPlan] = None,
    mem_limit_mb: Optional[float] = None,
) -> Tuple[List[PairResult], int]:
    """Solve every TO/PO pair of ``suite`` in one batch.

    ``size`` is the instances per NCF setting, the FPV/PROB/FIXED instance
    count, or the DIA bound cap. The batch goes to
    :func:`repro.evalx.parallel.run_tasks`: ``jobs=1`` runs serially
    in-process, ``jobs>1`` fans out over worker processes with hard
    per-run ``wall_timeout`` kills and crash isolation, and
    ``results_path`` makes the sweep resumable (recorded runs are skipped).
    A TO/PO disagreement is recorded as a results row, or raised when no
    results file records it. Returns the pairs and how many instances the
    footnote-9 filter dropped (0 outside PROB/FIXED).
    """
    task = functools.partial(Task, budget=budget, overrides=engine_overrides(engine),
                             certify=certify)
    built = list(SUITES[suite].build(size, task))
    kept = [(setting, runs) for setting, runs in built if runs]
    pairs: List[PairResult] = []
    with ResultsLog(results_path, faults=faults) if results_path else nullcontext() as log:
        records = run_tasks(
            [t for _, runs in kept for t in runs],
            jobs=jobs,
            results=log,
            wall_timeout=wall_timeout,
            faults=faults,
            mem_limit_mb=mem_limit_mb,
        )
        by_key = measurements_by_key(records)
        for setting, runs in kept:
            label = runs[0].instance
            po_run = by_key[(label, "PO")]
            to_runs = {t.strategy: by_key[(label, t.solver)]
                       for t in runs if t.solver != "PO"}
            for m in to_runs.values():
                try:
                    check_agreement(m, po_run)
                except SolverDisagreement as exc:
                    note_disagreement(exc, log)
            pairs.append(PairResult(label, setting, to_runs, po_run))
    return pairs, len(built) - len(kept)


def table1_rows(
    suite: str, pairs: Sequence[PairResult], tie_margin: int
) -> List[Table1Row]:
    """``suite``'s Table I rows, in paper order, over its solved pairs."""
    spec = SUITES[suite]
    return [
        build_row(spec.title, label, [(p.to_run(key), p.po_run) for p in pairs],
                  tie_margin=tie_margin)
        for label, key in spec.rows
    ]
