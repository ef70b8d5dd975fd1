"""The reproduction's benchmark suites, scaled for a pure-Python solver.

One function per Section VII suite. Each returns plain data (labels +
measurement pairs) that the Table-I builder and the figure renderers
consume. ``repro bench`` (:mod:`repro.bench`) drives them at the paper
bench's grid sizes; ``repro evalx run`` drives one suite at a time with
its resume, certify and fault-plan options.

Scaling note (documented per suite): the paper runs hundreds to thousands
of instances with 600-3600 s timeouts on 3.2 GHz hardware and a C++ solver;
the defaults here keep the same *grid shape* with fewer instances per
setting and decision budgets standing in for timeouts, so a full run of
every suite finishes in minutes on a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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


# -- batch plumbing -----------------------------------------------------------
#
# Every suite builds a flat task list and hands it to the fault-isolated
# batch runner (repro.evalx.parallel). ``jobs=1`` runs serially in-process,
# which is the exact legacy execution model; ``jobs>1`` fans out over worker
# processes with hard per-run timeouts and crash isolation. ``results_path``
# makes the sweep resumable (already-recorded runs are skipped).


def _open_log(
    results_path: Optional[str],
    durable: bool = True,
    faults: Optional["FaultPlan"] = None,
) -> Optional[ResultsLog]:
    if not results_path:
        return None
    return ResultsLog(results_path, durable=durable, faults=faults)


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


def _checked(to_run: Measurement, po_run: Measurement, log: Optional[ResultsLog]) -> None:
    """TO/PO agreement: raise when unlogged, record as data when logged."""
    try:
        check_agreement(to_run, po_run)
    except SolverDisagreement as exc:
        note_disagreement(exc, log)


def _run_batch(
    tasks: Sequence[Task],
    jobs: int,
    log: Optional[ResultsLog],
    wall_timeout: Optional[float],
    faults: Optional["FaultPlan"] = None,
    mem_limit_mb: Optional[float] = None,
) -> Dict[Tuple[str, str], Measurement]:
    records = run_tasks(
        tasks,
        jobs=jobs,
        results=log,
        wall_timeout=wall_timeout,
        faults=faults,
        mem_limit_mb=mem_limit_mb,
    )
    return measurements_by_key(records)


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


def run_ncf(
    budget: Budget = Budget(decisions=3000),
    instances: int = 4,
    strategies: Sequence[str] = STRATEGIES,
    jobs: int = 1,
    results_path: Optional[str] = None,
    wall_timeout: Optional[float] = None,
    certify: bool = False,
    engine: str = "counters",
    faults: Optional["FaultPlan"] = None,
    durable: bool = True,
    mem_limit_mb: Optional[float] = None,
) -> List[PairResult]:
    """Run QUBE(TO) under each strategy and QUBE(PO) on the NCF sweep."""
    overrides = engine_overrides(engine)
    tasks: List[Task] = []
    meta: List[Tuple[str, str]] = []
    for setting, params_list in ncf_settings(instances):
        for params in params_list:
            phi = generate_ncf(params)
            for s in strategies:
                tasks.append(
                    Task(params.label, "TO(%s)" % s, phi, "to", s, budget,
                         overrides=overrides, certify=certify)
                )
            tasks.append(Task(params.label, "PO", phi, "po", budget=budget,
                              overrides=overrides, certify=certify))
            meta.append((params.label, setting))
    with_log = _open_log(results_path, durable=durable, faults=faults)
    by_key = _run_batch(
        tasks, jobs, with_log, wall_timeout, faults, mem_limit_mb,
    )
    results: List[PairResult] = []
    for label, setting in meta:
        to_runs = {s: by_key[(label, "TO(%s)" % s)] for s in strategies}
        po_run = by_key[(label, "PO")]
        for m in to_runs.values():
            _checked(m, po_run, with_log)
        results.append(PairResult(label, setting, to_runs, po_run))
    if with_log is not None:
        with_log.close()
    return results


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


def run_fpv(
    budget: Budget = Budget(decisions=4000),
    count: int = 24,
    strategy: str = "eu_au",
    jobs: int = 1,
    results_path: Optional[str] = None,
    wall_timeout: Optional[float] = None,
    certify: bool = False,
    engine: str = "counters",
    faults: Optional["FaultPlan"] = None,
    durable: bool = True,
    mem_limit_mb: Optional[float] = None,
) -> List[PairResult]:
    """Run the FPV suite with the ∃↑∀↑ strategy (the paper's choice)."""
    overrides = engine_overrides(engine)
    tasks: List[Task] = []
    labels: List[str] = []
    for params in fpv_instances(count):
        phi = generate_fpv(params)
        tasks.append(Task(params.label, "TO(%s)" % strategy, phi, "to", strategy,
                          budget, overrides=overrides, certify=certify))
        tasks.append(Task(params.label, "PO", phi, "po", budget=budget,
                          overrides=overrides, certify=certify))
        labels.append(params.label)
    with_log = _open_log(results_path, durable=durable, faults=faults)
    by_key = _run_batch(
        tasks, jobs, with_log, wall_timeout, faults, mem_limit_mb,
    )
    results: List[PairResult] = []
    for label in labels:
        to_run = by_key[(label, "TO(%s)" % strategy)]
        po_run = by_key[(label, "PO")]
        _checked(to_run, po_run, with_log)
        results.append(PairResult(label, "fpv", {strategy: to_run}, po_run))
    if with_log is not None:
        with_log.close()
    return results


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


def run_dia(
    budget: Budget = Budget(decisions=6000),
    max_n_cap: int = 8,
    jobs: int = 1,
    results_path: Optional[str] = None,
    wall_timeout: Optional[float] = None,
    certify: bool = False,
    engine: str = "counters",
    faults: Optional["FaultPlan"] = None,
    durable: bool = True,
    mem_limit_mb: Optional[float] = None,
) -> List[PairResult]:
    """Run TO/PO on every DIA instance (prenex form == equation (16))."""
    overrides = engine_overrides(engine)
    tasks: List[Task] = []
    labels: List[str] = []
    for label, tree, flat in dia_instances(max_n_cap):
        # The prenex form is built directly by the encoder (equation (16)),
        # so measure it as-is ("po" mode) rather than re-prenexing the tree;
        # the task's solver label records it as the TO side.
        tasks.append(Task(label, "PO", tree, "po", budget=budget,
                          overrides=overrides, certify=certify))
        tasks.append(Task(label, "TO(eq16)", flat, "po", budget=budget,
                          overrides=overrides, certify=certify))
        labels.append(label)
    with_log = _open_log(results_path, durable=durable, faults=faults)
    by_key = _run_batch(
        tasks, jobs, with_log, wall_timeout, faults, mem_limit_mb,
    )
    results: List[PairResult] = []
    for label in labels:
        po_run = by_key[(label, "PO")]
        to_run = by_key[(label, "TO(eq16)")]
        _checked(to_run, po_run, with_log)
        results.append(PairResult(label, label.rsplit("-", 1)[0], {"eu_au": to_run}, po_run))
    if with_log is not None:
        with_log.close()
    return results


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


def run_eval06(
    kind: str,
    budget: Budget = Budget(decisions=4000),
    count: int = 30,
    min_ratio: float = 0.2,
    jobs: int = 1,
    results_path: Optional[str] = None,
    wall_timeout: Optional[float] = None,
    certify: bool = False,
    engine: str = "counters",
    faults: Optional["FaultPlan"] = None,
    durable: bool = True,
    mem_limit_mb: Optional[float] = None,
) -> Tuple[List[PairResult], int]:
    """The Figure-7 pipeline: miniscope, filter by PO/TO ratio, compare.

    Returns the pair results for instances that pass the footnote-9 filter
    plus the number of instances filtered out (the paper reports that the
    vast majority of evaluation instances show no tangible structure). The
    (cheap) miniscoping filter runs in-process; only the solver runs are
    fanned out.
    """
    overrides = engine_overrides(engine)
    tasks: List[Task] = []
    labels: List[str] = []
    filtered_out = 0
    for label, phi in eval06_instances(kind, count):
        tree = miniscope(phi)
        if structure_ratio(phi, tree) <= min_ratio:
            filtered_out += 1
            continue
        tasks.append(Task(label, "TO(eu_au)", phi, "to", "eu_au", budget,
                          overrides=overrides, certify=certify))
        tasks.append(Task(label, "PO", tree, "po", budget=budget,
                          overrides=overrides, certify=certify))
        labels.append(label)
    with_log = _open_log(results_path, durable=durable, faults=faults)
    by_key = _run_batch(
        tasks, jobs, with_log, wall_timeout, faults, mem_limit_mb,
    )
    results: List[PairResult] = []
    for label in labels:
        to_run = by_key[(label, "TO(eu_au)")]
        po_run = by_key[(label, "PO")]
        _checked(to_run, po_run, with_log)
        results.append(PairResult(label, kind, {"eu_au": to_run}, po_run))
    if with_log is not None:
        with_log.close()
    return results, filtered_out
