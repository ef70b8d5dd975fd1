"""The cube-and-conquer coordinator: one instance, N worker processes.

Work-splitting is the quantifier-tree decomposition of
:mod:`repro.cube.splitter`; the workers are a persistent
:class:`repro.evalx.parallel.WorkerPool`: each of the ``jobs`` processes
is handed cube after cube over its own pipe, one at a time, so the
per-cube overhead is a pipe round-trip, not a fork (a worker is re-forked
only after a crashed or cancelled cube). Each cube runs the layered engine
on its subproblem:

* **incremental fast path** — a non-certified cube over original-outermost
  existential variables is solved through
  :class:`repro.incremental.IncrementalSolver` assumption scopes (the
  engine then works in the original variable space, so shared clauses
  install untranslated);
* **cofactor path** — everything else solves the explicitly cofactored
  leaf formula, with the clause/index map retained for the certificate
  merge (:mod:`repro.cube.merge`).

Constraint sharing rides bounded multiprocessing queues (one shared
outbox, one inbox per worker; everything non-blocking and lossy — see
:mod:`repro.cube.sharing`). The coordinator relays each export to every
live worker's inbox; a re-forked worker starts with a fresh, empty inbox.

Verdicts fold up the split tree (existential split: any TRUE branch wins;
universal split: any FALSE branch wins — :func:`repro.cube.splitter.
fold_outcomes`), and a worker whose current cube is already settled by a
sibling is cancelled early: the pool SIGTERMs exactly the worker holding
that cube, which sets its :mod:`repro.robustness` interrupt flag; the
engine exits UNKNOWN at the next quiescent point, and a fresh worker takes
the next cube.

A worker that exhausts its decision budget flushes a ``repro-ckpt``
checkpoint (steal-by-checkpoint). The coordinator then either *re-splits*
the leaf — the subproblem still has branchable variables and depth budget,
so it becomes two fresh cubes — or re-enqueues it with a doubled budget,
resuming the checkpoint (the checkpoint config digest deliberately ignores
budget fields, and in certify mode the proof steps travel inside the
checkpoint, so the escalated run continues one unbroken derivation).

``jobs=1`` is the genuine sequential baseline: no splitting, no fork, no
sharing — the plain engine on the whole formula (still routed through the
fragment/merge path when certifying, so the certificate machinery is
identical).
"""

from __future__ import annotations

import functools
import os
import queue as stdlib_queue
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.formula import QBF
from repro.core.literals import EXISTS, var_of
from repro.core.result import Outcome
from repro.core.solver import solve
from repro.evalx.parallel import STATUS_CANCELLED, STATUS_OK, Job, WorkerPool
from repro.evalx.runner import Budget
from repro.robustness.checkpoint import CheckpointError, load_checkpoint
from repro.robustness.interrupt import global_flag
from repro.cube.merge import LeafFragment, MergeReport, merge_certificates
from repro.cube.sharing import MAX_SHARED_LITS, AdmissionFilter, Exchange
from repro.cube.splitter import SplitNode, build_split, cofactor, fold_outcomes, split_leaf

#: default per-attempt decision budget of one leaf.
DEFAULT_LEAF_DECISIONS = 500
#: default number of initial cubes, as a multiple of ``jobs``. Oversplitting
#: relative to the worker count is deliberate: it keeps the job queue deep
#: enough that no worker idles, and on the decomposable families the extra
#: cofactoring keeps cutting total decisions well past ``jobs`` cubes.
INITIAL_CUBES_PER_JOB = 16
#: give a cancelled worker this long to report before SIGKILL.
SHUTDOWN_GRACE_SECONDS = 5.0
#: lost workers replaced per pool slot before the pool is allowed to
#: shrink (and, at zero workers, the run gives up).
MAX_RESPAWNS_PER_JOB = 4

#: crashes tolerated per leaf before it is written off as UNKNOWN.
MAX_CRASHES = 2
#: budget doublings tried on an over-budget leaf before re-splitting it.
RESPLIT_AFTER_ESCALATIONS = 1


@dataclass
class CubeJob:
    """One unit of work: solve the formula under this cube."""

    worker_id: int
    key: int
    path: Tuple[int, ...]
    budget_decisions: Optional[int]
    engine: Optional[str] = None
    paradigm: str = "search"
    certify: bool = False
    ckpt_path: Optional[str] = None
    resume: bool = False
    max_shared_lits: int = MAX_SHARED_LITS


@dataclass
class CubeReport:
    """The coordinator's answer plus its work accounting."""

    outcome: Outcome
    seconds: float
    jobs: int
    leaves: int
    total_decisions: int
    workers_launched: int = 0
    escalations: int = 0
    resplits: int = 0
    cancelled: int = 0
    crashes: int = 0
    #: lost workers the pool may replace; stops growing once the respawn
    #: budget (:data:`MAX_RESPAWNS_PER_JOB` × jobs) is exhausted.
    respawns: int = 0
    interrupted: bool = False
    share: Dict[str, object] = field(default_factory=dict)
    certificate: Optional[MergeReport] = None
    certificate_status: Optional[str] = None
    root: Optional[SplitNode] = None


# -- the worker body ---------------------------------------------------------


def _incremental_eligible(formula: QBF, path: Tuple[int, ...]) -> bool:
    """True when every cube literal is an original-outermost existential —
    the :meth:`IncrementalSolver.push` contract."""
    prefix = formula.prefix
    return bool(path) and all(
        prefix.quant(var_of(l)) is EXISTS and prefix.level(var_of(l)) == 1
        for l in path
    )


def solve_cube_job(
    job: CubeJob,
    formula: QBF,
    outbox=None,
    inbox=None,
    interrupt=None,
) -> Dict[str, object]:
    """Solve one cube; returns the wire payload (plain JSON-able dict).

    Each cube gets a fresh solver on purpose. Keeping one warm
    ``IncrementalSolver`` per worker and push/solve/popping cubes
    through it was measured 3-6x *slower* end to end: the retained
    constraint database accumulated across sibling cubes outweighs the
    per-cube formula load it saves. Cross-cube reuse happens through the
    explicit sharing bus instead, where the admission filter bounds it.
    """
    started = time.monotonic()
    config = Budget(decisions=job.budget_decisions).to_config(
        **dict(
            ([("engine", job.engine)] if job.engine else [])
            + ([("paradigm", job.paradigm)] if job.paradigm != "search" else [])
        )
    )
    share = outbox is not None or inbox is not None
    fragment: Optional[Dict[str, object]] = None
    exchange: Optional[Exchange] = None

    resume = None
    if job.resume and job.ckpt_path:
        try:
            resume = load_checkpoint(job.ckpt_path)
        except CheckpointError:
            resume = None  # stale/corrupt snapshot: redo the attempt fresh

    if not job.certify and _incremental_eligible(formula, job.path):
        from repro.incremental.solver import IncrementalSolver

        if share:
            admission = AdmissionFilter(
                formula, max_lits=job.max_shared_lits, cubes_ok=False
            )
            exchange = Exchange(
                job.worker_id,
                job.path,
                outbox,
                inbox,
                admission,
                max_lits=job.max_shared_lits,
                lift_cubes=False,
            )
        # retain=False: this solver lives for exactly one cube, so the
        # retention bookkeeping (proof-closure tagging of every learned
        # constraint) would be pure overhead — sharing goes through the
        # exchange instead.
        inc = IncrementalSolver(config, retain=False)
        inc.load(formula)
        inc.push(*job.path)
        try:
            result = inc.solve(
                interrupt=interrupt,
                checkpoint_to=job.ckpt_path,
                resume_from=resume,
                exchange=exchange,
            )
        except CheckpointError:
            result = inc.solve(
                interrupt=interrupt, checkpoint_to=job.ckpt_path, exchange=exchange
            )
    else:
        leaf, clause_map = cofactor(formula, job.path)
        if share:
            admission = AdmissionFilter(
                formula,
                receiver_prefix=leaf.prefix,
                assumptions=job.path,
                max_lits=job.max_shared_lits,
                cubes_ok=True,
            )
            # Certified workers export but never import: an imported
            # constraint has no derivation on record, so any analysis
            # touching it would poison the proof into incompleteness.
            exchange = Exchange(
                job.worker_id,
                job.path,
                outbox,
                None if job.certify else inbox,
                admission,
                max_lits=job.max_shared_lits,
            )

        def run(resume_ckpt):
            if job.certify:
                from repro.certify import MemorySink, ProofLogger, certifying_config

                sink = MemorySink()
                logger = None
                if resume_ckpt is not None and resume_ckpt.proof is not None:
                    steps = resume_ckpt.extra.get("proof_steps")
                    if steps is not None:
                        sink.steps = [dict(s) for s in steps]
                        logger = ProofLogger.resumed(sink, resume_ckpt.proof)
                if logger is None:
                    logger = ProofLogger(sink)
                result = solve(
                    leaf,
                    certifying_config(config),
                    proof=logger,
                    interrupt=interrupt,
                    resume_from=resume_ckpt,
                    checkpoint_to=job.ckpt_path,
                    exchange=exchange,
                )
                return result, LeafFragment(job.path, clause_map, sink.steps)
            result = solve(
                leaf,
                config,
                interrupt=interrupt,
                resume_from=resume_ckpt,
                checkpoint_to=job.ckpt_path,
                exchange=exchange,
            )
            return result, None

        try:
            result, frag = run(resume)
        except CheckpointError:
            result, frag = run(None)
        if frag is not None:
            fragment = frag.to_payload()

    return {
        "key": job.key,
        "outcome": result.outcome.name,
        "decisions": result.stats.decisions,
        "seconds": result.seconds,
        "interrupted": result.interrupted,
        "learned_clauses": result.stats.learned_clauses,
        "learned_cubes": result.stats.learned_cubes,
        "fragment": fragment,
        "share": exchange.stats() if exchange is not None else None,
        "elapsed": time.monotonic() - started,
    }


def _solve_leaf(formula: QBF, worker_id: int, outbox, inbox, job: CubeJob):
    """Pool body of a cube worker: one cube under the worker's interrupt
    flag, which the pool's SIGTERM sets to cancel it."""
    job.worker_id = worker_id
    return solve_cube_job(job, formula, outbox, inbox, interrupt=global_flag())


# -- the coordinator ---------------------------------------------------------


def _settled_above(node: SplitNode) -> bool:
    """True when some proper ancestor's verdict is already decided — this
    leaf can no longer influence the root and is dead work."""
    cur = node.parent
    while cur is not None:
        if fold_outcomes(cur) is not None:
            return True
        cur = cur.parent
    return False


class _Coordinator:
    def __init__(
        self,
        formula: QBF,
        jobs: int,
        leaf_decisions: int,
        certify: bool,
        share: bool,
        seed: int,
        engine: Optional[str],
        paradigm: str,
        max_depth: int,
        initial_cubes: Optional[int],
        wall_timeout: Optional[float],
        interrupt,
        workdir: Optional[str],
        max_shared_lits: int,
        max_escalations: int,
        mem_limit_mb: Optional[float],
    ):
        self.formula = formula
        self.jobs = jobs
        self.leaf_decisions = leaf_decisions
        self.certify = certify
        self.share = share
        self.seed = seed
        self.engine = engine
        self.paradigm = paradigm
        self.max_depth = max_depth
        self.initial_cubes = initial_cubes or max(INITIAL_CUBES_PER_JOB * jobs, 2)
        self.wall_timeout = wall_timeout
        self.interrupt = interrupt
        self.max_shared_lits = max_shared_lits
        self.max_escalations = max_escalations
        self._own_workdir = workdir is None
        self.workdir = workdir or tempfile.mkdtemp(prefix="repro-cube-")
        self.workers = WorkerPool(
            jobs,
            self._make_body,
            persistent=True,
            mem_limit_mb=mem_limit_mb,
            term_grace=SHUTDOWN_GRACE_SECONDS,
        )
        self.outbox = None
        self.inboxes: Dict[int, object] = {}
        self.pending: List[SplitNode] = []
        self.running: Dict[Job, SplitNode] = {}
        #: workers lost to failed jobs (each one exits; see WorkerPool).
        self.lost = 0
        self.next_key = 0
        self.report = CubeReport(
            outcome=Outcome.UNKNOWN,
            seconds=0.0,
            jobs=jobs,
            leaves=0,
            total_decisions=0,
        )
        self.share_totals = {"exported": 0, "export_dropped": 0, "imported": 0}
        self.rejected_totals: Dict[str, int] = {}

    # -- bookkeeping --------------------------------------------------------

    def _stamp(self, node: SplitNode) -> None:
        if node.key < 0:
            node.key = self.next_key
            self.next_key += 1
        if not node.budget:
            node.budget = self.leaf_decisions

    def _ckpt_path(self, node: SplitNode) -> str:
        return os.path.join(self.workdir, "cube-%d.repro-ckpt" % node.key)

    def _interrupted(self) -> bool:
        flag = self.interrupt
        if flag is None:
            return False
        check = getattr(flag, "is_set", None)
        return bool(check() if check is not None else flag())

    # -- workers and the sharing bus ----------------------------------------

    def _make_body(self, worker_id: int):
        """Called by the pool before each fork: a fresh inbox for the new
        worker, and the cube body it runs."""
        inbox = None
        if self.share:
            inbox = self.workers.context.Queue(maxsize=1024)
            inbox.cancel_join_thread()  # lossy bus: never block exit on it
            self.inboxes[worker_id] = inbox
        return functools.partial(_solve_leaf, self.formula, worker_id, self.outbox, inbox)

    def _capacity(self) -> int:
        """Concurrent cubes: ``jobs``, less every lost worker beyond the
        respawn budget — a poison formula that kills every worker it
        touches must not fork forever. At zero the run gives up and folds
        what it has (the serve layer then degrades to a scratch solve)."""
        budget = MAX_RESPAWNS_PER_JOB * self.jobs
        self.report.respawns = min(self.lost, budget)
        return self.jobs - max(0, self.lost - budget)

    def _submit(self, node: SplitNode, resume: bool) -> None:
        self._stamp(node)
        node.attempts += 1
        job = CubeJob(
            worker_id=-1,
            key=node.key,
            path=node.path,
            budget_decisions=node.budget,
            engine=self.engine,
            paradigm=self.paradigm,
            certify=self.certify,
            ckpt_path=self._ckpt_path(node),
            resume=resume,
            max_shared_lits=self.max_shared_lits,
        )
        self.running[self.workers.submit(job)] = node

    def _drain_bus(self) -> None:
        if self.outbox is None:
            return
        live = self.workers.worker_ids()
        for worker_id in [w for w in self.inboxes if w not in live]:
            self.inboxes.pop(worker_id).close()
        while True:
            try:
                item = self.outbox.get_nowait()
            except stdlib_queue.Empty:
                return
            except (EOFError, OSError):  # pragma: no cover - torn bus
                return
            for inbox in self.inboxes.values():
                try:
                    inbox.put_nowait(item)
                except stdlib_queue.Full:
                    pass
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass

    # -- result handling ----------------------------------------------------

    def _absorb_share(self, stats: Optional[Dict[str, object]]) -> None:
        if not stats:
            return
        for key in ("exported", "export_dropped", "imported"):
            self.share_totals[key] += int(stats.get(key, 0))
        for reason, count in (stats.get("import_rejected") or {}).items():
            self.rejected_totals[reason] = self.rejected_totals.get(reason, 0) + count

    def _on_done(self, job: Job, shutdown: bool) -> None:
        node = self.running.pop(job)
        if job.status != STATUS_OK:
            self.lost += 1
            if job.status == STATUS_CANCELLED:
                node.cancelled = True
                return
            self.report.crashes += 1
            if not shutdown and not _settled_above(node):
                if node.attempts <= MAX_CRASHES:
                    self.pending.append(node)
                else:
                    node.outcome = Outcome.UNKNOWN
            return
        payload = job.result
        outcome = Outcome[payload["outcome"]]
        self.report.total_decisions += int(payload.get("decisions", 0))
        self._absorb_share(payload.get("share"))
        if outcome in (Outcome.TRUE, Outcome.FALSE):
            node.outcome = outcome
            node.decisions = int(payload.get("decisions", 0))
            frag = payload.get("fragment")
            if frag is not None:
                node.fragment = LeafFragment.from_payload(frag)
            return
        # UNKNOWN: cancelled or out of budget.
        node.interrupted = bool(payload.get("interrupted"))
        if job.cancelled or _settled_above(node):
            node.cancelled = True
            return
        if not shutdown:
            self._escalate(node)

    def _escalate(self, node: SplitNode) -> None:
        """A leaf blew its budget.

        Cheap first: double the budget and resume the checkpoint — no work
        is discarded. Only after a couple of doublings still fail do we
        re-split the cube (splitting throws the partial search away and
        doubles the leaf count, which thrashes badly when the cofactors are
        not actually easier than their parent). Re-split children inherit
        the escalated budget for the same reason.
        """
        can_double = node.attempts <= self.max_escalations
        if can_double and node.attempts <= RESPLIT_AFTER_ESCALATIONS:
            node.budget *= 2
            self.report.escalations += 1
            self.pending.append(node)
            return
        if node.depth() < self.max_depth:
            leaf, _ = cofactor(self.formula, node.path)
            if split_leaf(node, leaf, self.seed):
                self.report.resplits += 1
                try:
                    os.unlink(self._ckpt_path(node))
                except OSError:
                    pass
                for child in (node.pos, node.neg):
                    child.budget = node.budget
                    self._stamp(child)
                    self.pending.append(child)
                return
        if not can_double:
            node.outcome = Outcome.UNKNOWN
            return
        node.budget *= 2
        self.report.escalations += 1
        self.pending.append(node)

    # -- the main loop ------------------------------------------------------

    def run(self) -> CubeReport:
        started = time.monotonic()
        root = build_split(
            self.formula, self.initial_cubes, seed=self.seed, max_depth=self.max_depth
        )
        self.report.root = root
        if self.share:
            self.outbox = self.workers.context.Queue(maxsize=4096)
            self.outbox.cancel_join_thread()  # workers never block exit on it
        for leaf in root.leaves():
            self._stamp(leaf)
            self.pending.append(leaf)
        self.pending.sort(key=lambda n: n.path)
        try:
            while True:
                timed_out = (
                    self.wall_timeout is not None
                    and time.monotonic() - started > self.wall_timeout
                )
                if self._interrupted() or timed_out:
                    self.report.interrupted = self.report.interrupted or self._interrupted()
                    break
                if fold_outcomes(root) is not None:
                    break
                # Cancel workers grinding cubes a sibling already settled.
                for job, node in self.running.items():
                    if not job.cancelled and _settled_above(node):
                        self.workers.cancel(job)
                        self.report.cancelled += 1
                # Hand each idle worker one cube.
                capacity = self._capacity()
                while self.pending and len(self.running) < capacity:
                    node = self.pending.pop(0)
                    if _settled_above(node):
                        node.cancelled = True
                        continue
                    resume = node.attempts > 0 and os.path.exists(self._ckpt_path(node))
                    self._submit(node, resume=resume)
                if not self.running:
                    # Everything settled, or the respawn budget is spent
                    # and no worker is left: fold what settled.
                    break
                self._drain_bus()
                for job in self.workers.wait(timeout=0.02):
                    self._on_done(job, shutdown=False)
        finally:
            self._shutdown()
            if self._own_workdir:
                shutil.rmtree(self.workdir, ignore_errors=True)
        report = self.report
        folded = fold_outcomes(root)
        # NB: Outcome.FALSE is falsy (and UNKNOWN raises on bool), so this
        # must be an explicit None test, not an ``or`` fallback.
        report.outcome = Outcome.UNKNOWN if folded is None else folded
        report.seconds = time.monotonic() - started
        report.leaves = len(root.leaves())
        report.workers_launched = self.workers.forks
        self._capacity()
        report.share = dict(self.share_totals)
        report.share["import_rejected"] = dict(self.rejected_totals)
        if self.certify:
            from repro.certify import check_certificate

            report.certificate = merge_certificates(root, self.formula.prefix)
            report.certificate_status = check_certificate(
                self.formula, report.certificate.sink
            ).status
        return report

    def _shutdown(self) -> None:
        """Cancel the cubes still running and absorb what they report (a
        worker may have finished a decisive cube just as we stopped — keep
        its verdict and fragment), then stop the workers."""
        try:
            for job in self.running:
                self.workers.cancel(job)
            while self.running:
                for job in self.workers.wait():
                    self._on_done(job, shutdown=True)
        finally:
            self.workers.close()
            for q in [self.outbox, *self.inboxes.values()]:
                if q is not None:
                    q.close()


def run_cube(
    formula: QBF,
    jobs: int = 2,
    leaf_decisions: int = DEFAULT_LEAF_DECISIONS,
    certify: bool = False,
    share: bool = True,
    seed: int = 0,
    engine: Optional[str] = None,
    paradigm: Optional[str] = None,
    max_depth: int = 12,
    initial_cubes: Optional[int] = None,
    total_decisions: Optional[int] = None,
    wall_timeout: Optional[float] = None,
    interrupt=None,
    workdir: Optional[str] = None,
    max_shared_lits: int = MAX_SHARED_LITS,
    max_escalations: int = 8,
    mem_limit_mb: Optional[float] = None,
) -> CubeReport:
    """Solve ``formula`` cube-and-conquer style across ``jobs`` processes.

    Returns a :class:`CubeReport`; with ``certify=True`` its
    ``certificate`` is the merged derivation and ``certificate_status`` the
    independent checker's verdict against the original formula. The folded
    verdict is deterministic for a given ``seed``; wall-clock, decision
    totals, and sharing statistics are not (see DESIGN.md §12).

    ``paradigm`` (default: the configured session paradigm) must be
    checkpoint-capable — workers snapshot their leaves for budget
    escalation and preemption — and exchange-capable when ``share`` is on;
    an incapable paradigm is refused upfront with a
    :class:`~repro.core.paradigm.CapabilityError` instead of crashing a
    worker mid-solve.

    ``mem_limit_mb`` caps each worker's address space (``RLIMIT_AS``), as
    for :func:`repro.evalx.parallel.run_tasks`; ``jobs=1`` runs in-process
    and is not capped.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    from repro.core.engine.config import default_paradigm
    from repro.core.paradigm import CapabilityError, get_paradigm

    paradigm = paradigm if paradigm is not None else default_paradigm()
    caps = get_paradigm(paradigm).capabilities
    if not caps.checkpoint:
        raise CapabilityError(
            paradigm,
            "checkpoint/resume",
            "cube workers snapshot their leaves for budget escalation and "
            "preemption; use a checkpoint-capable paradigm such as 'search'",
        )
    if share and jobs > 1 and not caps.exchange:
        raise CapabilityError(
            paradigm,
            "constraint exchange",
            "disable sharing (share=False) or use an exchange-capable "
            "paradigm such as 'search'",
        )
    started = time.monotonic()
    if jobs == 1:
        root = SplitNode(())
        root.key = 0
        job = CubeJob(
            worker_id=0,
            key=0,
            path=(),
            budget_decisions=total_decisions,
            engine=engine,
            paradigm=paradigm,
            certify=certify,
        )
        payload = solve_cube_job(job, formula, interrupt=interrupt)
        root.outcome = Outcome[payload["outcome"]]
        root.decisions = payload["decisions"]
        if payload.get("fragment") is not None:
            root.fragment = LeafFragment.from_payload(payload["fragment"])
        report = CubeReport(
            outcome=root.outcome,
            seconds=time.monotonic() - started,
            jobs=1,
            leaves=1,
            total_decisions=payload["decisions"],
            workers_launched=1,
            interrupted=bool(payload.get("interrupted")),
            root=root,
        )
        if certify:
            from repro.certify import check_certificate

            report.certificate = merge_certificates(root, formula.prefix)
            report.certificate_status = check_certificate(
                formula, report.certificate.sink
            ).status
        return report
    coordinator = _Coordinator(
        formula,
        jobs=jobs,
        leaf_decisions=leaf_decisions,
        certify=certify,
        share=share,
        seed=seed,
        engine=engine,
        paradigm=paradigm,
        max_depth=max_depth,
        initial_cubes=initial_cubes,
        wall_timeout=wall_timeout,
        interrupt=interrupt,
        workdir=workdir,
        max_shared_lits=max_shared_lits,
        max_escalations=max_escalations,
        mem_limit_mb=mem_limit_mb,
    )
    return coordinator.run()
