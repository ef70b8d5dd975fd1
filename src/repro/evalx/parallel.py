"""Fault-isolated multiprocess batch runner for TO-vs-PO sweeps.

The paper's Section VII experiments are embarrassingly parallel: hundreds of
independent QUBE(TO)/QUBE(PO) runs per suite. This module fans those runs
out over forked worker processes with the three properties a trustworthy
batch harness needs:

* **hard wall-clock timeouts** — a run that exceeds ``wall_timeout`` has
  its worker killed, not merely asked to stop via the solver's cooperative
  ``max_seconds`` check (which a pathological propagation loop may never
  reach). Killing escalates: SIGTERM first (the worker's handler flips the
  solver's interrupt flag, letting it stop at its next poll and report a
  partial measurement), SIGKILL after a grace period;
* **crash isolation** — a worker that dies (OOM kill, ``RecursionError``, a
  solver bug) produces a structured failure :class:`Record` for that one
  instance, with a bounded number of retries, instead of aborting the sweep;
* **resumable JSONL persistence** — every completed run is appended to a
  results file as one JSON line carrying the :class:`Measurement`, the full
  :class:`SolverStats` and a config fingerprint; re-running the same sweep
  against the same file skips every (instance, solver, config) key already
  recorded, so an interrupted sweep continues where it left off.

The processes themselves belong to :class:`WorkerPool`, the one place that
forks, waits on, signals and kills solver workers. Sweeps and the serve
daemon's lanes (persistent workers) all run on it, so memory ceilings,
injected faults and the kill escalation behave the same in every tier.

``jobs=1`` is the serial degenerate case: tasks run in-process, in order,
with no worker processes involved, so existing single-process results stay
bit-for-bit reproducible (crashes are still captured as failure records).
"""

from __future__ import annotations

import functools
import hashlib
import json
import multiprocessing
import os
import signal
import time
import traceback
from dataclasses import dataclass, fields
from multiprocessing.connection import wait as _wait_ready
from typing import Callable, Dict, IO, Iterable, List, Optional, Sequence, Tuple

from repro.core.formula import QBF
from repro.core.result import Outcome, SolverStats
from repro.evalx.runner import (
    Budget,
    Measurement,
    SolverDisagreement,
    solve_po,
    solve_to,
)
from repro.robustness.faults import FaultPlan
from repro.robustness.interrupt import global_flag

#: record statuses, in the JSONL ``status`` field.
STATUS_OK = "ok"
STATUS_CRASH = "crash"
STATUS_HARD_TIMEOUT = "hard-timeout"
STATUS_DISAGREEMENT = "disagreement"
#: the worker breached its address-space ceiling (``mem_limit_mb``). Never
#: retried: an allocation that failed at this ceiling fails again at this
#: ceiling, so the record is written immediately.
STATUS_MEMOUT = "memout"
#: :meth:`WorkerPool.cancel` stopped the job's worker before it reported.
STATUS_CANCELLED = "cancelled"

#: results JSONL schema, in the ``schema`` field of every row. Version 1
#: rows (no ``schema`` field) predate certification and still load; rows
#: written by a *newer* schema than this module understands are skipped on
#: load (the sweep simply re-runs those tasks) instead of crashing a resume.
SCHEMA_VERSION = 2


# -- serialization ------------------------------------------------------------
#
# Hand-rolled (rather than pickle) so the JSONL results are stable,
# greppable, diffable artefacts that other tooling can consume.


def stats_to_dict(stats: SolverStats) -> Dict[str, int]:
    return {f.name: getattr(stats, f.name) for f in fields(SolverStats)}


def stats_from_dict(data: Dict[str, int]) -> SolverStats:
    known = {f.name for f in fields(SolverStats)}
    return SolverStats(**{k: v for k, v in data.items() if k in known})


def measurement_to_dict(m: Measurement) -> Dict[str, object]:
    out: Dict[str, object] = {
        "instance": m.instance,
        "solver": m.solver,
        "outcome": m.outcome.value,
        "decisions": m.decisions,
        "seconds": m.seconds,
        "learned_clauses": m.learned_clauses,
        "learned_cubes": m.learned_cubes,
    }
    if m.stats is not None:
        out["stats"] = stats_to_dict(m.stats)
    if m.certificate_status is not None:
        out["certificate_status"] = m.certificate_status
        out["certificate_ok"] = m.certificate_ok
    if m.interrupted:
        out["interrupted"] = True
    return out


def measurement_from_dict(data: Dict[str, object]) -> Measurement:
    stats = data.get("stats")
    return Measurement(
        instance=data["instance"],
        solver=data["solver"],
        outcome=Outcome(data["outcome"]),
        decisions=data["decisions"],
        seconds=data["seconds"],
        learned_clauses=data.get("learned_clauses", 0),
        learned_cubes=data.get("learned_cubes", 0),
        stats=stats_from_dict(stats) if stats is not None else None,
        certificate_status=data.get("certificate_status"),
        interrupted=bool(data.get("interrupted", False)),
    )


# -- tasks and records --------------------------------------------------------


@dataclass(frozen=True)
class Task:
    """One solver run to schedule: which formula, which pipeline, which label.

    ``solver`` is the label recorded on the resulting measurement (e.g.
    ``"PO"``, ``"TO(eu_au)"``, or DIA's ``"TO(eq16)"`` where the prenex
    form is built by the encoder and solved directly). ``mode`` selects the
    pipeline: ``"po"`` solves ``formula`` as-is, ``"to"`` prenexes with
    ``strategy`` first. ``overrides`` are extra :class:`SolverConfig` fields
    as a sorted tuple of pairs (kept hashable so tasks can key dicts).
    """

    instance: str
    solver: str
    formula: QBF
    mode: str = "po"  # "po" | "to"
    strategy: str = "eu_au"
    budget: Budget = Budget()
    overrides: Tuple[Tuple[str, object], ...] = ()
    #: self-check the run: log the resolution proof and verify it against
    #: the original formula (see :mod:`repro.certify`). Certified runs use
    #: the certifying config (pure literals off), so their keys must not
    #: collide with uncertified runs of the same instance.
    certify: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("po", "to"):
            raise ValueError("unknown task mode %r" % (self.mode,))

    def fingerprint(self) -> str:
        """Stable digest of everything that shapes the run besides the formula.

        ``certify`` enters the payload only when set, so fingerprints of
        uncertified tasks — and therefore resume keys of every pre-existing
        results file — are byte-identical to what older versions computed.
        """
        payload = {
            "mode": self.mode,
            "strategy": self.strategy if self.mode == "to" else None,
            "decisions": self.budget.decisions,
            "seconds": self.budget.seconds,
            "overrides": sorted(self.overrides),
        }
        if self.certify:
            payload["certify"] = True
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.instance, self.solver, self.fingerprint())


@dataclass
class Record:
    """One JSONL row: the outcome of attempting one :class:`Task`.

    Failures (worker crash, hard timeout, solver disagreement) carry a
    synthesized ``Outcome.UNKNOWN`` measurement so downstream aggregation
    treats them like the paper treats timeouts — censored, not fatal.
    """

    instance: str
    solver: str
    fingerprint: str
    status: str
    measurement: Optional[Measurement] = None
    attempts: int = 1
    error: Optional[str] = None
    #: cumulative seconds of deliberate retry backoff that preceded this
    #: record (0.0 on first-attempt successes; serialized only when spent).
    backoff: float = 0.0

    @classmethod
    def of(cls, task: "Task", status: str, **fields) -> "Record":
        """A record keyed by ``task``'s instance, solver and fingerprint."""
        return cls(task.instance, task.solver, task.fingerprint(), status, **fields)

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.instance, self.solver, self.fingerprint)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "instance": self.instance,
            "solver": self.solver,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "attempts": self.attempts,
        }
        if self.measurement is not None:
            out["measurement"] = measurement_to_dict(self.measurement)
        if self.error is not None:
            out["error"] = self.error
        if self.backoff:
            out["backoff"] = round(self.backoff, 3)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Record":
        schema = data.get("schema", 1)
        if not isinstance(schema, int) or schema > SCHEMA_VERSION:
            # A newer writer knows fields this reader does not; pretending to
            # understand the row could resurrect it with meaning stripped.
            raise ValueError("unsupported results schema %r" % (schema,))
        m = data.get("measurement")
        return cls(
            instance=data["instance"],
            solver=data["solver"],
            fingerprint=data.get("fingerprint", ""),
            status=data.get("status", STATUS_OK),
            measurement=measurement_from_dict(m) if m is not None else None,
            attempts=data.get("attempts", 1),
            error=data.get("error"),
            backoff=data.get("backoff", 0.0),
        )


def _failure_measurement(task: Task, seconds: float) -> Measurement:
    """Outcome-style failure stand-in: censored like a timeout."""
    return Measurement(
        instance=task.instance,
        solver=task.solver,
        outcome=Outcome.UNKNOWN,
        decisions=task.budget.decisions,
        seconds=seconds,
    )


def execute_task(task: Task) -> Measurement:
    """Run one task in the current process (the default worker body).

    The solver polls the process-global interrupt flag, which pool workers
    wire to SIGTERM (:func:`_worker_main`), so a preempted attempt reports
    a partial measurement.
    """
    overrides = dict(task.overrides)
    common = dict(budget=task.budget, certify=task.certify, interrupt=global_flag())
    if task.mode == "to":
        m = solve_to(
            task.formula, task.instance, strategy=task.strategy, **dict(common, **overrides)
        )
    else:
        m = solve_po(task.formula, task.instance, **dict(common, **overrides))
    # The label is the task's business (DIA solves a pre-built prenex form in
    # "po" mode but records it as TO), so stamp it unconditionally.
    m.solver = task.solver
    m.instance = task.instance
    return m


def measure_task(
    task: Task, executor: Optional[Callable[[Task], Measurement]] = None
) -> Dict[str, object]:
    """Pool body of one task attempt: the measurement as a dict, which is
    what a worker's pipe carries.

    ``executor`` defaults to :func:`execute_task`, looked up in this module
    at each call, so a persistent worker runs whatever the module binds
    when the job arrives.
    """
    return measurement_to_dict((executor or execute_task)(task))


# -- JSONL persistence --------------------------------------------------------


class ResultsLog:
    """Append-only JSONL store of :class:`Record` rows keyed for resume.

    ``durable`` (the default) fsyncs after every append: an acknowledged
    record must survive a machine crash, or the resume logic re-runs the
    task against a results file that silently lost its history. Sweeps
    always open it durable; only the serve daemon's verdict cache, whose
    lost rows are merely re-solved, opens it with ``durable=False``.
    ``faults`` optionally injects torn appends (tests/CI only).
    """

    def __init__(self, path: str, durable: bool = True, faults: Optional[FaultPlan] = None):
        self.path = path
        self.durable = durable
        self._faults = faults
        self._handle: Optional[IO[str]] = None

    def load(self) -> Dict[Tuple[str, str, str], Record]:
        """Read every well-formed row; tolerate a torn final line."""
        records: Dict[Tuple[str, str, str], Record] = {}
        if not os.path.exists(self.path):
            return records
        with open(self.path, "r") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = Record.from_dict(json.loads(line))
                except (ValueError, KeyError, TypeError):
                    # A crash mid-append can tear the last line, and a newer
                    # tool may have written rows in a schema this reader does
                    # not understand; skip such rows and let the sweep re-run
                    # those tasks.
                    continue
                records[rec.key] = rec
        return records

    def append(self, record: Record) -> None:
        if self._handle is None:
            directory = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a")
            # A crash mid-append can leave a torn final line with no trailing
            # newline; terminate it so the first new row is not glued onto
            # (and lost inside) the unparseable fragment.
            if self._handle.tell() > 0:
                with open(self.path, "rb") as check:
                    check.seek(-1, os.SEEK_END)
                    if check.read(1) != b"\n":
                        self._handle.write("\n")
        line = json.dumps(record.to_dict(), sort_keys=True) + "\n"
        if self._faults is not None and self._faults.torn_append(
            "%s|%s" % (record.instance, record.solver)
        ):
            # Injected torn append: write half the line, no newline — what a
            # crash mid-append leaves behind. load() skips the fragment and
            # the next sweep re-runs the task.
            line = line[: max(1, len(line) // 2)]
        self._handle.write(line)
        self._handle.flush()
        if self.durable:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultsLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the worker pool ----------------------------------------------------------


def _mp_context():
    """Prefer fork (fast, no re-import requirements for test executors)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _apply_memory_limit(mem_limit_mb: Optional[float]) -> None:
    """Cap this process's address space (``RLIMIT_AS``; POSIX only).

    An allocation beyond the ceiling raises :class:`MemoryError` inside the
    worker, which reports it as a structured ``memout`` instead of the
    kernel OOM-killing the host (or the pool's parent).
    """
    if mem_limit_mb is None or mem_limit_mb <= 0:
        return
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return
    limit = int(mem_limit_mb * 1024 * 1024)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, OSError):  # pragma: no cover - exotic rlimits
        pass


def _run_job(job, body, attempt: int, faults, mem_limit_mb) -> Tuple[str, object]:
    """Run one job in the worker; returns the ``(status, payload)`` report.

    A :class:`MemoryError` (from the ceiling or from the solver itself) is
    a ``memout``, whose message is built without ``traceback.format_exc()``:
    under genuine memory pressure the formatting allocation itself can die.
    """
    try:
        if faults is not None:
            faults.on_worker_start(job, attempt)
        return STATUS_OK, body(job)
    except MemoryError as exc:
        if mem_limit_mb:
            return STATUS_MEMOUT, "worker exceeded its memory ceiling (%.0f MiB): %s" % (
                mem_limit_mb, exc,
            )
        return STATUS_MEMOUT, "solver ran out of memory: %s" % exc
    except Exception:
        return STATUS_CRASH, traceback.format_exc()


def _send(conn, message) -> bool:
    try:
        conn.send(message)
        return True
    except Exception:
        return False  # the other end is gone; the pool sees the worker's exit


def _worker_main(
    job,
    body: Callable[[object], object],
    conn,
    attempt: int = 1,
    faults: Optional[FaultPlan] = None,
    mem_limit_mb: Optional[float] = None,
    persistent: bool = False,
) -> None:
    """Worker process: run ``job``, report it, and (persistent) take the next.

    The prologue runs once per fork, with SIGTERM still blocked (see
    :meth:`WorkerPool.submit`). It clears the interrupt flag inherited from
    the parent and detaches the parent's signal wakeup fd: asyncio loops set
    one, and left in place, *this worker's* SIGTERM would be written into
    the parent loop's self-pipe and read back as a shutdown of the parent.
    It then routes SIGTERM to the interrupt flag and unblocks it, so a
    cancel sent at any time after the fork preempts the job (the solver
    stops at its next poll and reports a partial measurement instead of
    dying mid-search), and caps the address space at ``mem_limit_mb``.
    That holds only while the worker holds a job: an idle persistent
    worker dies of SIGTERM as if it had no handler, so an exiting parent
    that never closed its pool (multiprocessing SIGTERMs and joins every
    daemonic child) does not wait forever on a worker waiting for a job.
    A cancel that lands after the pool sent a job but before the worker
    read it therefore ends the job ``cancelled``, with no report.

    Each job is reported as ``(status, payload)``. The worker exits after a
    failed job (the pool forks a fresh one), after its one job unless
    ``persistent``, after a job during which it was signalled (the pool
    never hands a signalled worker another one, so the flag needs no
    clearing between jobs), when the parent sends ``None``, and when the
    parent dies while the worker waits for its next job.

    ``KeyboardInterrupt``/``SystemExit`` are reported as a crash but then
    *re-raised*: swallowing them would leave the worker running after the
    user (or the interpreter) asked it to stop.
    """
    flag = global_flag()
    flag.clear()
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    idle = False

    def on_sigterm(signum, frame) -> None:
        if not idle:
            flag.set(signum, frame)
            return
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)

    signal.signal(signal.SIGTERM, on_sigterm)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    _apply_memory_limit(mem_limit_mb)
    parent = multiprocessing.parent_process()
    try:
        while job is not None:
            try:
                report = _run_job(job, body, attempt, faults, mem_limit_mb)
            except BaseException:
                _send(conn, (STATUS_CRASH, traceback.format_exc()))
                raise
            if not _send(conn, report) or not persistent or report[0] != STATUS_OK:
                return
            idle = True
            if flag.is_set():
                return  # signalled during the job
            # A recv alone never sees EOF once the parent is gone: this
            # worker, and every process forked after it, holds a copy of
            # the parent's end of the pipe. The parent's sentinel fires once
            # the parent and those later forks have exited; later workers
            # watch theirs too, so a killed parent's workers unwind newest
            # first instead of waiting forever.
            if parent is not None and parent.sentinel in _wait_ready([conn, parent.sentinel]):
                return
            try:
                job, attempt = conn.recv() or (None, 0)
            except (EOFError, OSError):
                return
            idle = False
    finally:
        conn.close()


@dataclass(eq=False)
class Job:
    """One unit of pool work, from :meth:`WorkerPool.submit` to the
    :meth:`WorkerPool.wait` call that hands it back done."""

    work: object
    started: float = 0.0
    #: monotonic time at which the pool SIGTERMs the worker (None: never).
    deadline: Optional[float] = None
    #: filled in when the job is done: a report status (``ok``, ``crash``,
    #: ``memout``) or, for a worker that died without reporting,
    #: ``crash``/``hard-timeout``/``cancelled`` by why it was signalled.
    status: Optional[str] = None
    #: the body's return value when ``status`` is ``ok``, else error text.
    result: object = None
    seconds: float = 0.0
    #: :meth:`WorkerPool.cancel` signalled this job's worker.
    cancelled: bool = False
    #: the deadline passed and the pool signalled this job's worker.
    timed_out: bool = False

    def finish(self, status: str, result: object) -> "Job":
        self.status, self.result = status, result
        self.seconds = time.monotonic() - self.started
        return self


@dataclass(eq=False)
class _Worker:
    id: int
    process: multiprocessing.process.BaseProcess
    conn: object
    job: Optional[Job] = None
    #: when the pool sent SIGTERM for the current job; None before.
    termed_at: Optional[float] = None
    killed: bool = False


class WorkerPool:
    """Forked solver workers: one fork, wait, signal and kill path.

    Up to ``size`` workers, each holding at most one :class:`Job`. The pool
    forks a worker when a job arrives and no worker is idle, handing it the
    job at the fork (inherited, not pickled); a persistent worker gets later
    jobs over its own duplex pipe. Every worker runs ``body`` on each of
    its jobs.

    Two re-fork policies: one-shot workers (the default) exit after their
    job, so every job starts from the parent's memory image; ``persistent``
    workers run job after job. Either way a worker whose job failed, or
    that was signalled, exits and is replaced by a fresh fork on demand,
    and a closed pool forks afresh on its next :meth:`submit`.

    :meth:`wait` blocks on the workers' pipes and process sentinels at once
    (no polling) and always reads a worker's report before it counts the
    worker's exit as a crash. A job past its deadline, or one passed to
    :meth:`cancel`, gets SIGTERM (the worker's interrupt flag) and, after
    ``term_grace`` seconds without a report, SIGKILL. An event loop waits
    the same way without blocking: it watches :meth:`handles`, wakes by
    :meth:`next_wake` at the latest, and collects with ``wait(0)``.
    """

    def __init__(
        self,
        size: int,
        body: Callable[[object], object],
        persistent: bool = False,
        mem_limit_mb: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        term_grace: float = 2.0,
    ):
        self.size = size
        self.persistent = persistent
        self.mem_limit_mb = mem_limit_mb
        self.faults = faults
        self.term_grace = term_grace
        self._context = _mp_context()
        #: workers forked so far (also the next worker's id).
        self.forks = 0
        #: monotonic time a job was last submitted or handed back done.
        self.last_active = time.monotonic()
        self._body = body
        self._workers: Dict[int, _Worker] = {}

    def submit(self, work, attempt: int = 1, timeout: Optional[float] = None) -> Job:
        """Start ``work`` on an idle worker, forking one if needed."""
        now = self.last_active = time.monotonic()
        job = Job(work, now, None if timeout is None else now + timeout)
        for worker in self._workers.values():
            if worker.job is None:
                if _send(worker.conn, (work, attempt)):
                    worker.job = job
                    return job
                self._retire(worker, 0.0)  # died while idle
                break
        if len(self._workers) >= self.size:
            raise RuntimeError("all %d workers are busy" % self.size)
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        worker_id = self.forks
        self.forks += 1
        process = self._context.Process(
            target=_worker_main,
            args=(
                work, self._body, child_conn, attempt,
                self.faults, self.mem_limit_mb, self.persistent,
            ),
            daemon=True,
        )
        # The worker is born with SIGTERM blocked and unblocks it once its
        # prologue has detached the wakeup fd: an early cancel must not be
        # written into the parent's event loop as the parent's own SIGTERM.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            process.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        child_conn.close()
        self._workers[worker_id] = _Worker(worker_id, process, parent_conn, job)
        return job

    def cancel(self, job: Job) -> None:
        """SIGTERM the worker holding ``job`` (a no-op once it is done)."""
        for worker in self._workers.values():
            if worker.job is job:
                job.cancelled = True
                self._terminate(worker)
                return

    def handles(self) -> List[object]:
        """Each worker's pipe and process sentinel: what :meth:`wait` blocks
        on, for a caller that waits on them itself and then calls
        ``wait(0)``."""
        return [h for w in self._workers.values() for h in (w.conn, w.process.sentinel)]

    def next_wake(self) -> Optional[float]:
        """Monotonic time of the next SIGTERM or SIGKILL the pool owes a busy
        worker (a job's deadline, or a signalled worker's grace), or None."""
        wakes = []
        for worker in self._workers.values():
            if worker.termed_at is not None:
                wakes.append(worker.termed_at + self.term_grace)
            elif worker.job is not None and worker.job.deadline is not None:
                wakes.append(worker.job.deadline)
        return min(wakes, default=None)

    def wait(self, timeout: Optional[float] = None) -> List[Job]:
        """Block until some jobs are done (returned) or ``timeout`` passes.

        ``wait(0)`` never blocks: it sends the signals that are due and
        collects whatever :meth:`handles` says is ready.
        """
        end = None if timeout is None else time.monotonic() + timeout
        while True:
            done = self._enforce_deadlines()
            if done:
                self.last_active = time.monotonic()
                return done
            wakes = [t for t in (end, self.next_wake()) if t is not None]
            delay = max(0.0, min(wakes) - time.monotonic()) if wakes else None
            if not self._workers:
                time.sleep(delay or 0.0)  # only a retry backoff to wait out
                return []
            workers = list(self._workers.values())
            ready = set(_wait_ready(self.handles(), delay))
            for worker in workers:
                if worker.conn in ready or worker.process.sentinel in ready:
                    job = self._collect(worker)
                    if job is not None:
                        done.append(job)
            if done:
                self.last_active = time.monotonic()
                return done
            if end is not None and time.monotonic() >= end:
                return done

    def close(self) -> int:
        """Stop every worker: busy ones get SIGTERM, all are told to exit,
        and whatever is still alive after ``term_grace`` is killed. Returns
        how many workers there were."""
        workers = list(self._workers.values())
        for worker in workers:
            if worker.job is not None:
                self._terminate(worker)
        deadline = time.monotonic() + self.term_grace
        for worker in workers:
            self._retire(worker, max(0.0, deadline - time.monotonic()))
        return len(workers)

    # -- internals ----------------------------------------------------------

    def _terminate(self, worker: _Worker) -> None:
        if worker.termed_at is None:
            worker.process.terminate()
            worker.termed_at = time.monotonic()

    def _enforce_deadlines(self) -> List[Job]:
        """SIGTERM jobs past their deadline; SIGKILL workers past the grace."""
        done: List[Job] = []
        now = time.monotonic()
        for worker in list(self._workers.values()):
            job = worker.job
            if job is None:
                continue
            if worker.termed_at is None:
                if job.deadline is not None and now >= job.deadline:
                    job.timed_out = True
                    self._terminate(worker)
            elif now - worker.termed_at >= self.term_grace:
                # The grace expired without a report: the worker is wedged
                # (or its body never polls the flag); SIGKILL cannot be
                # ignored.
                worker.process.kill()
                worker.killed = True
                worker.process.join()
                done.append(self._collect(worker))
        return done

    def _collect(self, worker: _Worker) -> Optional[Job]:
        """Settle ``worker`` after its pipe or sentinel fired: read its
        report if it sent one, else count its exit; return its done job."""
        report = None
        try:
            if worker.conn.poll():
                report = worker.conn.recv()
        except (EOFError, OSError):
            report = None  # the worker is gone without a (whole) report
        job = worker.job
        if report is not None and job is not None:
            status, result = report
            if self.persistent and status == STATUS_OK and worker.termed_at is None:
                worker.job = None
            else:
                self._retire(worker, self.term_grace)
            return job.finish(status, result)
        self._retire(worker, self.term_grace)
        if job is None:
            return None  # an idle worker died: the next job forks afresh
        how = (
            "SIGKILL after %.1fs grace" % self.term_grace
            if worker.killed
            else "exitcode %s" % (worker.process.exitcode,)
        )
        elapsed = time.monotonic() - job.started
        if job.timed_out:
            return job.finish(
                STATUS_HARD_TIMEOUT, "hard wall-clock timeout after %.1fs (%s)" % (elapsed, how)
            )
        if job.cancelled:
            return job.finish(STATUS_CANCELLED, "cancelled after %.1fs (%s)" % (elapsed, how))
        return job.finish(STATUS_CRASH, "worker died without reporting (%s)" % how)

    def _retire(self, worker: _Worker, grace: float) -> None:
        self._workers.pop(worker.id, None)
        _send(worker.conn, None)  # a persistent worker waits for its next job
        worker.process.join(grace)
        if worker.process.is_alive():  # a worker stuck on its way out
            worker.process.kill()
            worker.process.join()
        worker.conn.close()


# -- sweeps on the pool -------------------------------------------------------


@dataclass
class Attempt:
    """One queued (re)attempt of a task, possibly delayed by retry backoff.
    ``index`` is the task's place in its sweep."""

    index: int
    task: Task
    attempt: int
    not_before: float = 0.0
    backoff: float = 0.0


def _retry_jitter(key: Tuple[str, str, str], attempt: int) -> float:
    """Deterministic jitter fraction in [0, 1): hash of (key, attempt).

    Deterministic so sweeps stay reproducible (and testable) while distinct
    tasks still spread their retries instead of stampeding in lockstep.
    """
    seed = "%s|%s|%s|%d" % (key[0], key[1], key[2], attempt)
    return int(hashlib.sha256(seed.encode("utf-8")).hexdigest()[:8], 16) / float(1 << 32)


def _backoff_delay(base: float, key: Tuple[str, str, str], attempt: int) -> float:
    """Exponential backoff before retrying ``attempt + 1``: the classic
    ``base * 2^(attempt-1)``, scaled into [0.5, 1.0) by the jitter."""
    if base <= 0:
        return 0.0
    return base * (2.0 ** (attempt - 1)) * (0.5 + 0.5 * _retry_jitter(key, attempt))


def run_tasks(
    tasks: Sequence[Task],
    jobs: int = 1,
    results: Optional[object] = None,
    wall_timeout: Optional[float] = None,
    max_retries: int = 1,
    executor: Optional[Callable[[Task], Measurement]] = None,
    term_grace: float = 2.0,
    retry_backoff: float = 0.5,
    faults: Optional[FaultPlan] = None,
    mem_limit_mb: Optional[float] = None,
) -> List[Record]:
    """Run ``tasks`` and return one :class:`Record` per task, in task order.

    Args:
        tasks: the runs to schedule. Keys (instance, solver, fingerprint)
            should be unique; duplicate keys share one record.
        jobs: worker processes. ``1`` runs serially in-process (the exact
            legacy execution model); ``>1`` forks one :class:`WorkerPool`
            worker per task attempt.
        results: a :class:`ResultsLog`, a path string, or None. When given,
            already-recorded keys are skipped (resume) and every new record
            is appended as it completes; a path opens a durable log, which
            fsyncs every append.
        wall_timeout: hard per-run seconds; an exceeded run's worker gets
            SIGTERM (a chance to report its partial measurement), then
            SIGKILL after ``term_grace`` seconds. Only enforced when
            ``jobs > 1`` (a single process cannot kill itself safely);
            serial runs still honor the budget's cooperative limits.
        max_retries: how many times a crashed or hard-timed-out task is
            re-queued before its failure record is written. Every retry
            restarts the run from scratch.
        executor: the task body, a module-level callable mapping Task ->
            Measurement. Defaults to :func:`execute_task`, looked up at
            each call (:func:`measure_task`); tests substitute
            crashing/hanging bodies to exercise fault isolation.
        term_grace: seconds between SIGTERM and SIGKILL on a wall timeout.
        retry_backoff: base seconds of the exponential crash-retry backoff
            (deterministically jittered per task); 0 disables the delay.
        faults: a :class:`repro.robustness.faults.FaultPlan` injecting
            deterministic failures (tests/CI chaos legs).
        mem_limit_mb: per-worker address-space ceiling in MiB (POSIX,
            ``jobs > 1`` only — a process cannot safely cap itself while
            holding the whole sweep's state). A worker that breaches it
            produces a ``memout`` record instead of a host-level OOM kill;
            memouts are never retried.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")

    log: Optional[ResultsLog]
    if results is None:
        log = None
    elif isinstance(results, ResultsLog):
        log = results
    else:
        log = ResultsLog(results, faults=faults)
    done: Dict[Tuple[str, str, str], Record] = log.load() if log is not None else {}

    out: List[Optional[Record]] = [None] * len(tasks)
    pending: List[Attempt] = []
    for i, task in enumerate(tasks):
        cached = done.get(task.key)
        if cached is not None:
            out[i] = cached
        else:
            pending.append(Attempt(i, task, 1))
    if faults is not None:
        # Bind fault victims before any worker forks, so every process
        # (and a rerun with the same seed) sees the same assignments.
        faults.bind(FaultPlan.label(p.task) for p in pending)

    def finish(index: int, task: Task, record: Record) -> None:
        out[index] = record
        done[task.key] = record
        if log is not None:
            log.append(record)

    if jobs == 1:
        _run_serial(
            pending, executor or execute_task, max_retries, retry_backoff, faults, finish
        )
    else:
        pool = WorkerPool(
            jobs,
            functools.partial(measure_task, executor=executor),
            mem_limit_mb=mem_limit_mb,
            faults=faults,
            term_grace=term_grace,
        )
        try:
            _run_pool(pending, pool, wall_timeout, max_retries, retry_backoff, finish)
        finally:
            pool.close()

    if log is not None and not isinstance(results, ResultsLog):
        log.close()
    assert all(r is not None for r in out)
    return out  # type: ignore[return-value]


def _settle(
    entry: Attempt,
    status: str,
    result: object,
    seconds: float,
    max_retries: int,
    retry_backoff: float,
    timed_out: bool = False,
):
    """The retry policy for one finished attempt: its :class:`Record`, or
    the :class:`Attempt` retry to run instead.

    ``result`` is the :class:`Measurement` when ``status`` is ``ok``, else
    the error text; ``timed_out`` says the pool SIGTERMed the attempt at its
    wall-clock deadline.
    """
    task, attempt = entry.task, entry.attempt
    measurement = result if status == STATUS_OK else None
    error = None if status == STATUS_OK else result
    if status == STATUS_OK and timed_out and measurement.interrupted:
        # Our SIGTERM preempted it: the worker reported gracefully, but the
        # *task* still overran the wall clock — classify as a hard timeout
        # (the partial measurement rides along) so it gets its retry.
        status = STATUS_HARD_TIMEOUT
        error = "hard wall-clock timeout after %.1fs" % seconds
    if status == STATUS_OK:
        return Record.of(
            task, STATUS_OK, measurement=measurement, attempts=attempt, backoff=entry.backoff
        )
    if attempt <= max_retries:
        if status == STATUS_CRASH:
            # Exponential backoff with deterministic jitter: don't hammer a
            # transiently failing (e.g. OOMing) box.
            delay = _backoff_delay(retry_backoff, task.key, attempt)
            return Attempt(
                entry.index, task, attempt + 1, time.monotonic() + delay, entry.backoff + delay
            )
        if status == STATUS_HARD_TIMEOUT:
            # Immediate requeue: time was the failure, not the machine. The
            # retry restarts the run with a fresh wall budget.
            return Attempt(entry.index, task, attempt + 1, backoff=entry.backoff)
    # Memouts are final: the same allocation fails the same way again.
    return Record.of(
        task,
        status,
        measurement=measurement or _failure_measurement(task, seconds),
        attempts=attempt,
        error=error,
        backoff=entry.backoff,
    )


def settle_job(
    entry: Attempt, job: Job, max_retries: int = 1, retry_backoff: float = 0.5
):
    """The retry policy for one finished :func:`measure_task` job on a
    :class:`WorkerPool`: its :class:`Record`, or the :class:`Attempt` to
    submit instead once its ``not_before`` has passed. The defaults are
    :func:`run_tasks`'s."""
    ok = job.status == STATUS_OK
    result = measurement_from_dict(job.result) if ok else job.result
    return _settle(
        entry, job.status, result, job.seconds, max_retries, retry_backoff, job.timed_out
    )


def _run_serial(
    pending: List[Attempt],
    executor: Callable[[Task], Measurement],
    max_retries: int,
    retry_backoff: float,
    faults: Optional[FaultPlan],
    finish: Callable[[int, Task, Record], None],
) -> None:
    """In-process execution, in task order, with the pool's job body and
    retry policy.

    ``KeyboardInterrupt``/``SystemExit`` propagate — a serial sweep must
    stop promptly on Ctrl-C, not convert the interrupt into a crash row and
    march on.
    """
    for entry in pending:
        while True:
            start = time.monotonic()
            status, result = _run_job(entry.task, executor, entry.attempt, faults, None)
            settled = _settle(
                entry, status, result, time.monotonic() - start, max_retries, retry_backoff
            )
            if isinstance(settled, Record):
                break
            time.sleep(max(0.0, settled.not_before - time.monotonic()))
            entry = settled
        finish(entry.index, entry.task, settled)


def _run_pool(
    pending: List[Attempt],
    pool: WorkerPool,
    wall_timeout: Optional[float],
    max_retries: int,
    retry_backoff: float,
    finish: Callable[[int, Task, Record], None],
) -> None:
    """Every attempt as one job on ``pool``, with the retry policy.

    Sweeps run on one-shot workers, one per attempt: every task starts from
    the parent's memory image, so a sweep's peak RSS is one task's, not the
    accumulation of everything a reused worker ever solved.
    """
    queue: List[Attempt] = list(pending)
    running: Dict[Job, Attempt] = {}
    try:
        while queue or running:
            now = time.monotonic()
            while len(running) < pool.size:
                ready = next((i for i, p in enumerate(queue) if p.not_before <= now), None)
                if ready is None:
                    break
                entry = queue.pop(ready)
                running[pool.submit(entry.task, entry.attempt, wall_timeout)] = entry
            # With a slot free, wake when the earliest retry backoff ends.
            timeout = None
            if queue and len(running) < pool.size:
                timeout = max(0.0, min(p.not_before for p in queue) - now)
            for job in pool.wait(timeout):
                entry = running.pop(job)
                settled = settle_job(entry, job, max_retries, retry_backoff)
                if isinstance(settled, Attempt):
                    queue.append(settled)
                else:
                    finish(entry.index, entry.task, settled)
    finally:
        if running:
            pool.close()  # interrupted: leave no orphan and no busy worker


# -- pair plumbing on top of records ------------------------------------------


def measurements_by_key(records: Iterable[Record]) -> Dict[Tuple[str, str], Measurement]:
    """Index usable measurements by (instance, solver) for pair reassembly."""
    out: Dict[Tuple[str, str], Measurement] = {}
    for rec in records:
        if rec.status == STATUS_DISAGREEMENT or rec.measurement is None:
            continue
        out[(rec.instance, rec.solver)] = rec.measurement
    return out


def disagreement_record(exc: SolverDisagreement) -> Record:
    """A first-class failure row for a TO/PO outcome mismatch.

    When certification has already decided which side holds the valid proof
    (:attr:`SolverDisagreement.winner`), that measurement rides along on the
    row, so the disagreement arrives pre-triaged in the results file.
    """
    return Record(
        instance=exc.a.instance or exc.b.instance,
        solver="%s|%s" % (exc.a.solver, exc.b.solver),
        fingerprint="",
        status=STATUS_DISAGREEMENT,
        measurement=exc.winner,
        error=str(exc),
    )


def note_disagreement(exc: SolverDisagreement, log: Optional[ResultsLog]) -> Record:
    """Record a disagreement as data; re-raise only when nothing records it."""
    record = disagreement_record(exc)
    if log is None:
        raise exc
    log.append(record)
    return record
