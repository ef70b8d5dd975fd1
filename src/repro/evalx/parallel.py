"""Fault-isolated multiprocess batch runner for TO-vs-PO sweeps.

The paper's Section VII experiments are embarrassingly parallel: hundreds of
independent QUBE(TO)/QUBE(PO) runs per suite. This module fans those runs
out over a ``multiprocessing`` worker pool with the three properties a
trustworthy batch harness needs:

* **hard wall-clock timeouts** — a run that exceeds ``wall_timeout`` has
  its worker killed, not merely asked to stop via the solver's cooperative
  ``max_seconds`` check (which a pathological propagation loop may never
  reach). Killing escalates: SIGTERM first (the worker's handler flips the
  solver's interrupt flag, letting it flush a checkpoint and report a
  partial measurement), SIGKILL after a grace period;
* **crash isolation** — a worker that dies (OOM kill, ``RecursionError``, a
  solver bug) produces a structured failure :class:`Record` for that one
  instance, with a bounded number of retries, instead of aborting the sweep;
* **resumable JSONL persistence** — every completed run is appended to a
  results file as one JSON line carrying the :class:`Measurement`, the full
  :class:`SolverStats` and a config fingerprint; re-running the same sweep
  against the same file skips every (instance, solver, config) key already
  recorded, so an interrupted sweep continues where it left off.

``jobs=1`` is the serial degenerate case: tasks run in-process, in order,
with no worker processes involved, so existing single-process results stay
bit-for-bit reproducible (crashes are still captured as failure records).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
import time
import traceback
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, IO, Iterable, List, Optional, Sequence, Tuple

from repro.core.formula import QBF
from repro.core.result import Outcome, SolverStats
from repro.core.solver import SolverConfig
from repro.evalx.runner import (
    Budget,
    Measurement,
    SolverDisagreement,
    solve_po,
    solve_to,
)
from repro.robustness.checkpoint import CheckpointError, load_checkpoint
from repro.robustness.faults import FaultPlan
from repro.robustness.interrupt import global_flag

#: record statuses, in the JSONL ``status`` field.
STATUS_OK = "ok"
STATUS_CRASH = "crash"
STATUS_HARD_TIMEOUT = "hard-timeout"
STATUS_DISAGREEMENT = "disagreement"
#: the worker breached its address-space ceiling (``mem_limit_mb``). Never
#: retried: an allocation that failed at this ceiling fails again at this
#: ceiling, so the record is written immediately (any checkpoint an earlier
#: attempt salvaged stays on disk for a future run at a higher ceiling).
STATUS_MEMOUT = "memout"

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


def config_to_dict(config: SolverConfig) -> Dict[str, object]:
    return {f.name: getattr(config, f.name) for f in fields(SolverConfig)}


def config_from_dict(data: Dict[str, object]) -> SolverConfig:
    known = {f.name for f in fields(SolverConfig)}
    return SolverConfig(**{k: v for k, v in data.items() if k in known})


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
    #: directory for solver checkpoints. When set, a preempted or
    #: hard-timed-out run flushes its search frontier there and a retry (or
    #: a whole re-invoked sweep) resumes instead of restarting. Excluded
    #: from the fingerprint: checkpoints are an execution detail, not part
    #: of what the run measures.
    checkpoint_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in ("po", "to"):
            raise ValueError("unknown task mode %r" % (self.mode,))

    def checkpoint_path(self) -> Optional[str]:
        """Per-key snapshot file under ``checkpoint_dir`` (None when off)."""
        if self.checkpoint_dir is None:
            return None
        digest = hashlib.sha256("|".join(self.key).encode("utf-8")).hexdigest()[:16]
        return os.path.join(self.checkpoint_dir, digest + ".ckpt")

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

    With ``task.checkpoint_dir`` set, a valid snapshot from an earlier
    preempted attempt is resumed (a torn or foreign one is ignored — the
    run simply restarts), and the solver flushes a fresh snapshot if this
    attempt is preempted in turn. The solver polls the process-global
    interrupt flag, which :func:`_worker_main` wires to SIGTERM.
    """
    overrides = dict(task.overrides)
    ckpt_path = task.checkpoint_path()
    resume = None
    if ckpt_path is not None and os.path.exists(ckpt_path):
        try:
            resume = load_checkpoint(ckpt_path)
        except CheckpointError:
            resume = None  # detected by version/digest: fall back to fresh
    common = dict(
        budget=task.budget,
        certify=task.certify,
        interrupt=global_flag(),
        resume_from=resume,
        checkpoint_to=ckpt_path,
    )
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


# -- JSONL persistence --------------------------------------------------------


class ResultsLog:
    """Append-only JSONL store of :class:`Record` rows keyed for resume.

    ``durable`` (the default) fsyncs after every append: an acknowledged
    record must survive a machine crash, or the resume logic re-runs the
    task against a results file that silently lost its history. ``faults``
    optionally injects torn appends (tests/CI only).
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


# -- the pool -----------------------------------------------------------------


def _apply_worker_rlimits(
    mem_limit_mb: Optional[float], cpu_limit: Optional[float], flag
) -> None:
    """Install per-worker resource ceilings (POSIX; silently off elsewhere).

    ``mem_limit_mb`` caps the address space (``RLIMIT_AS``): an allocation
    beyond it raises :class:`MemoryError` inside the worker, which
    :func:`_worker_main` reports as a structured ``memout`` — instead of
    the kernel OOM-killing the host (or the whole pool's parent).

    ``cpu_limit`` is a *soft* CPU-seconds ceiling: ``SIGXCPU`` is routed to
    the interrupt flag, so a cooperative solver checkpoints and reports a
    partial measurement; the hard ceiling a few seconds later is the
    kernel's non-negotiable SIGKILL backstop for a wedged loop.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return
    if mem_limit_mb is not None and mem_limit_mb > 0:
        limit = int(mem_limit_mb * 1024 * 1024)
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        try:
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (ValueError, OSError):  # pragma: no cover - exotic rlimits
            pass
    if cpu_limit is not None and cpu_limit > 0:
        soft = max(1, int(cpu_limit))
        hard_cap = soft + 5
        _, hard = resource.getrlimit(resource.RLIMIT_CPU)
        if hard != resource.RLIM_INFINITY:
            soft = min(soft, hard)
            hard_cap = min(hard_cap, hard)
        try:
            signal.signal(signal.SIGXCPU, flag.set)
            resource.setrlimit(resource.RLIMIT_CPU, (soft, hard_cap))
        except (ValueError, OSError):  # pragma: no cover - exotic rlimits
            pass


def _worker_main(
    task: Task,
    executor: Callable[[Task], Measurement],
    conn,
    attempt: int = 1,
    faults: Optional[FaultPlan] = None,
    mem_limit_mb: Optional[float] = None,
    cpu_limit: Optional[float] = None,
) -> None:
    """Worker body: run the task, ship the result (or the traceback) back.

    SIGTERM is routed to the process-global interrupt flag, so a graceful
    parent-side preemption lets the solver flush a checkpoint and report a
    partial measurement instead of dying mid-search; an executor that never
    polls the flag is covered by the parent's SIGKILL escalation.

    With ``mem_limit_mb`` set, the worker's address space is capped before
    the task runs; a :class:`MemoryError` (from the ceiling or from the
    solver itself) is reported as a ``memout`` — a structured failure the
    parent records without retrying — rather than a generic crash. The
    report message is built without ``traceback.format_exc()``: under
    genuine memory pressure the formatting allocation itself can die.

    ``KeyboardInterrupt``/``SystemExit`` are reported as a crash record but
    then *re-raised*: swallowing them would leave the worker running after
    the user (or the interpreter) asked it to stop.
    """
    flag = global_flag()
    flag.clear()  # fork inherits the parent's flag state; start clean
    try:
        # A forked child inherits the parent's signal wakeup fd (asyncio
        # event loops set one). Left in place, *this worker's* SIGTERM
        # would be written into the parent loop's self-pipe and read back
        # as a shutdown of the parent — reset it before installing ours.
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    signal.signal(signal.SIGTERM, flag.set)
    _apply_worker_rlimits(mem_limit_mb, cpu_limit, flag)
    try:
        if faults is not None:
            faults.on_worker_start(task, attempt)
        measurement = executor(task)
        conn.send((STATUS_OK, measurement_to_dict(measurement)))
    except MemoryError as exc:
        try:
            conn.send((
                STATUS_MEMOUT,
                "worker exceeded its memory ceiling%s: %s"
                % (
                    " (%.0f MiB)" % mem_limit_mb if mem_limit_mb else "",
                    exc,
                ),
            ))
        except Exception:
            pass  # parent sees the dead process and records a crash
    except BaseException as exc:
        try:
            conn.send((STATUS_CRASH, traceback.format_exc()))
        except Exception:
            pass  # parent will see the dead process and record a crash
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
    finally:
        conn.close()


@dataclass
class _Slot:
    """One live worker process and its bookkeeping."""

    process: multiprocessing.process.BaseProcess
    conn: object
    index: int
    task: Task
    attempt: int
    started: float
    deadline: Optional[float]
    #: when the parent sent SIGTERM (graceful preemption); None before.
    termed_at: Optional[float] = None
    #: backoff seconds accumulated by this task's earlier retries.
    backoff: float = 0.0


@dataclass
class _Pending:
    """One queued (re)attempt, possibly delayed by retry backoff."""

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


def _mp_context():
    """Prefer fork (fast, no re-import requirements for test executors)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def run_tasks(
    tasks: Sequence[Task],
    jobs: int = 1,
    results: Optional[object] = None,
    wall_timeout: Optional[float] = None,
    max_retries: int = 1,
    executor: Optional[Callable[[Task], Measurement]] = None,
    poll_interval: float = 0.01,
    term_grace: float = 2.0,
    retry_backoff: float = 0.5,
    faults: Optional[FaultPlan] = None,
    checkpoint_dir: Optional[str] = None,
    durable: bool = True,
    mem_limit_mb: Optional[float] = None,
    cpu_limit: Optional[float] = None,
) -> List[Record]:
    """Run ``tasks`` and return one :class:`Record` per task, in task order.

    Args:
        tasks: the runs to schedule. Keys (instance, solver, fingerprint)
            should be unique; duplicate keys share one record.
        jobs: worker processes. ``1`` runs serially in-process (the exact
            legacy execution model); ``>1`` uses the fault-isolated pool.
        results: a :class:`ResultsLog`, a path string, or None. When given,
            already-recorded keys are skipped (resume) and every new record
            is appended as it completes.
        wall_timeout: hard per-run seconds; an exceeded run's worker gets
            SIGTERM (a chance to checkpoint), then SIGKILL after
            ``term_grace`` seconds. Only enforced with ``jobs > 1`` (a
            single process cannot kill itself safely); serial runs still
            honor the budget's cooperative limits.
        max_retries: how many times a crashed or hard-timed-out task is
            re-queued before its failure record is written. With
            ``checkpoint_dir`` set, a hard-timeout retry resumes from the
            checkpoint the SIGTERM salvaged, so the wall clock resets but
            the search doesn't.
        executor: the task body, a picklable module-level callable mapping
            Task -> Measurement. Defaults to :func:`execute_task`; tests
            substitute crashing/hanging bodies to exercise fault isolation.
        term_grace: seconds between SIGTERM and SIGKILL on a wall timeout.
        retry_backoff: base seconds of the exponential crash-retry backoff
            (deterministically jittered per task); 0 disables the delay.
        faults: a :class:`repro.robustness.faults.FaultPlan` injecting
            deterministic failures (tests/CI chaos legs).
        checkpoint_dir: directory for per-task solver snapshots; stamped
            onto every task (see :attr:`Task.checkpoint_dir`).
        durable: fsync the results log after each append (see
            :class:`ResultsLog`).
        mem_limit_mb: per-worker address-space ceiling in MiB (POSIX,
            ``jobs > 1`` only — a process cannot safely cap itself while
            holding the whole sweep's state). A worker that breaches it
            produces a ``memout`` record instead of a host-level OOM kill;
            memouts are never retried.
        cpu_limit: soft per-worker CPU-seconds ceiling (POSIX, ``jobs > 1``
            only); SIGXCPU flips the worker's interrupt flag so a
            cooperative solver checkpoints, with a kernel SIGKILL backstop
            a few seconds later.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if executor is None:
        executor = execute_task
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        tasks = [replace(task, checkpoint_dir=checkpoint_dir) for task in tasks]

    log: Optional[ResultsLog]
    if results is None:
        log = None
    elif isinstance(results, ResultsLog):
        log = results
    else:
        log = ResultsLog(results, durable=durable, faults=faults)
    done: Dict[Tuple[str, str, str], Record] = log.load() if log is not None else {}

    out: List[Optional[Record]] = [None] * len(tasks)
    pending: List[_Pending] = []
    for i, task in enumerate(tasks):
        cached = done.get(task.key)
        if cached is not None:
            out[i] = cached
        else:
            pending.append(_Pending(i, task, 1))
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
        for p in pending:
            record = _run_serial(p.task, executor, max_retries, retry_backoff, faults)
            finish(p.index, p.task, record)
    else:
        _run_pool(
            pending,
            jobs,
            executor,
            wall_timeout,
            max_retries,
            finish,
            poll_interval,
            term_grace,
            retry_backoff,
            faults,
            mem_limit_mb,
            cpu_limit,
        )

    if log is not None and not isinstance(results, ResultsLog):
        log.close()
    assert all(r is not None for r in out)
    return out  # type: ignore[return-value]


def _run_serial(
    task: Task,
    executor: Callable[[Task], Measurement],
    max_retries: int,
    retry_backoff: float = 0.0,
    faults: Optional[FaultPlan] = None,
) -> Record:
    """In-process execution: crash-as-record with retries, like the pool.

    ``KeyboardInterrupt``/``SystemExit`` propagate — a serial sweep must
    stop promptly on Ctrl-C, not convert the interrupt into a crash row and
    march on.
    """
    attempts = 0
    backoff_spent = 0.0
    while True:
        attempts += 1
        start = time.monotonic()
        try:
            if faults is not None:
                faults.on_worker_start(task, attempts)
            measurement = executor(task)
        except MemoryError as exc:
            # Deterministic failure: the same allocation fails the same way
            # on a retry, so record the memout immediately.
            return Record(
                instance=task.instance,
                solver=task.solver,
                fingerprint=task.fingerprint(),
                status=STATUS_MEMOUT,
                measurement=_failure_measurement(task, time.monotonic() - start),
                attempts=attempts,
                error="solver ran out of memory: %s" % exc,
                backoff=backoff_spent,
            )
        except Exception:
            if attempts <= max_retries:
                delay = _backoff_delay(retry_backoff, task.key, attempts)
                if delay > 0:
                    time.sleep(delay)
                    backoff_spent += delay
                continue
            return Record(
                instance=task.instance,
                solver=task.solver,
                fingerprint=task.fingerprint(),
                status=STATUS_CRASH,
                measurement=_failure_measurement(task, time.monotonic() - start),
                attempts=attempts,
                error=traceback.format_exc(),
                backoff=backoff_spent,
            )
        return Record(
            instance=task.instance,
            solver=task.solver,
            fingerprint=task.fingerprint(),
            status=STATUS_OK,
            measurement=measurement,
            attempts=attempts,
            backoff=backoff_spent,
        )


def _run_pool(
    pending: List[_Pending],
    jobs: int,
    executor: Callable[[Task], Measurement],
    wall_timeout: Optional[float],
    max_retries: int,
    finish: Callable[[int, Task, Record], None],
    poll_interval: float,
    term_grace: float = 2.0,
    retry_backoff: float = 0.5,
    faults: Optional[FaultPlan] = None,
    mem_limit_mb: Optional[float] = None,
    cpu_limit: Optional[float] = None,
) -> None:
    ctx = _mp_context()
    queue: List[_Pending] = list(pending)
    running: List[_Slot] = []

    def spawn(entry: _Pending) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_worker_main,
            args=(
                entry.task, executor, child_conn, entry.attempt, faults,
                mem_limit_mb, cpu_limit,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only the read end
        now = time.monotonic()
        running.append(
            _Slot(
                process=process,
                conn=parent_conn,
                index=entry.index,
                task=entry.task,
                attempt=entry.attempt,
                started=now,
                deadline=(now + wall_timeout) if wall_timeout is not None else None,
                backoff=entry.backoff,
            )
        )

    def reap(slot: _Slot) -> None:
        running.remove(slot)
        slot.conn.close()
        slot.process.join(timeout=5.0)
        if slot.process.is_alive():  # pragma: no cover - stuck worker
            slot.process.kill()
            slot.process.join()

    def settle(slot: _Slot, status: str, payload: object) -> None:
        """Turn a worker's exit into a record or a retry."""
        task, attempt = slot.task, slot.attempt
        elapsed = time.monotonic() - slot.started
        measurement: Optional[Measurement] = None
        if status == STATUS_OK and isinstance(payload, dict):
            measurement = measurement_from_dict(payload)
        if (
            status == STATUS_OK
            and slot.termed_at is not None
            and measurement is not None
            and measurement.interrupted
        ):
            # Our SIGTERM preempted it: the worker reported gracefully (its
            # checkpoint is on disk), but the *task* still overran the wall
            # clock — classify as a hard timeout so a retry can resume.
            status = STATUS_HARD_TIMEOUT
            payload = "hard wall-clock timeout after %.1fs (checkpoint salvaged)" % elapsed
        if status == STATUS_OK:
            finish(
                slot.index,
                task,
                Record(
                    instance=task.instance,
                    solver=task.solver,
                    fingerprint=task.fingerprint(),
                    status=STATUS_OK,
                    measurement=measurement,
                    attempts=attempt,
                    backoff=slot.backoff,
                ),
            )
            return
        if attempt <= max_retries:
            if status == STATUS_CRASH:
                # Exponential backoff with deterministic jitter: don't
                # hammer a transiently failing (e.g. OOMing) box.
                delay = _backoff_delay(retry_backoff, task.key, attempt)
                queue.append(
                    _Pending(
                        slot.index,
                        task,
                        attempt + 1,
                        not_before=time.monotonic() + delay,
                        backoff=slot.backoff + delay,
                    )
                )
                return
            if status == STATUS_HARD_TIMEOUT:
                # Immediate requeue: time was the failure, not the machine.
                # With checkpointing on, the retry resumes the salvaged
                # frontier instead of re-spending the whole wall budget.
                queue.append(
                    _Pending(slot.index, task, attempt + 1, backoff=slot.backoff)
                )
                return
        finish(
            slot.index,
            task,
            Record(
                instance=task.instance,
                solver=task.solver,
                fingerprint=task.fingerprint(),
                status=status,
                measurement=measurement or _failure_measurement(task, elapsed),
                attempts=attempt,
                error=payload if isinstance(payload, str) else None,
                backoff=slot.backoff,
            ),
        )

    try:
        while queue or running:
            while len(running) < jobs:
                now = time.monotonic()
                ready = next(
                    (i for i, p in enumerate(queue) if p.not_before <= now), None
                )
                if ready is None:
                    break
                spawn(queue.pop(ready))
            progressed = False
            now = time.monotonic()
            for slot in list(running):
                # Liveness first: a worker that reports and exits between
                # the poll and a later liveness check would otherwise read
                # as dead without a message. Dead before the poll means
                # any report it sent is already in the pipe.
                alive = slot.process.is_alive()
                result = None
                try:
                    if slot.conn.poll():
                        result = slot.conn.recv()
                except (EOFError, OSError):
                    result = None  # died without sending: handled below
                if result is not None:
                    reap(slot)
                    settle(slot, result[0], result[1])
                    progressed = True
                elif not alive:
                    exitcode = slot.process.exitcode
                    reap(slot)
                    if slot.termed_at is not None:
                        # Died after our SIGTERM without reporting: a hard
                        # timeout that didn't manage to checkpoint.
                        settle(
                            slot,
                            STATUS_HARD_TIMEOUT,
                            "hard wall-clock timeout after %.1fs (exitcode %s)"
                            % (now - slot.started, exitcode),
                        )
                    else:
                        # Dead without a message: hard crash (OOM, segfault).
                        settle(
                            slot,
                            STATUS_CRASH,
                            "worker died without reporting (exitcode %s)" % (exitcode,),
                        )
                    progressed = True
                elif slot.deadline is not None and now > slot.deadline:
                    if slot.termed_at is None:
                        # Kill escalation, step 1: SIGTERM. The worker's
                        # handler flips the interrupt flag; a cooperative
                        # solver checkpoints and reports within the grace.
                        slot.process.terminate()
                        slot.termed_at = now
                    elif now - slot.termed_at > term_grace:
                        # Step 2: the grace expired without a report — the
                        # worker is wedged (or the executor never polls the
                        # flag); SIGKILL cannot be ignored.
                        slot.process.kill()
                        reap(slot)
                        settle(
                            slot,
                            STATUS_HARD_TIMEOUT,
                            "hard wall-clock timeout after %.1fs (SIGKILL after %.1fs grace)"
                            % (now - slot.started, term_grace),
                        )
                        progressed = True
            if not progressed:
                time.sleep(poll_interval)
    finally:
        for slot in list(running):  # interrupted: leave no orphans behind
            slot.process.terminate()
            reap(slot)


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
