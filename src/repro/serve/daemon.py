"""The asyncio serve daemon: persistent solving over a unix socket.

The daemon is one thread. Protocol work (accept, parse, cache lookups)
runs on its event loop, and every solve runs in a forked
:class:`~repro.evalx.parallel.WorkerPool` worker, whose pipe and process
sentinel the same loop watches (:meth:`ServeDaemon._finish`), so the loop
never blocks on a solve:

* generic ``solve`` requests run on one of ``jobs`` warm solve workers,
  each a persistent single-worker pool forked on first use and handed to
  one request at a time. The task travels over the worker's pipe, the
  batch harness's retry policy (:func:`repro.evalx.parallel.settle_job`)
  and wall-timeout/SIGTERM machinery apply unchanged, and no solver state
  outlives a request;
* ``smv-diameter`` requests run on their model family's one persistent
  pool worker, which holds the family's encoder and
  :class:`~repro.incremental.IncrementalSolver`, so learned constraints
  carry from bound to bound; an asyncio lock per family serializes its
  bounds.

Every worker the daemon owns ends: one that has held no job for
``_IDLE_RETIRE`` seconds is closed from the event loop, and its pool forks
afresh for the next job (a solve pays one fork, a family one cold bound).

A malformed ``engine`` or ``strategy`` comes back as a structured
protocol error before any worker is spawned.

Between the protocol and those lanes sits the supervision layer
(:mod:`repro.serve.supervisor`):

* every solve-lane request must be *admitted* first — over the bounded
  in-flight budget it gets a structured ``overloaded`` error with a
  ``retry_after`` hint instead of queueing unboundedly;
* every task key and SMV family has a *circuit breaker* — after
  repeated crash/hang/memout/stuck outcomes the key trips open and
  requests for it get an immediate structured ``poisoned`` error carrying
  the last failure, until a cooldown lets a half-open probe through;
* worker memory blowups come back as ``memout`` records (the daemon's
  ``--mem-limit`` threads ``RLIMIT_AS`` into every forked worker, family
  workers included) instead of host-level OOM kills;
* a family solve that outlives its deadline by a grace has its worker
  signalled by the pool and answers ``stuck``; the family's next bound
  re-forks the worker, cold.

Verdicts are cached by the :meth:`repro.evalx.parallel.Task.key`
fingerprint triple and persisted to a :class:`~repro.evalx.parallel.
ResultsLog` (``--cache``): a restarted daemon reloads the log and serves
old verdicts — certificate status included — without re-solving. Only
settled ``ok`` verdicts are ever cached: ``interrupted``, ``hard-timeout``,
``memout`` and crash records are refused by :meth:`ServeDaemon._cache_put`
so a transient failure can never be replayed as an answer.

Shutdown follows the repository's preemption path: SIGTERM/SIGINT (or a
``shutdown`` request) call :meth:`ServeDaemon.stop`, which stops the
accept loop and cancels every family job in progress, so its worker
reports an ``interrupted`` UNKNOWN (never cached) at its next decision; a
``solve`` runs on to its verdict. The requests already read are answered,
then every worker stops, the socket is removed and the process exits 0.
A daemon killed *without* that grace (SIGKILL, OOM) leaves its socket file
behind; the next daemon probes the stale path, sees the connection
refused, and unlinks it before binding (:func:`claim_socket_path`).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket as socket_module
import stat
import time
import traceback
from typing import Callable, Dict, Optional, Set, Tuple

from repro.core.result import Outcome
from repro.evalx.parallel import (
    Attempt,
    Job,
    Record,
    ResultsLog,
    STATUS_MEMOUT,
    STATUS_OK,
    Task,
    WorkerPool,
    measure_task,
    measurement_to_dict,
    settle_job,
)
from repro.evalx.runner import Budget, Measurement
from repro.incremental import IncrementalSolver
from repro.robustness.faults import FaultPlan
from repro.robustness.interrupt import global_flag
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    check_formula_shape,
    check_formula_size,
    error_response,
    overloaded_response,
    parse_budget,
    parse_deadline,
    parse_engine,
    parse_flag,
    parse_strategy,
    poisoned_response,
    validate_smv_request,
)
from repro.serve.supervisor import (
    OverloadedError,
    PoisonedError,
    Supervisor,
)
from repro.smv.incremental import DiameterFamily

#: solver label recorded on incremental smv runs.
SMV_SOLVER_LABEL = "INC(stable)"

#: asyncio stream limit per request line: the formula byte cap plus JSON
#: framing slack, so an oversized-formula request is still *readable* and
#: gets the structured protocol error instead of a torn connection.
_STREAM_LIMIT = 2 * 4_000_000

#: default bound on admitted-but-unfinished solve-lane requests.
DEFAULT_MAX_INFLIGHT = 16

#: seconds past its deadline a family solve may run before the pool
#: SIGTERMs its worker (the engine polls its wall budget, so a healthy
#: solve lands within the deadline; only a wedged one eats the grace too).
#: A worker that does not report then is SIGKILLed ``term_grace`` later,
#: so ``stuck`` comes at most this plus ``term_grace`` past the deadline.
_STUCK_GRACE = 2.0

#: seconds a daemon worker may hold no job before the daemon closes it. A
#: re-fork costs milliseconds, a small share of any idle period this long.
_IDLE_RETIRE = 60.0


def check_fault_plan(faults: Optional[FaultPlan]) -> None:
    """Refuse a fault plan without explicit ``assignments``.

    A count-only plan draws its victims from a sweep's task labels, but the
    daemon sees one request at a time: bound per request, its first fault
    would land on the first request and every other fault would be dropped.
    """
    if faults is not None and faults.assignments is None:
        raise ValueError(
            "the serve daemon needs a fault plan with explicit 'assignments' "
            "(label -> kind); a count-only plan cannot be bound to requests "
            "that arrive one at a time"
        )


def claim_socket_path(path: str) -> None:
    """Make ``path`` bindable: unlink it if it is a *stale* unix socket.

    A daemon killed with SIGKILL never reaches its cleanup, so the socket
    file survives and the next ``serve run`` would fail to bind. Probe it:
    connection refused means no listener — stale, safe to unlink. A live
    listener or an existing non-socket file is refused loudly (never
    silently deleted).
    """
    try:
        st = os.stat(path)
    except OSError:
        return  # nothing there: bind will create it
    if not stat.S_ISSOCK(st.st_mode):
        raise RuntimeError(
            "refusing to serve on %r: an existing non-socket file is in the "
            "way" % path
        )
    probe = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
    probe.settimeout(0.5)
    try:
        probe.connect(path)
    except (ConnectionRefusedError, socket_module.timeout):
        try:
            os.unlink(path)
        except OSError:
            pass
    except OSError:
        # ENOENT race (someone else cleaned up) or an unconnectable state;
        # either way there is no live daemon behind the path.
        try:
            os.unlink(path)
        except OSError:
            pass
    else:
        raise RuntimeError(
            "refusing to serve on %r: a daemon is already listening" % path
        )
    finally:
        probe.close()


class _FamilySolver:
    """Pool body of a family worker: one bound per job.

    The worker builds the family's encoder and incremental solver on its
    first bound and keeps them, so learned constraints carry to the next
    bound. A re-forked worker starts from the daemon's unbuilt copy: its
    first bound is a cold solve.
    """

    def __init__(self, model):
        self.model = model
        self.encoder: Optional[DiameterFamily] = None
        self.solver: Optional[IncrementalSolver] = None

    def __call__(self, work):
        n, config, stall = work
        if stall:
            # Injected wedge: a solve that stopped polling its budget. Only
            # the pool's SIGTERM -> grace -> SIGKILL escalation ends it early.
            time.sleep(stall)
        if self.solver is None:
            self.encoder = DiameterFamily(self.model)
            self.solver = IncrementalSolver()
        incremental = self.solver.solves > 0
        self.solver.config = config
        self.solver.load(self.encoder.formula(n))
        result = self.solver.solve(interrupt=global_flag())
        retained = self.solver.last_retained_clauses + self.solver.last_retained_cubes
        return result, incremental, retained


class _Family:
    """One model family: its persistent worker and the lock that serializes
    its bounds."""

    def __init__(self, model, mem_limit_mb: Optional[float]):
        self.lock = asyncio.Lock()
        self.pool = WorkerPool(
            1, _FamilySolver(model), persistent=True, mem_limit_mb=mem_limit_mb
        )
        #: forks that replaced a failed worker (a fork after an idle
        #: retirement is none).
        self.restarts = 0
        self._retired = False

    def retire(self) -> int:
        """Close an idle worker; call it from the event loop with the lock
        free. Returns how many workers were closed (0 or 1)."""
        closed = self.pool.close()
        if closed:
            self._retired = True
        return closed

    def submit(self, work, timeout: float) -> Job:
        """Start one bound in the worker; call it with the lock held. A fork
        that replaces a failed worker counts as a restart."""
        forks = self.pool.forks
        job = self.pool.submit(work, timeout=timeout)
        if forks and self.pool.forks > forks and not self._retired:
            self.restarts += 1
        self._retired = False
        return job


class ServeDaemon:
    def __init__(
        self,
        socket_path: str,
        jobs: int = 2,
        cache_path: Optional[str] = None,
        wall_timeout: Optional[float] = None,
        mem_limit_mb: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        failure_threshold: int = 3,
        breaker_cooldown: float = 30.0,
    ):
        check_fault_plan(faults)
        self.socket_path = socket_path
        self.jobs = max(1, jobs)
        self.wall_timeout = wall_timeout
        self.mem_limit_mb = mem_limit_mb
        self._faults = faults
        self._log = (
            ResultsLog(cache_path, durable=False, faults=faults)
            if cache_path
            else None
        )
        self._cache: Dict[Tuple[str, str, str], Record] = (
            self._log.load() if self._log is not None else {}
        )
        self._families: Dict[str, _Family] = {}
        #: connection tasks between reading a request and writing its answer.
        self._answering: Set[asyncio.Task] = set()
        #: the worker slots: solve and family jobs in flight at once.
        self._slots = asyncio.Semaphore(self.jobs)
        #: wake-up callbacks of the :meth:`_finish` waits in progress.
        self._wakers: Set[Callable[[], None]] = set()
        #: the solve lane's warm workers, one per slot, forked on first use.
        #: A request takes one from the free list for its attempts; only the
        #: event loop touches the list, and a slot holder always finds one
        #: in it.
        self._solve_pools = [
            WorkerPool(1, measure_task, persistent=True, mem_limit_mb=mem_limit_mb,
                       faults=faults)
            for _ in range(self.jobs)
        ]
        self._free_pools = list(self._solve_pools)
        #: workers closed by the idle rule, solve and family alike.
        self.idle_retirements = 0
        # Admission: one total budget, per-kind sub-budgets so one lane
        # cannot starve the other.
        self.supervisor = Supervisor(
            total_limit=max(1, max_inflight),
            kind_limits={
                "solve": max(1, (3 * max_inflight) // 4),
                "smv-diameter": max(1, (3 * max_inflight) // 4),
            },
            failure_threshold=failure_threshold,
            cooldown=breaker_cooldown,
        )
        self.shutdown_event = asyncio.Event()
        self.started = time.monotonic()
        self.stats = {
            "requests": 0,
            "errors": 0,
            "cache_hits": 0,
            "solves": 0,
            "incremental_solves": 0,
        }

    # -- cache -------------------------------------------------------------

    def _cache_put(self, record: Record) -> None:
        """Persist a verdict — but only a settled one.

        The cache is a verdict store, not an incident log: ``crash``,
        ``hard-timeout``, ``memout`` and interrupted records describe one
        attempt's failure, not the formula's truth value, and replaying
        them as answers would poison every future request for the key.
        """
        m = record.measurement
        if record.status != STATUS_OK or m is None or m.interrupted:
            return
        self._cache[record.key] = record
        if self._log is not None:
            self._log.append(record)

    def _cached_response(self, record: Record) -> Dict[str, object]:
        m = record.measurement
        out: Dict[str, object] = {
            "ok": record.ok,
            "cached": True,
            "status": record.status,
            "protocol": PROTOCOL_VERSION,
        }
        if not record.ok:
            # Structured failure (deadline exceeded, memout, worker crash):
            # the client gets a reason, never a silently hung connection. A
            # preempted attempt's partial measurement may still ride along.
            if record.status == "hard-timeout":
                out["error"] = "solve exceeded its deadline and was killed"
            elif record.status == STATUS_MEMOUT:
                out["error"] = record.error or (
                    "solve exceeded its memory ceiling and was stopped"
                )
            else:
                out["error"] = "solve failed: %s" % record.status
        if m is not None:
            out.update(
                outcome=m.outcome.value,
                decisions=m.decisions,
                seconds=m.seconds,
                measurement=measurement_to_dict(m),
            )
            if m.certificate_status is not None:
                out["certificate_status"] = m.certificate_status
        return out

    # -- workers -----------------------------------------------------------

    async def _finish(self, pool: WorkerPool, job: Job, cancel_on_stop: bool = False) -> Job:
        """Wait on the event loop until ``job`` is done, and return it.

        The loop watches the pool's pipes and sentinels and wakes by the
        pool's next signal at the latest; ``pool.wait(0)`` then sends what
        is due and collects the job if it is done. The caller holds
        ``pool``, so no other wait watches its descriptors. With
        ``cancel_on_stop``, a wait that finds the daemon stopping cancels
        the job, and the worker reports an interrupted UNKNOWN.
        """
        loop = asyncio.get_running_loop()
        try:
            while job.status is None:
                # Read the event, never await it: an asyncio.Event binds to
                # the first loop that waits on it, and one daemon may be
                # driven by several asyncio.run calls.
                if cancel_on_stop and self.shutdown_event.is_set():
                    pool.cancel(job)
                woken = loop.create_future()

                def wake() -> None:
                    if not woken.done():
                        woken.set_result(None)

                handles = pool.handles()
                for handle in handles:
                    loop.add_reader(handle, wake)
                due = pool.next_wake()
                timer = None if due is None else loop.call_later(due - time.monotonic(), wake)
                self._wakers.add(wake)
                try:
                    await woken
                finally:
                    self._wakers.discard(wake)
                    if timer is not None:
                        timer.cancel()
                    for handle in handles:
                        loop.remove_reader(handle)
                pool.wait(0)
        finally:
            if job.status is None:
                pool.close()  # abandoned mid-wait: leave no busy worker behind
        return job

    # -- handlers ----------------------------------------------------------

    def _parse_formula(self, req: Dict[str, object]):
        text = req.get("formula")
        fmt = req.get("format", "qdimacs")
        if not isinstance(text, str):
            raise ProtocolError("solve needs a string 'formula'")
        check_formula_size(text)
        if fmt == "qdimacs":
            from repro.io import qdimacs

            formula = qdimacs.loads(text)
        elif fmt == "qtree":
            from repro.io import qtree

            formula = qtree.loads(text)
        else:
            raise ProtocolError("unknown formula format %r" % (fmt,))
        check_formula_shape(formula)
        return formula

    def _effective_deadline(self, req: Dict[str, object]) -> float:
        """Per-request deadline, further capped by the daemon's setting."""
        deadline = parse_deadline(req)
        if self.wall_timeout is not None:
            deadline = min(deadline, self.wall_timeout)
        return deadline

    async def _handle_solve(self, req: Dict[str, object]) -> Dict[str, object]:
        formula = self._parse_formula(req)
        deadline = self._effective_deadline(req)
        mode = req.get("mode", "po")
        if mode not in ("po", "to"):
            raise ProtocolError("mode must be 'po' or 'to'")
        engine = parse_engine(req)
        task = Task(
            instance=str(req.get("instance", "serve")),
            solver=str(req.get("solver", mode.upper())),
            formula=formula,
            mode=mode,
            strategy=parse_strategy(req),
            budget=parse_budget(req.get("budget")),
            overrides=(("engine", engine),) if engine is not None else (),
            certify=parse_flag(req, "certify"),
        )
        cached = self._cache.get(task.key)
        if cached is not None:
            self.stats["cache_hits"] += 1
            return self._cached_response(cached)
        # Breaker gate sits *after* the cache: a cached verdict is safe to
        # serve no matter how poisoned the key is, and costs no worker.
        breaker = self.supervisor.check(Supervisor.task_breaker_key(task.key))

        async with self._slots:
            pool = self._free_pools.pop()
            try:
                # run_tasks's policy: one retry, after a crash's backoff or
                # at once after a hard timeout; a memout is final.
                attempt = Attempt(0, task, 1)
                while True:
                    job = pool.submit(task, attempt.attempt, deadline)
                    record = settle_job(attempt, await self._finish(pool, job))
                    if isinstance(record, Record):
                        break
                    attempt = record
                    await asyncio.sleep(max(0.0, attempt.not_before - time.monotonic()))
            finally:
                self._free_pools.append(pool)
        self.stats["solves"] += 1
        self.supervisor.record_outcome(breaker, record.status, record.error)
        self._cache_put(record)
        out = self._cached_response(record)
        out["cached"] = False
        return out

    async def _handle_smv(self, req: Dict[str, object]) -> Dict[str, object]:
        family_name, size, n = validate_smv_request(req)
        from repro.smv.models import model_by_name

        model = model_by_name(family_name, size)
        budget = parse_budget(req.get("budget"))
        # The deadline binds twice: as a wall-seconds budget the engine
        # polls (a healthy solve answers ``deadline`` and stays warm), and
        # as the pool job's hard timeout a grace later (a wedged one is
        # stopped and answers ``stuck``).
        deadline = self._effective_deadline(req)
        deadline_is_binding = budget.seconds is None or deadline <= budget.seconds
        seconds = deadline if budget.seconds is None else min(budget.seconds, deadline)
        budget = Budget(decisions=budget.decisions, seconds=seconds)
        # The key never reads the formula, so φ_n is encoded only in the
        # family worker, and a hit waits on neither the breaker nor the lock.
        task = Task(
            instance="smv:%s:n=%d" % (model.name, n),
            solver=SMV_SOLVER_LABEL,
            formula=None,
            budget=budget,
        )
        cached = self._cache.get(task.key)
        if cached is not None:
            self.stats["cache_hits"] += 1
            return self._cached_response(cached)
        family_key = Supervisor.family_breaker_key(model.name)
        breaker = self.supervisor.check(family_key)
        fam = self._families.get(model.name)
        if fam is None:
            fam = self._families[model.name] = _Family(model, self.mem_limit_mb)

        async with fam.lock:
            # A request for the same bound may have solved it while this one
            # waited on the lock.
            cached = self._cache.get(task.key)
            if cached is not None:
                self.stats["cache_hits"] += 1
                return self._cached_response(cached)
            stall = 0.0
            if self._faults is not None and self._faults.stuck_family(family_key):
                stall = self._faults.hang_seconds
            work = (n, budget.to_config(), stall)
            async with self._slots:
                job = fam.submit(work, deadline + _STUCK_GRACE)
                await self._finish(fam.pool, job, cancel_on_stop=True)
        if job.timed_out or job.status != STATUS_OK:
            return self._smv_failure(job, breaker, deadline)
        result, incremental, retained = job.result
        self.stats["solves"] += 1
        if incremental:
            self.stats["incremental_solves"] += 1
        cut = self._smv_deadline_cut(result, budget, deadline, deadline_is_binding)
        if cut is not None:
            return cut
        self.supervisor.record_outcome(breaker, STATUS_OK)
        if result.outcome is not Outcome.UNKNOWN:
            m = Measurement.from_result(task.instance, task.solver, result)
            self._cache_put(Record.of(task, STATUS_OK, measurement=m))
        return {
            "ok": True,
            "cached": False,
            "incremental": incremental,
            "retained": retained,
            "outcome": result.outcome.value,
            "decisions": result.stats.decisions,
            "seconds": result.seconds,
            "interrupted": result.interrupted,
            "protocol": PROTOCOL_VERSION,
        }

    def _smv_failure(self, job: Job, breaker, deadline: float) -> Dict[str, object]:
        """The structured answer of a family job that did not report a
        solve: ``stuck`` when the pool had to signal it at its timeout,
        else the pool's status (``crash``, ``memout``, or ``cancelled`` when
        a shutdown's cancel had to kill it). The worker is gone either way,
        so the family's next bound re-forks it."""
        out: Dict[str, object] = {"ok": False, "cached": False}
        if job.timed_out:
            out["status"] = "stuck"
            out["error"] = (
                "smv family solver exceeded its %.1fs deadline by more than "
                "%.1fs and was stopped; the next bound restarts the family"
                % (deadline, _STUCK_GRACE)
            )
            out["retry_after"] = 0
        else:
            out["status"] = job.status
            out["error"] = "smv family worker failed: %s" % (
                str(job.result).strip().splitlines()[-1]
            )
        self.supervisor.record_outcome(breaker, out["status"], out["error"])
        out["protocol"] = PROTOCOL_VERSION
        return out

    @staticmethod
    def _smv_deadline_cut(
        result, budget: Budget, deadline: float, deadline_is_binding: bool
    ) -> Optional[Dict[str, object]]:
        """The structured ``deadline`` failure of an smv solve, or None.

        Only when the per-request wall clock — not the caller's own budget —
        ran out is the UNKNOWN reported as a failure rather than a soft
        verdict. Deliberately not a breaker failure: the deadline says the
        request was too impatient, not that the family is poisonous.
        """
        if (
            result.outcome is not Outcome.UNKNOWN
            or result.interrupted
            or not deadline_is_binding
            or result.seconds < budget.seconds
        ):
            return None
        return {
            "ok": False,
            "cached": False,
            "status": "deadline",
            "error": "smv solve did not settle within its %.1fs deadline" % deadline,
            "outcome": result.outcome.value,
            "decisions": result.stats.decisions,
            "seconds": result.seconds,
            "interrupted": False,
            "protocol": PROTOCOL_VERSION,
        }

    async def dispatch(self, req: Dict[str, object]) -> Dict[str, object]:
        kind = req.get("kind", "solve")
        if kind == "ping":
            return {"ok": True, "pong": True, "protocol": PROTOCOL_VERSION}
        if kind == "stats":
            out = dict(self.stats)
            out.update(
                ok=True,
                uptime=time.monotonic() - self.started,
                cache_size=len(self._cache),
                supervisor=dict(
                    self.supervisor.snapshot(),
                    family_restarts=sum(fam.restarts for fam in self._families.values()),
                    solve_forks=sum(pool.forks for pool in self._solve_pools),
                    idle_retirements=self.idle_retirements,
                ),
                protocol=PROTOCOL_VERSION,
            )
            return out
        if kind == "shutdown":
            # The supported path is SIGTERM; this exists for clients that
            # cannot signal (e.g. a remote-ish wrapper), and follows it.
            self.stop()
            return {"ok": True, "stopping": True, "protocol": PROTOCOL_VERSION}
        handlers = {
            "solve": self._handle_solve,
            "smv-diameter": self._handle_smv,
        }
        handler = handlers.get(kind)
        if handler is None:
            raise ProtocolError("unknown request kind %r" % (kind,))
        if self.shutdown_event.is_set():
            raise ProtocolError("daemon is shutting down")
        # Admission first: over-budget requests are shed with a hint, not
        # queued — the only waiting after this point is on the bounded
        # worker slots. Sheds and poisoned refusals are deliberate
        # answers, so they do not count into stats["errors"].
        try:
            release = self.supervisor.admit(kind)
        except OverloadedError as exc:
            return overloaded_response(exc)
        try:
            return await handler(req)
        except PoisonedError as exc:
            return poisoned_response(exc)
        finally:
            release()

    # -- server loop -------------------------------------------------------

    def stop(self) -> None:
        """Begin the shutdown: stop accepting requests and wake every
        :meth:`_finish` in progress, so each family job is cancelled; a
        ``solve`` runs on to its verdict. Call it from the event loop."""
        self.shutdown_event.set()
        for wake in list(self._wakers):
            wake()

    async def _respond(self, line: bytes) -> Dict[str, object]:
        """The response to one request line; every failure is structured."""
        request_id = None
        try:
            req = json.loads(line)
            if not isinstance(req, dict):
                raise ProtocolError("request must be a JSON object")
            request_id = req.get("id")
            response = await self.dispatch(req)
        except (ProtocolError, ValueError) as exc:
            self.stats["errors"] += 1
            response = error_response(str(exc), request_id)
        except Exception as exc:
            # Handler bug or resource failure: the client still gets a
            # structured error, never a silently dropped connection; the
            # traceback goes to the daemon's log.
            self.stats["errors"] += 1
            traceback.print_exc()
            response = error_response(
                "internal error: %s: %s" % (type(exc).__name__, exc),
                request_id,
            )
        if request_id is not None and "id" not in response:
            response["id"] = request_id
        return response

    async def _handle_conn(self, reader, writer) -> None:
        try:
            while not self.shutdown_event.is_set():
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    break
                except ValueError:
                    # Request line beyond the stream limit: report the size
                    # cap as a structured error, then drop the connection
                    # (the rest of the oversized line is unrecoverable).
                    self.stats["errors"] += 1
                    writer.write(
                        (json.dumps(error_response(
                            "request too large: a single request line must "
                            "stay under %d bytes" % _STREAM_LIMIT)) + "\n"
                         ).encode("utf-8"))
                    await writer.drain()
                    break
                if not line:
                    break
                self.stats["requests"] += 1
                task = asyncio.current_task()
                self._answering.add(task)
                try:
                    response = await self._respond(line)
                    writer.write((json.dumps(response) + "\n").encode("utf-8"))
                    await writer.drain()
                finally:
                    self._answering.discard(task)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def run(self) -> None:
        claim_socket_path(self.socket_path)
        server = await asyncio.start_unix_server(
            self._handle_conn, path=self.socket_path, limit=_STREAM_LIMIT
        )
        reaper = asyncio.ensure_future(self._reap_idle())
        try:
            await self.shutdown_event.wait()
            # Stop accepting, then answer every request already read before
            # any worker stops. Server.wait_closed() cannot be the drain:
            # what it waits for differs between Python versions.
            server.close()
            while self._answering:
                await asyncio.wait(set(self._answering))
        finally:
            reaper.cancel()
            server.close()
            self.close()
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    async def _reap_idle(self) -> None:
        while True:
            await asyncio.sleep(max(0.0, self._retire_idle() - time.monotonic()))

    def _retire_idle(self) -> float:
        """Close every worker that nothing holds and that has held no job
        for ``_IDLE_RETIRE`` seconds; return when the next one falls due.

        Only the event loop calls this, so a solve pool in the free list or
        a family whose lock is free is held by no request. A worker never
        times itself out: a job already in its pipe would be lost.
        """
        now = time.monotonic()
        wake = now + _IDLE_RETIRE
        unheld = [(pool.last_active, pool.close) for pool in self._free_pools]
        unheld += [
            (fam.pool.last_active, fam.retire)
            for fam in self._families.values()
            if not fam.lock.locked()
        ]
        for last_active, close in unheld:
            due = last_active + _IDLE_RETIRE
            if due > now:
                wake = min(wake, due)
            else:
                self.idle_retirements += close()
        return wake

    def close(self) -> None:
        """Stop every worker and close the cache log.

        :meth:`run` calls it. A caller that drives :meth:`dispatch` itself
        should too: otherwise its idle workers live on, and the log's file
        stays open, until the interpreter exits.
        """
        for pool in self._solve_pools:
            pool.close()
        for fam in self._families.values():
            fam.pool.close()
        if self._log is not None:
            self._log.close()


def run_daemon(
    socket_path: str,
    jobs: int = 2,
    cache_path: Optional[str] = None,
    wall_timeout: Optional[float] = None,
    mem_limit_mb: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    failure_threshold: int = 3,
    breaker_cooldown: float = 30.0,
) -> int:
    """Blocking entry point: serve until SIGTERM/SIGINT, then exit 0."""

    async def main() -> None:
        daemon = ServeDaemon(
            socket_path,
            jobs=jobs,
            cache_path=cache_path,
            wall_timeout=wall_timeout,
            mem_limit_mb=mem_limit_mb,
            faults=faults,
            max_inflight=max_inflight,
            failure_threshold=failure_threshold,
            breaker_cooldown=breaker_cooldown,
        )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, daemon.stop)
        try:
            await daemon.run()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(sig)

    asyncio.run(main())
    return 0
