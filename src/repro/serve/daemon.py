"""The asyncio serve daemon: persistent solving over a unix socket.

One process, three execution lanes:

* protocol work (accept, parse, cache lookups) stays on the event loop;
* generic ``solve`` requests run through :func:`repro.evalx.parallel.
  run_tasks` with ``jobs=2`` — i.e. in a forked, fault-isolated worker
  shard with the wall-timeout/SIGTERM/checkpoint machinery the batch
  harness already has — driven from a thread-pool slot so the loop never
  blocks;
* ``smv-diameter`` requests run in-process (each family on its own
  single-thread executor, serialized per model family by an asyncio lock)
  so the family's :class:`~repro.incremental.IncrementalSolver` keeps its
  learned constraints between bounds.

``solve`` requests may pick a non-default ``paradigm`` (expansion, the
recursive reference) and ``portfolio`` requests race several paradigms via
:func:`repro.portfolio.race`; capability mismatches — ``certify`` with a
proof-incapable paradigm — come back as structured errors before any
worker is spawned.

Between the protocol and those lanes sits the supervision layer
(:mod:`repro.serve.supervisor`):

* every solve-lane request must be *admitted* first — over the bounded
  in-flight budget it gets a structured ``overloaded`` error with a
  ``retry_after`` hint instead of queueing unboundedly;
* every task key and SMV family has a *circuit breaker* — after
  repeated crash/hang/memout outcomes the key trips open and requests
  for it get an immediate structured ``poisoned`` error carrying the
  last failure, until a cooldown lets a half-open probe through;
* worker memory blowups come back as ``memout`` records (the daemon's
  ``--mem-limit`` threads ``RLIMIT_AS`` into every forked worker of the
  solve, cube-solve and portfolio lanes) instead of host-level OOM kills;
* a wedged family solver is detected (the solve outlives its deadline by
  a grace), abandoned, and its family restarted with exponential backoff
  — requests arriving during the backoff *degrade* to one-shot scratch
  solves rather than erroring, as do cube solves whose worker pool died
  under them.

Verdicts are cached by the :meth:`repro.evalx.parallel.Task.key`
fingerprint triple and persisted to a :class:`~repro.evalx.parallel.
ResultsLog` (``--cache``): a restarted daemon reloads the log and serves
old verdicts — certificate status included — without re-solving. Only
settled ``ok`` verdicts are ever cached: ``interrupted``, ``hard-timeout``,
``memout`` and crash records are refused by :meth:`ServeDaemon._cache_put`
so a transient failure can never be replayed as an answer.

Shutdown follows the repository's preemption path: SIGTERM/SIGINT set
:func:`repro.robustness.interrupt.global_flag`, which every in-process
solve polls, and wake the accept loop; in-flight requests drain (possibly
with ``interrupted`` UNKNOWN verdicts, which are never cached), then the
socket is removed and the process exits 0. A daemon killed *without* that
grace (SIGKILL, OOM) leaves its socket file behind; the next daemon
probes the stale path, sees the connection refused, and unlinks it before
binding (:func:`claim_socket_path`).
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
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from repro.core.result import Outcome
from repro.evalx.parallel import (
    Record,
    ResultsLog,
    STATUS_MEMOUT,
    STATUS_OK,
    Task,
    measurement_to_dict,
    run_tasks,
)
from repro.evalx.runner import Budget, Measurement
from repro.incremental import IncrementalSolver
from repro.robustness.faults import FaultPlan
from repro.robustness.interrupt import InterruptFlag, global_flag
from repro.serve.protocol import (
    MAX_CUBE_JOBS,
    PROTOCOL_VERSION,
    ProtocolError,
    check_formula_shape,
    check_formula_size,
    error_response,
    overloaded_response,
    parse_budget,
    parse_deadline,
    parse_paradigm,
    poisoned_response,
    validate_smv_request,
)
from repro.serve.supervisor import (
    OverloadedError,
    PoisonedError,
    Supervisor,
)
from repro.smv.incremental import DiameterFamily

#: solver label recorded on in-process incremental smv runs.
SMV_SOLVER_LABEL = "INC(stable)"

#: asyncio stream limit per request line: the formula byte cap plus JSON
#: framing slack, so an oversized-formula request is still *readable* and
#: gets the structured protocol error instead of a torn connection.
_STREAM_LIMIT = 2 * 4_000_000

#: request kinds that go through admission control; everything else
#: (ping/stats/shutdown) is control-plane and always answered.
SOLVE_KINDS = ("solve", "smv-diameter", "cube-solve", "portfolio")

#: default bound on admitted-but-unfinished solve-lane requests.
DEFAULT_MAX_INFLIGHT = 16

#: seconds past its deadline an in-process family solve may run before the
#: daemon declares it stuck and abandons it (the engine polls its wall
#: budget, so a healthy solve lands within the deadline; only a wedged one
#: eats the grace too).
DEFAULT_STUCK_GRACE = 2.0


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


class _Family:
    """One model family's persistent encoder + incremental solver.

    The family owns a dedicated single-thread executor so that a wedged
    solve can be *abandoned*: the daemon stops waiting, drops the whole
    family (executor included), and a fresh one is built after the restart
    backoff. The orphaned thread finishes or exits on the interrupt flag;
    it just no longer has a family to poison.
    """

    def __init__(self, model, config=None):
        self.model = model
        self.encoder = DiameterFamily(model)
        self.solver = IncrementalSolver(config)
        self.lock = asyncio.Lock()
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="family-%s" % model.name
        )

    def abandon(self) -> None:
        """Stop feeding the executor; never joins the possibly-stuck thread."""
        self.executor.shutdown(wait=False)


class ServeDaemon:
    def __init__(
        self,
        socket_path: str,
        jobs: int = 2,
        cache_path: Optional[str] = None,
        wall_timeout: Optional[float] = None,
        checkpoint_dir: Optional[str] = None,
        interrupt: Optional[InterruptFlag] = None,
        mem_limit_mb: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        failure_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        restart_backoff: float = 0.5,
        stuck_grace: float = DEFAULT_STUCK_GRACE,
    ):
        self.socket_path = socket_path
        self.jobs = max(1, jobs)
        self.wall_timeout = wall_timeout
        self.checkpoint_dir = checkpoint_dir
        self.mem_limit_mb = mem_limit_mb
        self.stuck_grace = stuck_grace
        self._faults = faults
        self._interrupt = interrupt if interrupt is not None else global_flag()
        self._log = (
            ResultsLog(cache_path, durable=False, faults=faults)
            if cache_path
            else None
        )
        self._cache: Dict[Tuple[str, str, str], Record] = (
            self._log.load() if self._log is not None else {}
        )
        self._cache_lock = asyncio.Lock()
        self._families: Dict[str, _Family] = {}
        self._pool = ThreadPoolExecutor(max_workers=self.jobs)
        self._slots = asyncio.Semaphore(self.jobs)
        # Admission: one total budget, per-kind sub-budgets so one lane
        # cannot starve the others; cube/portfolio get half — each such
        # request fans out to several worker processes of its own.
        fanout_limit = max(1, max_inflight // 2)
        self.supervisor = Supervisor(
            total_limit=max(1, max_inflight),
            kind_limits={
                "solve": max(1, (3 * max_inflight) // 4),
                "smv-diameter": max(1, (3 * max_inflight) // 4),
                "cube-solve": fanout_limit,
                "portfolio": fanout_limit,
            },
            failure_threshold=failure_threshold,
            cooldown=breaker_cooldown,
            restart_backoff=restart_backoff,
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

    async def _cache_put(self, record: Record) -> None:
        """Persist a verdict — but only a settled one.

        The cache is a verdict store, not an incident log: ``crash``,
        ``hard-timeout``, ``memout`` and interrupted records describe one
        attempt's failure, not the formula's truth value, and replaying
        them as answers would poison every future request for the key.
        """
        m = record.measurement
        if record.status != STATUS_OK or m is None or m.interrupted:
            return
        async with self._cache_lock:
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
            # partial measurement (checkpoint flush) may still ride along.
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
        paradigm = parse_paradigm(req)
        checkpoint_dir = self.checkpoint_dir
        if paradigm != "search":
            # Capability mismatches are structured errors (CapabilityError
            # is a ValueError, so the dispatch loop reports it cleanly):
            # certify + a proof-incapable paradigm must not reach a worker.
            from repro.core.paradigm import CapabilityError, get_paradigm

            caps = get_paradigm(paradigm).capabilities
            if bool(req.get("certify", False)) and not caps.proof:
                raise CapabilityError(
                    paradigm, "proof logging", "drop 'certify' or use search"
                )
            if not caps.checkpoint:
                # The daemon-side checkpoint directory is an optimization
                # for preempted shard solves; a paradigm that cannot
                # checkpoint simply runs without it.
                checkpoint_dir = None
        overrides = []
        if "engine" in req:
            overrides.append(("engine", req["engine"]))
        if paradigm != "search":
            # Non-default-only, like the batch harness: cache fingerprints
            # of existing search-paradigm verdicts stay untouched.
            overrides.append(("paradigm", paradigm))
        task = Task(
            instance=str(req.get("instance", "serve")),
            solver=str(req.get("solver", mode.upper())),
            formula=formula,
            mode=mode,
            strategy=str(req.get("strategy", "eu_au")),
            budget=parse_budget(req.get("budget")),
            overrides=tuple(overrides),
            certify=bool(req.get("certify", False)),
        )
        cached = self._cache.get(task.key)
        if cached is not None:
            self.stats["cache_hits"] += 1
            return self._cached_response(cached)
        # Breaker gate sits *after* the cache: a cached verdict is safe to
        # serve no matter how poisoned the key is, and costs no worker.
        breaker = self.supervisor.check(Supervisor.task_breaker_key(task.key))

        loop = asyncio.get_running_loop()
        mem_limit_mb = self.mem_limit_mb
        faults = self._faults
        async with self._slots:
            records = await loop.run_in_executor(
                self._pool,
                lambda: run_tasks(
                    [task],
                    jobs=2,
                    wall_timeout=deadline,
                    checkpoint_dir=checkpoint_dir,
                    mem_limit_mb=mem_limit_mb,
                    faults=faults,
                ),
            )
        record = records[0]
        self.stats["solves"] += 1
        self.supervisor.record_outcome(breaker, record.status, record.error)
        await self._cache_put(record)
        out = self._cached_response(record)
        out["cached"] = False
        return out

    def _stall(self) -> None:
        """Injected family wedge: a bounded, interrupt-aware busy-wait that
        stands in for a solver loop that stopped polling its budget."""
        seconds = self._faults.hang_seconds if self._faults is not None else 0.0
        end = time.monotonic() + seconds
        while time.monotonic() < end and not self._interrupt.is_set():
            time.sleep(0.05)

    async def _handle_smv(self, req: Dict[str, object]) -> Dict[str, object]:
        family_name, size, n = validate_smv_request(req)
        from repro.smv.models import model_by_name

        model = model_by_name(family_name, size)
        budget = parse_budget(req.get("budget"))
        # In-process lane: the deadline is enforced cooperatively, as a
        # wall-seconds budget the engine polls (no worker to kill here).
        deadline = self._effective_deadline(req)
        deadline_is_binding = budget.seconds is None or deadline <= budget.seconds
        seconds = deadline if budget.seconds is None else min(budget.seconds, deadline)
        budget = Budget(decisions=budget.decisions, seconds=seconds)
        breaker = self.supervisor.check(Supervisor.family_breaker_key(model.name))
        policy = self.supervisor.restart_policy(model.name)

        fam = self._families.get(model.name)
        if fam is None:
            if policy.in_backoff():
                # Degradation ladder, rung two: the family died recently and
                # its restart is still backing off — answer from a scratch
                # solver instead of erroring or restarting too eagerly.
                return await self._smv_scratch(
                    model, n, budget, breaker, deadline, deadline_is_binding
                )
            fam = _Family(model)
            self._families[model.name] = fam
            if policy.deaths > 0:
                policy.record_restart()

        loop = asyncio.get_running_loop()
        async with fam.lock:
            formula = fam.encoder.formula(n)
            task = self._smv_task(model, n, formula, budget)
            cached = self._cache.get(task.key)
            if cached is not None:
                self.stats["cache_hits"] += 1
                return self._cached_response(cached)
            incremental = fam.solver.solves > 0
            config = budget.to_config()
            stall = self._faults is not None and self._faults.stuck_family(
                "family:%s" % model.name
            )

            def solve_bound():
                if stall:
                    self._stall()
                fam.solver.config = config
                fam.solver.load(formula)
                return fam.solver.solve(interrupt=self._interrupt)

            try:
                async with self._slots:
                    result = await asyncio.wait_for(
                        loop.run_in_executor(fam.executor, solve_bound),
                        timeout=deadline + self.stuck_grace,
                    )
            except asyncio.TimeoutError:
                # The solve outlived deadline + grace: the family solver is
                # wedged. Abandon it, enter restart backoff, and tell the
                # client; the next request gets a scratch solve (backoff)
                # or a fresh family (after it).
                fam.abandon()
                self._families.pop(model.name, None)
                delay = policy.record_death()
                self.supervisor.record_outcome(
                    breaker,
                    "stuck",
                    "family solver exceeded its %.1fs deadline by more than "
                    "%.1fs and was abandoned" % (deadline, self.stuck_grace),
                )
                return {
                    "ok": False,
                    "cached": False,
                    "status": "stuck",
                    "error": "smv family solver is stuck; family restarted "
                    "with %.2fs backoff" % delay,
                    "retry_after": round(delay, 2),
                    "protocol": PROTOCOL_VERSION,
                }
            except Exception as exc:
                # An in-process crash kills the family's solver state too:
                # same recovery path as a wedge, minus the orphaned thread.
                self._families.pop(model.name, None)
                fam.abandon()
                policy.record_death()
                self.supervisor.record_outcome(breaker, "crash", str(exc))
                raise
        self.stats["solves"] += 1
        if incremental:
            self.stats["incremental_solves"] += 1
        m = Measurement(
            instance=task.instance,
            solver=task.solver,
            outcome=result.outcome,
            decisions=result.stats.decisions,
            seconds=result.seconds,
            learned_clauses=result.stats.learned_clauses,
            learned_cubes=result.stats.learned_cubes,
            stats=result.stats,
            interrupted=result.interrupted,
        )
        retained = fam.solver.last_retained_clauses + fam.solver.last_retained_cubes
        if (
            result.outcome is Outcome.UNKNOWN
            and not result.interrupted
            and deadline_is_binding
            and result.seconds >= seconds
        ):
            # The per-request wall clock — not the caller's own budget —
            # ran out: report it as a structured failure, not a soft
            # UNKNOWN. Deliberately not a breaker failure: the deadline
            # says the request was too impatient, not that the family is
            # poisonous.
            return {
                "ok": False,
                "cached": False,
                "status": "deadline",
                "error": "smv solve did not settle within its %.1fs deadline"
                % deadline,
                "outcome": result.outcome.value,
                "decisions": result.stats.decisions,
                "seconds": result.seconds,
                "interrupted": False,
                "protocol": PROTOCOL_VERSION,
            }
        self.supervisor.record_outcome(breaker, STATUS_OK)
        if policy.deaths > 0:
            policy.record_recovery()
        if result.outcome is not Outcome.UNKNOWN:
            await self._cache_put(
                Record(
                    instance=task.instance,
                    solver=task.solver,
                    fingerprint=task.fingerprint(),
                    status=STATUS_OK,
                    measurement=m,
                )
            )
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

    @staticmethod
    def _smv_task(model, n: int, formula, budget: Budget) -> Task:
        return Task(
            instance="smv:%s:n=%d" % (model.name, n),
            solver=SMV_SOLVER_LABEL,
            formula=formula,
            budget=budget,
        )

    async def _smv_scratch(
        self, model, n, budget, breaker, deadline, deadline_is_binding
    ) -> Dict[str, object]:
        """Degraded smv path: a throwaway encoder + solver on the shared
        pool; no retained constraints, but a real verdict."""
        encoder = DiameterFamily(model)
        formula = encoder.formula(n)
        task = self._smv_task(model, n, formula, budget)
        cached = self._cache.get(task.key)
        if cached is not None:
            self.stats["cache_hits"] += 1
            return self._cached_response(cached)
        solver = IncrementalSolver(budget.to_config())
        interrupt = self._interrupt

        def solve_scratch():
            solver.load(formula)
            return solver.solve(interrupt=interrupt)

        loop = asyncio.get_running_loop()
        async with self._slots:
            result = await loop.run_in_executor(self._pool, solve_scratch)
        self.stats["solves"] += 1
        self.supervisor.note_degraded()
        if (
            result.outcome is Outcome.UNKNOWN
            and not result.interrupted
            and deadline_is_binding
            and result.seconds >= (budget.seconds or deadline)
        ):
            return {
                "ok": False,
                "cached": False,
                "status": "deadline",
                "error": "smv solve did not settle within its %.1fs deadline"
                % deadline,
                "outcome": result.outcome.value,
                "decisions": result.stats.decisions,
                "seconds": result.seconds,
                "interrupted": False,
                "degraded": True,
                "protocol": PROTOCOL_VERSION,
            }
        self.supervisor.record_outcome(breaker, STATUS_OK)
        if result.outcome is not Outcome.UNKNOWN:
            m = Measurement(
                instance=task.instance,
                solver=task.solver,
                outcome=result.outcome,
                decisions=result.stats.decisions,
                seconds=result.seconds,
                learned_clauses=result.stats.learned_clauses,
                learned_cubes=result.stats.learned_cubes,
                stats=result.stats,
                interrupted=result.interrupted,
            )
            await self._cache_put(
                Record(
                    instance=task.instance,
                    solver=task.solver,
                    fingerprint=task.fingerprint(),
                    status=STATUS_OK,
                    measurement=m,
                )
            )
        return {
            "ok": True,
            "cached": False,
            "incremental": False,
            "retained": 0,
            "degraded": True,
            "outcome": result.outcome.value,
            "decisions": result.stats.decisions,
            "seconds": result.seconds,
            "interrupted": result.interrupted,
            "protocol": PROTOCOL_VERSION,
        }

    async def _handle_cube(self, req: Dict[str, object]) -> Dict[str, object]:
        """Cube-and-conquer solve across worker processes (``cube-solve``)."""
        from repro.cube import run_cube

        formula = self._parse_formula(req)
        deadline = self._effective_deadline(req)
        jobs = req.get("jobs", 2)
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
            raise ProtocolError("cube-solve jobs must be a positive integer")
        if jobs > MAX_CUBE_JOBS:
            raise ProtocolError(
                "cube-solve jobs must be at most %d" % MAX_CUBE_JOBS
            )
        seed = req.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ProtocolError("cube-solve seed must be an integer")
        certify = bool(req.get("certify", False))
        share = bool(req.get("share", True))
        engine = req.get("engine")
        paradigm = parse_paradigm(req)
        # Validate capability upfront on the event loop: run_cube would
        # raise the same CapabilityError, but from the executor thread —
        # failing here keeps the structured error on the cheap path.
        from repro.core.paradigm import get_paradigm

        caps = get_paradigm(paradigm).capabilities
        if not caps.checkpoint:
            raise ProtocolError(
                "paradigm %r cannot checkpoint; cube-solve workers snapshot "
                "their leaves — use a checkpoint-capable paradigm such as "
                "'search'" % paradigm
            )

        loop = asyncio.get_running_loop()
        interrupt = self._interrupt
        mem_limit_mb = self.mem_limit_mb
        async with self._slots:
            report = await loop.run_in_executor(
                self._pool,
                lambda: run_cube(
                    formula,
                    jobs=jobs,
                    certify=certify,
                    share=share,
                    seed=seed,
                    engine=engine,
                    paradigm=paradigm,
                    wall_timeout=deadline,
                    interrupt=interrupt,
                    mem_limit_mb=mem_limit_mb,
                ),
            )
        self.stats["solves"] += 1
        out: Dict[str, object] = {
            "ok": True,
            "cached": False,
            "outcome": report.outcome.value,
            "decisions": report.total_decisions,
            "seconds": report.seconds,
            "interrupted": report.interrupted,
            "jobs": report.jobs,
            "leaves": report.leaves,
            "resplits": report.resplits,
            "escalations": report.escalations,
            "cancelled": report.cancelled,
            "crashes": report.crashes,
            "respawns": report.respawns,
            "share": report.share,
            "protocol": PROTOCOL_VERSION,
        }
        if report.outcome is Outcome.UNKNOWN and not report.interrupted:
            remaining = max(0.0, deadline - report.seconds)
            if report.crashes > 0 and not certify and remaining >= 0.5:
                # Degradation ladder: the cube pool lost workers and never
                # settled — spend the request's remaining deadline on one
                # plain scratch solve instead of returning a failure the
                # client would just retry anyway.
                fallback = await self._cube_fallback(
                    req, formula, paradigm, engine, remaining
                )
                if fallback is not None:
                    out.update(fallback)
                    self.supervisor.note_degraded()
                    return out
            # Deadline ran out before the fold settled: structured failure.
            out["ok"] = False
            out["status"] = "deadline"
            out["error"] = (
                "cube-solve did not settle within its %.1fs deadline" % deadline
            )
        if certify:
            out["certificate_status"] = report.certificate_status
            out["certificate_complete"] = report.certificate.complete
        return out

    async def _cube_fallback(
        self, req, formula, paradigm, engine, remaining
    ) -> Optional[Dict[str, object]]:
        """One-shot scratch solve after a crash-degraded cube run; returns
        the response fields on a determinate verdict, else ``None``."""
        overrides = []
        if engine is not None:
            overrides.append(("engine", engine))
        if paradigm != "search":
            overrides.append(("paradigm", paradigm))
        task = Task(
            instance="%s:cube-fallback" % req.get("instance", "serve"),
            solver="PO",
            formula=formula,
            mode="po",
            budget=Budget(decisions=None, seconds=remaining),
            overrides=tuple(overrides),
        )
        loop = asyncio.get_running_loop()
        mem_limit_mb = self.mem_limit_mb
        async with self._slots:
            records = await loop.run_in_executor(
                self._pool,
                lambda: run_tasks(
                    [task],
                    jobs=2,
                    wall_timeout=remaining,
                    mem_limit_mb=mem_limit_mb,
                ),
            )
        record = records[0]
        m = record.measurement
        if not record.ok or m is None or m.outcome is Outcome.UNKNOWN:
            return None
        return {
            "ok": True,
            "degraded": True,
            "fallback": "scratch",
            "outcome": m.outcome.value,
            "decisions": m.decisions,
            "seconds": m.seconds,
        }

    async def _handle_portfolio(self, req: Dict[str, object]) -> Dict[str, object]:
        """Race several paradigms on one formula (``portfolio``)."""
        from repro.portfolio import DEFAULT_ENTRANTS, race

        if bool(req.get("certify", False)):
            raise ProtocolError(
                "portfolio does not accept 'certify': the default field "
                "includes proof-incapable lanes; cross-paradigm "
                "disagreements are certificate-triaged automatically"
            )
        formula = self._parse_formula(req)
        deadline = self._effective_deadline(req)
        entrants = req.get("entrants", list(DEFAULT_ENTRANTS))
        if not isinstance(entrants, list) or not all(
            isinstance(e, str) for e in entrants
        ):
            raise ProtocolError("portfolio entrants must be a list of strings")
        jobs = req.get("jobs", 3)
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
            raise ProtocolError("portfolio jobs must be a positive integer")
        if jobs > MAX_CUBE_JOBS:
            raise ProtocolError("portfolio jobs must be at most %d" % MAX_CUBE_JOBS)
        budget = parse_budget(req.get("budget"))
        # Serial races run in-process, so the deadline binds cooperatively
        # through the wall budget; pool races additionally get the hard
        # per-lane wall timeout.
        seconds = deadline if budget.seconds is None else min(budget.seconds, deadline)
        budget = Budget(decisions=budget.decisions, seconds=seconds)

        loop = asyncio.get_running_loop()
        mem_limit_mb = self.mem_limit_mb
        async with self._slots:
            result = await loop.run_in_executor(
                self._pool,
                lambda: race(
                    formula,
                    instance=str(req.get("instance", "serve")),
                    budget=budget,
                    jobs=jobs,
                    entrants=tuple(entrants),
                    strategy=str(req.get("strategy", "eu_au")),
                    engine=str(req.get("engine", "counters")),
                    run_all=bool(req.get("run_all", False)),
                    wall_timeout=deadline,
                    mem_limit_mb=mem_limit_mb,
                ),
            )
        self.stats["solves"] += 1
        out: Dict[str, object] = {
            "ok": True,
            "cached": False,
            "outcome": result.outcome.value,
            "winner": result.winner,
            "jobs": result.jobs,
            "seconds": result.seconds,
            "cancelled": result.cancelled,
            "reported": {
                m.solver: m.outcome.value for m in result.measurements
            },
            "protocol": PROTOCOL_VERSION,
        }
        if result.errors:
            out["lane_errors"] = {
                name: err.strip().splitlines()[-1]
                for name, err in result.errors.items()
            }
        if result.disagreement is not None:
            out["disagreement"] = result.disagreement
            out["triage"] = result.triage
        return out

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
                supervisor=self.supervisor.snapshot(),
                protocol=PROTOCOL_VERSION,
            )
            return out
        if kind == "shutdown":
            # The supported path is SIGTERM; this exists for clients that
            # cannot signal (e.g. a remote-ish wrapper), and follows it.
            self._interrupt.set()
            self.shutdown_event.set()
            return {"ok": True, "stopping": True, "protocol": PROTOCOL_VERSION}
        handlers = {
            "solve": self._handle_solve,
            "smv-diameter": self._handle_smv,
            "cube-solve": self._handle_cube,
            "portfolio": self._handle_portfolio,
        }
        handler = handlers.get(kind)
        if handler is None:
            raise ProtocolError("unknown request kind %r" % (kind,))
        # Admission first: over-budget requests are shed with a hint, not
        # queued — the only waiting after this point is on the bounded
        # executor slots. Sheds and poisoned refusals are deliberate
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
                    # Handler bug or resource failure: the client still gets
                    # a structured error, never a silently dropped
                    # connection; the traceback goes to the daemon's log.
                    self.stats["errors"] += 1
                    traceback.print_exc()
                    response = error_response(
                        "internal error: %s: %s" % (type(exc).__name__, exc),
                        request_id,
                    )
                if request_id is not None and "id" not in response:
                    response["id"] = request_id
                writer.write((json.dumps(response) + "\n").encode("utf-8"))
                await writer.drain()
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
        try:
            async with server:
                await self.shutdown_event.wait()
        finally:
            self._pool.shutdown(wait=True)
            for fam in self._families.values():
                fam.abandon()
            if self._log is not None:
                self._log.close()
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass


def run_daemon(
    socket_path: str,
    jobs: int = 2,
    cache_path: Optional[str] = None,
    wall_timeout: Optional[float] = None,
    checkpoint_dir: Optional[str] = None,
    mem_limit_mb: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    failure_threshold: int = 3,
    breaker_cooldown: float = 30.0,
) -> int:
    """Blocking entry point: serve until SIGTERM/SIGINT, then exit 0."""

    async def main() -> None:
        flag = global_flag()
        flag.clear()
        daemon = ServeDaemon(
            socket_path,
            jobs=jobs,
            cache_path=cache_path,
            wall_timeout=wall_timeout,
            checkpoint_dir=checkpoint_dir,
            interrupt=flag,
            mem_limit_mb=mem_limit_mb,
            faults=faults,
            max_inflight=max_inflight,
            failure_threshold=failure_threshold,
            breaker_cooldown=breaker_cooldown,
        )
        loop = asyncio.get_running_loop()

        def initiate_shutdown(signum: int) -> None:
            # Same cooperative path as the batch harness: the flag stops
            # in-flight solves at their next poll, the event stops accepts.
            flag.set(signum)
            daemon.shutdown_event.set()

        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, initiate_shutdown, sig)
        try:
            await daemon.run()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(sig)

    asyncio.run(main())
    return 0
