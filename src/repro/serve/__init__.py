"""The long-lived solver front-end: a local-socket daemon + sync client.

``repro serve run`` starts an asyncio daemon on a unix socket that accepts
newline-delimited JSON solve requests (see :mod:`repro.serve.protocol`).
Generic QDIMACS/tree-prefix requests run on warm persistent
:class:`repro.evalx.parallel.WorkerPool` workers under the batch harness's
retry policy, wall timeouts and SIGTERM preemption, while SMV
diameter-bound requests run on one persistent pool worker per model
family, whose :class:`repro.incremental.IncrementalSolver` carries learned
constraints across bounds. Every solve runs in a forked worker, so
``--mem-limit`` caps them all, and the daemon's one thread waits on them
from its event loop. Verdicts (and
certificate statuses) are cached under the existing :meth:`repro.evalx.
parallel.Task.key` fingerprint and persisted through :class:`repro.evalx.
parallel.ResultsLog`. Every solve-lane request runs under a per-request wall-clock
``deadline`` (default :data:`repro.serve.protocol.
DEFAULT_DEADLINE_SECONDS`), so an unsolvable request comes back as a
structured error instead of a hung connection; oversized formulas are
rejected at the protocol layer.

The execution lanes run under the supervision layer in :mod:`repro.serve.
supervisor`: bounded admission (structured ``overloaded`` sheds with a
``retry_after`` hint), per-key circuit breakers (``poisoned`` refusals
after repeated crash/hang/memout/stuck outcomes), per-worker memory
ceilings (``--mem-limit`` → ``memout`` records), and a ``stuck`` answer
and a cold re-fork for a wedged family worker.
"""

from repro.serve.client import request, request_with_retry, wait_ready
from repro.serve.daemon import ServeDaemon, claim_socket_path, run_daemon
from repro.serve.supervisor import Supervisor

__all__ = [
    "ServeDaemon",
    "Supervisor",
    "claim_socket_path",
    "request",
    "request_with_retry",
    "run_daemon",
    "wait_ready",
]
