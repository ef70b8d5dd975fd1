"""Wire protocol of the serve daemon: newline-delimited JSON over a socket.

Requests are single JSON objects, one per line; every request gets exactly
one JSON response line. ``kind`` selects the handler:

``ping``
    liveness probe; responds ``{"ok": true, "pong": true}``.
``stats``
    daemon counters (requests, cache hits, incremental solves, uptime).
``solve``
    a one-shot solve of an inlined formula: ``formula`` (text) +
    ``format`` ("qdimacs" or "qtree"), optional ``mode`` ("po"/"to"),
    ``strategy``, ``budget`` ({"decisions", "seconds"}), ``certify``,
    ``engine`` (see below). Dispatched to a fault-isolated worker shard.
``smv-diameter``
    one bound of a model family's diameter sweep: ``family``, ``size``
    (an integer up to :data:`MAX_SMV_SIZE`), ``n``, optional ``budget``.
    Solved in the family's persistent worker process, on its incremental
    solver. A bound whose formula φ_n would exceed :data:`MAX_CLAUSES` or
    :data:`MAX_VARS` is a structured protocol error, decided before φ_n is
    encoded.

The ``engine`` field of ``solve`` names a propagation backend from
:data:`repro.core.engine.config.ENGINES` (aliases included); absent, the
default applies. The ``strategy`` field of ``solve`` names a prenexing
strategy from :data:`repro.prenexing.strategies.STRATEGIES` (default
``eu_au``). Any other value of either is a structured protocol error,
never an attempted solve. So is any other ``kind``.

The ``certify`` flag must be a JSON boolean. A ``budget`` caps
``decisions`` (a positive integer; default 2000, ``null`` for none) and
``seconds`` (a finite positive number).

Every solve-lane request (``solve``, ``smv-diameter``) may carry a
``deadline`` — a finite positive number of wall-clock seconds for *this
request*. A request that exceeds it returns a structured
``{"ok": false, "status": ...}`` response instead of leaving the client
hanging until its socket times out; requests that don't set one get
:data:`DEFAULT_DEADLINE_SECONDS` (the daemon's ``--wall-timeout`` further
caps both). A ``solve`` deadline caps each *attempt*: an attempt that
overruns it is stopped (SIGTERM, then SIGKILL ``term_grace`` later) and
retried once, so a solve that never finishes answers ``hard-timeout``
after about twice its deadline. Inlined formulas are size-capped
(:data:`MAX_FORMULA_BYTES`, :data:`MAX_CLAUSES`, :data:`MAX_VARS`); an
oversized request is a structured protocol error, never an attempted
solve.

Responses always carry ``ok``; successful solve responses add ``outcome``,
``decisions``, ``seconds``, ``cached`` (verdict served from the fingerprint
cache) and — for smv requests — ``incremental`` (the family solver had
prior state) and ``retained`` (constraints transferred into this solve).

Failure responses are always structured — ``{"ok": false, "status": ...,
"error": ...}`` — and the supervision layer adds these statuses beyond
``deadline``:

``overloaded``
    the daemon's bounded in-flight budget (total or per-kind) was full;
    the request was shed at admission, nothing ran. Carries
    ``retry_after`` (seconds, a coarse hint) and ``dimension`` (``total``
    or the kind whose budget was full).
``poisoned``
    this request's task key or SMV family has failed repeatedly and its
    circuit breaker is open; refused without running. Carries
    ``retry_after`` (seconds until the next half-open probe window) and
    ``last_failure`` (``{"status", "error"}`` of the failure that tripped
    the breaker).
``memout`` / ``stuck``
    the worker breached its ``--mem-limit`` address-space ceiling, or a
    family solve outlived its deadline by a grace and the pool stopped its
    worker. ``stuck`` carries ``retry_after: 0``: the family's next bound
    re-forks the worker at once, and solves cold.
``crash``
    a family worker died or raised instead of reporting its solve.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Optional, Tuple

from repro.core.engine.config import ENGINES
from repro.core.formula import QBF
from repro.evalx.runner import Budget
from repro.prenexing.strategies import STRATEGIES

#: bumped when a response field changes meaning; echoed on every response.
PROTOCOL_VERSION = 1

#: wall-clock cap applied to solve-lane requests that set no ``deadline``;
#: guarantees every request eventually gets a structured response.
DEFAULT_DEADLINE_SECONDS = 300.0

#: hard caps on inlined formulas — the daemon is a solving service, not a
#: bulk store; anything bigger should go through the batch harness.
MAX_FORMULA_BYTES = 4_000_000
MAX_CLAUSES = 100_000
MAX_VARS = 50_000

#: cap on an ``smv-diameter`` model's ``size``; φ_1 of the largest family
#: (semaphore) has 89,385 clauses at this size.
MAX_SMV_SIZE = 32


class ProtocolError(ValueError):
    """Raised on malformed requests; reported to the client, never fatal."""


def _positive_seconds(value: object) -> bool:
    """True for a finite positive JSON number (booleans are not numbers).
    Python's ``json`` parses ``NaN`` and ``Infinity``; both must fail here,
    since a NaN deadline or budget never expires."""
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and math.isfinite(value)
        and value > 0
    )


def _is_int(value: object) -> bool:
    """True for a JSON integer (booleans are not integers)."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_budget(payload: Optional[Dict[str, object]]) -> Budget:
    if payload is None:
        return Budget()
    if not isinstance(payload, dict):
        raise ProtocolError("budget must be an object")
    decisions = payload.get("decisions", 2000)
    seconds = payload.get("seconds")
    if decisions is not None and (not _is_int(decisions) or decisions <= 0):
        raise ProtocolError("budget.decisions must be a positive integer")
    if seconds is not None and not _positive_seconds(seconds):
        raise ProtocolError("budget.seconds must be a finite positive number")
    return Budget(decisions=decisions, seconds=seconds)


def parse_flag(req: Dict[str, object], name: str) -> bool:
    """The request's boolean flag ``name``; absent means False."""
    value = req.get(name, False)
    if not isinstance(value, bool):
        raise ProtocolError("%s must be a JSON boolean" % name)
    return value


def parse_engine(req: Dict[str, object]) -> Optional[str]:
    """The request's propagation backend, or None when it names none."""
    if "engine" not in req:
        return None
    engine = req["engine"]
    if not isinstance(engine, str) or engine not in ENGINES:
        raise ProtocolError(
            "unknown engine %r (choose from %s)" % (engine, list(ENGINES))
        )
    return engine


def parse_strategy(req: Dict[str, object]) -> str:
    """The request's prenexing strategy; ``eu_au`` when it names none."""
    strategy = req.get("strategy", "eu_au")
    if not isinstance(strategy, str) or strategy not in STRATEGIES:
        raise ProtocolError(
            "unknown strategy %r (choose from %s)" % (strategy, list(STRATEGIES))
        )
    return strategy


def parse_deadline(req: Dict[str, object]) -> float:
    """The request's wall-clock deadline, in seconds.

    ``smv-diameter`` applies it to the request. A ``solve`` applies it
    to each attempt, and its one hard-timeout retry gets the deadline
    afresh: a solve that never finishes is answered within
    2 x (deadline + ``term_grace``).
    """
    deadline = req.get("deadline")
    if deadline is None:
        return DEFAULT_DEADLINE_SECONDS
    if not _positive_seconds(deadline):
        raise ProtocolError("deadline must be a finite positive number of seconds")
    return float(deadline)


def check_formula_size(text: str) -> None:
    """Reject oversized formula *text* before it is even parsed."""
    if len(text) > MAX_FORMULA_BYTES:
        raise ProtocolError(
            "formula too large: %d bytes exceeds the %d-byte cap"
            % (len(text), MAX_FORMULA_BYTES)
        )


def check_formula_shape(formula: QBF) -> None:
    """Reject parsed formulas beyond the daemon's solving caps."""
    if formula.num_clauses > MAX_CLAUSES:
        raise ProtocolError(
            "formula too large: %d clauses exceeds the %d-clause cap"
            % (formula.num_clauses, MAX_CLAUSES)
        )
    if formula.num_vars > MAX_VARS:
        raise ProtocolError(
            "formula too large: %d variables exceeds the %d-variable cap"
            % (formula.num_vars, MAX_VARS)
        )


def error_response(message: str, request_id: Optional[object] = None) -> Dict[str, object]:
    out: Dict[str, object] = {
        "ok": False,
        "error": message,
        "protocol": PROTOCOL_VERSION,
    }
    if request_id is not None:
        out["id"] = request_id
    return out


def overloaded_response(exc) -> Dict[str, object]:
    """Structured shed: built from a :class:`repro.serve.supervisor.
    OverloadedError`; the client should back off ``retry_after`` seconds."""
    return {
        "ok": False,
        "status": "overloaded",
        "error": str(exc),
        "retry_after": exc.retry_after,
        "dimension": exc.dimension,
        "protocol": PROTOCOL_VERSION,
    }


def poisoned_response(exc) -> Dict[str, object]:
    """Structured breaker refusal: built from a :class:`repro.serve.
    supervisor.PoisonedError`, with the tripping failure attached."""
    return {
        "ok": False,
        "status": "poisoned",
        "error": str(exc),
        "retry_after": exc.retry_after,
        "last_failure": exc.last_failure,
        "protocol": PROTOCOL_VERSION,
    }


@functools.lru_cache(maxsize=4 * MAX_SMV_SIZE)
def _smv_growth(family: str, size: int) -> Tuple[int, int, int, int]:
    """φ_0's clause and variable counts and what each bound adds.

    Both counts of φ_n are affine in ``n``: every bound adds one forward
    transition group, one negated transition group and one state copy on
    each side, and swaps one fixed-size equality group. So φ_0 and φ_1 fix
    them for every ``n``. One entry per model (four families, each up to
    ``MAX_SMV_SIZE``); encoding φ_1 of the largest takes about a second,
    once.
    """
    from repro.smv.incremental import DiameterFamily
    from repro.smv.models import model_by_name

    encoder = DiameterFamily(model_by_name(family, size))
    phi0 = encoder.formula(0)
    phi1 = encoder.formula(1)
    return (
        phi0.num_clauses,
        phi1.num_clauses - phi0.num_clauses,
        phi0.num_vars,
        phi1.num_vars - phi0.num_vars,
    )


def validate_smv_request(req: Dict[str, object]) -> Tuple[str, int, int]:
    """The request's (family, size, n), refused before any φ_n is encoded
    when φ_n would exceed the inlined-formula caps."""
    family = req.get("family")
    size = req.get("size")
    n = req.get("n")
    if not isinstance(family, str):
        raise ProtocolError("smv-diameter needs a string 'family'")
    if not _is_int(size) or not 1 <= size <= MAX_SMV_SIZE:
        raise ProtocolError(
            "smv-diameter needs an integer 'size' between 1 and %d" % MAX_SMV_SIZE
        )
    if not _is_int(n) or n < 0:
        raise ProtocolError("smv-diameter needs a non-negative integer 'n'")
    clauses0, clauses_per_n, vars0, vars_per_n = _smv_growth(family, size)
    clauses = clauses0 + n * clauses_per_n
    variables = vars0 + n * vars_per_n
    if clauses > MAX_CLAUSES or variables > MAX_VARS:
        raise ProtocolError(
            "smv-diameter bound too large: phi_%d of %s(%d) would have %d "
            "clauses and %d variables (caps %d and %d)"
            % (n, family, size, clauses, variables, MAX_CLAUSES, MAX_VARS)
        )
    return family, size, n
