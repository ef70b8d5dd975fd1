"""Versioned solver checkpoints: serialize and replay a search frontier.

A checkpoint captures everything the engine has *earned* — learned clauses
and cubes, branching scores, spent budget — plus the chronological search
frontier itself: the full trail with per-level decision literals and flip
marks, every assignment's reason, and the propagation queue head. Restoring
rebuilds a fresh engine on the same formula, re-installs the learned
constraints at the empty trail (sound across interruptions for the same
reason incremental QBF solving keeps clauses across related solves), then
replays the trail through the backend's own ``assign``, which reconstructs
the occurrence counters and pure-literal index exactly.

On disk a checkpoint is two lines of JSON: a header carrying the format
name, version and a SHA-256 of the payload line, then the payload itself.
Truncation, bit rot or a version bump all fail the header check and raise
:class:`CheckpointError`, which callers treat as "start fresh" — a corrupt
checkpoint can cost the saved work, never correctness.

The header also pins SHA-256 digests of the formula (its qtree
serialization) and of the behaviour-relevant config switches. Resuming
under a different budget or a different propagation backend is legal (both
leave the decision sequence unchanged); resuming a different formula or a
different heuristic/learning configuration is rejected.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.engine.backend import PURE, Rec
from repro.core.engine.config import SolverConfig
from repro.core.formula import QBF
from repro.core.result import SolverStats
from repro.io import qtree

CHECKPOINT_FORMAT = "repro-ckpt"
CHECKPOINT_VERSION = 1

#: reason tags for trail replay: decision/flip, pure literal, clause, cube.
_R_DECISION = "d"
_R_PURE = "p"
_R_CLAUSE = "c"
_R_CUBE = "u"


class CheckpointError(ValueError):
    """The checkpoint is missing, corrupt, or belongs to another run."""


def formula_digest(formula: QBF) -> str:
    return hashlib.sha256(qtree.dumps(formula).encode("utf-8")).hexdigest()


def config_digest(config: SolverConfig) -> str:
    """Digest of the switches that shape the decision sequence.

    ``engine`` is deliberately excluded (backends are decision-identical by
    contract), and so are ``max_decisions``/``max_seconds`` — resuming with
    a larger budget is the whole point.
    """
    payload = {
        "policy": config.policy,
        "learn_clauses": config.learn_clauses,
        "learn_cubes": config.learn_cubes,
        "pure_literals": config.pure_literals,
        "backjump": config.backjump,
        "decay_interval": config.decay_interval,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


@dataclass
class Checkpoint:
    """One serialized search frontier; see the module docstring."""

    formula_digest: str
    config_digest: str
    #: wall-clock seconds already spent across previous attempts.
    seconds: float
    #: every SolverStats counter at capture time.
    stats: Dict[str, int]
    #: ScoreKeeper activity (keys are signed literals) and decay phase.
    scores: Dict[int, float]
    since_decay: int
    #: learned constraints in insertion order (order matters: occurrence
    #: lists are scanned in installation order by the backend contract).
    learned_clauses: List[Tuple[int, ...]]
    learned_cubes: List[Tuple[int, ...]]
    #: the chronological frontier: trail literals, one reason tag per
    #: literal, per-level start positions, and the (literal, flipped)
    #: decision pairs for levels 1..N.
    trail_lits: List[int]
    reasons: List[Any]
    level_start: List[int]
    decisions: List[Tuple[int, bool]]
    queue_head: int
    pure_candidates: List[int]
    #: proof-logger continuation (id map + flags) and its recorded steps,
    #: present only when the interrupted run was certified into a memory
    #: sink; consumed by the evalx runner, ignored by ``restore``.
    proof: Optional[Dict[str, Any]] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "formula_digest": self.formula_digest,
            "config_digest": self.config_digest,
            "seconds": self.seconds,
            "stats": dict(self.stats),
            "scores": {str(lit): score for lit, score in self.scores.items()},
            "since_decay": self.since_decay,
            "learned_clauses": [list(lits) for lits in self.learned_clauses],
            "learned_cubes": [list(lits) for lits in self.learned_cubes],
            "trail_lits": list(self.trail_lits),
            "reasons": list(self.reasons),
            "level_start": list(self.level_start),
            "decisions": [[lit, bool(flip)] for lit, flip in self.decisions],
            "queue_head": self.queue_head,
            "pure_candidates": sorted(self.pure_candidates),
            "proof": self.proof,
            "extra": self.extra,
        }

    @classmethod
    def from_payload(cls, data: Dict[str, Any]) -> "Checkpoint":
        try:
            return cls(
                formula_digest=data["formula_digest"],
                config_digest=data["config_digest"],
                seconds=float(data["seconds"]),
                stats={k: int(v) for k, v in data["stats"].items()},
                scores={int(k): float(v) for k, v in data["scores"].items()},
                since_decay=int(data["since_decay"]),
                learned_clauses=[tuple(l) for l in data["learned_clauses"]],
                learned_cubes=[tuple(l) for l in data["learned_cubes"]],
                trail_lits=[int(l) for l in data["trail_lits"]],
                reasons=list(data["reasons"]),
                level_start=[int(p) for p in data["level_start"]],
                decisions=[(int(l), bool(f)) for l, f in data["decisions"]],
                queue_head=int(data["queue_head"]),
                pure_candidates=[int(v) for v in data["pure_candidates"]],
                proof=data.get("proof"),
                extra=dict(data.get("extra") or {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError("malformed checkpoint payload: %s" % exc)


# -- file format ------------------------------------------------------------


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Write atomically: temp file in the same directory, fsync, rename."""
    payload = json.dumps(ckpt.to_payload(), sort_keys=True, separators=(",", ":"))
    header = json.dumps(
        {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "sha256": hashlib.sha256(payload.encode("utf-8")).hexdigest(),
        },
        sort_keys=True,
    )
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".ckpt-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(header + "\n" + payload + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_checkpoint(path: str) -> Checkpoint:
    """Parse and digest-verify a checkpoint file.

    Raises :class:`CheckpointError` on any defect — missing file, torn
    write, wrong format/version, digest mismatch, malformed payload.
    """
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise CheckpointError("cannot read checkpoint %s: %s" % (path, exc))
    head, sep, body = text.partition("\n")
    if not sep:
        raise CheckpointError("truncated checkpoint (no payload line)")
    body = body.rstrip("\n")
    try:
        header = json.loads(head)
    except ValueError:
        raise CheckpointError("unparseable checkpoint header")
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError("not a %s file" % CHECKPOINT_FORMAT)
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            "unsupported checkpoint version %r" % (header.get("version"),)
        )
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if digest != header.get("sha256"):
        raise CheckpointError("checkpoint payload fails its digest (torn write?)")
    try:
        payload = json.loads(body)
    except ValueError:
        raise CheckpointError("unparseable checkpoint payload")
    return Checkpoint.from_payload(payload)


# -- capture ----------------------------------------------------------------


def capture(engine, seconds: float = 0.0, extra: Optional[Dict[str, Any]] = None) -> Checkpoint:
    """Snapshot ``engine`` at a quiescent point (between budget checks).

    The engine must be at one of its ``_should_stop`` sites: either a
    propagation fixpoint before a decision, or just after a backjump — in
    both states the trail plus ``queue_head`` is a complete description of
    where propagation stands.
    """
    trail = engine.trail
    backend = engine.backend
    frontier = trail.snapshot()
    reasons: List[Any] = []
    for lit in frontier["lits"]:
        reason = trail.reason[abs(lit)]
        if reason is None:
            reasons.append(_R_DECISION)
        elif reason is PURE:
            reasons.append(_R_PURE)
        elif isinstance(reason, Rec):
            tag = _R_CUBE if reason.is_cube else _R_CLAUSE
            reasons.append([tag, list(reason.lits)])
        else:  # pragma: no cover - would be an engine invariant violation
            raise CheckpointError("unserializable reason for literal %d" % lit)
    keeper = engine._keeper
    proof_state = None
    extras = dict(extra or {})
    logger = engine._proof
    if logger is not None and hasattr(logger, "export_state"):
        proof_state = logger.export_state()
        steps = getattr(getattr(logger, "_sink", None), "steps", None)
        if steps is not None:
            extras["proof_steps"] = [dict(step) for step in steps]
    return Checkpoint(
        formula_digest=formula_digest(engine.formula),
        config_digest=config_digest(engine.config),
        seconds=seconds,
        stats={
            # Counters only: engine_fallback (a string) describes how *this*
            # run resolved its backend, which the resuming process decides
            # afresh for itself.
            f.name: getattr(engine.stats, f.name)
            for f in dataclasses.fields(SolverStats)
            if isinstance(getattr(engine.stats, f.name), int)
        },
        scores=dict(keeper.score),
        since_decay=keeper._since_decay,
        learned_clauses=list(backend.learned_clauses.keys()),
        learned_cubes=list(backend.learned_cubes.keys()),
        trail_lits=frontier["lits"],
        reasons=reasons,
        level_start=frontier["level_start"],
        decisions=frontier["decision"],
        queue_head=frontier["queue_head"],
        pure_candidates=sorted(backend.pure_candidates),
        proof=proof_state,
        extra=extras,
    )


# -- restore ----------------------------------------------------------------


def restore(engine, ckpt: Checkpoint) -> float:
    """Replay ``ckpt`` into a freshly constructed ``engine``.

    Returns the seconds already spent. Validates the digests *before*
    mutating anything, so a rejected restore leaves the engine untouched
    and callers can rerun it fresh. Proof-logger state is not applied here
    — certified resume composes the logger separately (see
    ``repro.evalx.runner``) because the engine does not own the step sink.
    """
    if engine.trail.lits or engine.stats.decisions:
        raise CheckpointError("restore requires a freshly constructed engine")
    if ckpt.formula_digest != formula_digest(engine.formula):
        raise CheckpointError("checkpoint was taken on a different formula")
    if ckpt.config_digest != config_digest(engine.config):
        raise CheckpointError("checkpoint was taken under a different configuration")

    backend = engine.backend
    trail = engine.trail
    # Learned constraints are re-installed at the empty trail: everything
    # they touch (occ_unsat, their own n_true, the live-cube index) then
    # reflects the unassigned state, and the trail replay below applies the
    # same transitions the original run did, converging on identical
    # bookkeeping.
    for lits in ckpt.learned_clauses:
        backend.add_learned_clause(tuple(lits))
    for lits in ckpt.learned_cubes:
        backend.add_learned_cube(tuple(lits))

    clause_by_lits: Dict[Tuple[int, ...], Rec] = {
        rec.lits: rec for rec in backend.orig_clauses
    }
    clause_by_lits.update(backend.learned_clauses)
    cube_by_lits: Dict[Tuple[int, ...], Rec] = dict(backend.learned_cubes)

    def decode_reason(tagged: Any) -> object:
        if tagged == _R_DECISION:
            return None
        if tagged == _R_PURE:
            return PURE
        tag, lits = tagged
        table = cube_by_lits if tag == _R_CUBE else clause_by_lits
        rec = table.get(tuple(lits))
        if rec is None:
            raise CheckpointError("reason constraint %r is not in the database" % (lits,))
        return rec

    level = 0
    top = len(ckpt.level_start) - 1
    for idx, lit in enumerate(ckpt.trail_lits):
        while level < top and idx == ckpt.level_start[level + 1]:
            level += 1
            dlit, flipped = ckpt.decisions[level - 1]
            trail.open_level(dlit, flipped=flipped)
        backend.assign(lit, decode_reason(ckpt.reasons[idx]))
    while level < top:
        level += 1
        dlit, flipped = ckpt.decisions[level - 1]
        trail.open_level(dlit, flipped=flipped)

    if trail.lits != ckpt.trail_lits or trail.level_start != ckpt.level_start:
        raise CheckpointError("trail replay diverged from the checkpoint")
    trail.queue_head = ckpt.queue_head

    backend.pure_candidates.clear()
    backend.pure_candidates.update(ckpt.pure_candidates)

    # Heuristic scores and decay phase: overwrite in place so the resumed
    # engine ranks exactly as the interrupted one would have.
    keeper = engine._keeper
    keeper.score.update(ckpt.scores)
    keeper._since_decay = ckpt.since_decay
    keeper._dirty = True

    # Stats last: reconstruction above bumped counters (learned_*,
    # propagations, max_trail); the checkpoint values are authoritative.
    # Counters a (pre-upgrade) checkpoint does not carry keep their dataclass
    # default.  Non-counter fields (engine_fallback, a string) are never
    # checkpointed and keep whatever the resuming engine decided for itself.
    for f in dataclasses.fields(SolverStats):
        if isinstance(getattr(engine.stats, f.name), int):
            setattr(engine.stats, f.name, ckpt.stats.get(f.name, f.default))
    return ckpt.seconds
