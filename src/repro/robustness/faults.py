"""Deterministic, seeded fault injection for the parallel harness.

A :class:`FaultPlan` assigns at most one fault to each task label
(``"instance|solver"``). Assignment is either explicit or drawn by a seeded
``random.Random`` over the sorted label set, so a given ``(seed, labels)``
pair always injects the same faults — the chaos tests in CI are exactly
reproducible.

Fault kinds and where they fire:

* ``crash`` — the worker raises :class:`InjectedFault` before solving
  (first attempt only); exercises crash-as-record plus backoff retry.
* ``hang`` — the worker sleeps past any wall timeout (first attempt only);
  exercises the parent's SIGTERM → grace → SIGKILL escalation and the
  hard-timeout retry.
* ``torn-append`` — :class:`repro.evalx.parallel.ResultsLog` writes the
  record's line half-finished, once; exercises torn-line tolerance on load
  and fingerprint-keyed re-running.
* ``worker-oom`` — the worker raises :class:`MemoryError` before solving,
  exactly what an allocation hitting the ``RLIMIT_AS`` ceiling looks like;
  exercises the ``memout`` record classification and — at the serve layer —
  the circuit breaker that trips a repeatedly OOMing key. Unlike ``crash``
  it fires on *every* attempt: real memory blowups are deterministic, so a
  retry at the same ceiling must not quietly make the fault disappear.
* ``stuck-family`` — consulted by the serve daemon before it hands an SMV
  bound to the family's worker process; the worker stalls past the request
  deadline without polling its interrupt flag (one-shot per label),
  exercising the pool's SIGTERM → grace → SIGKILL escalation, the
  ``stuck`` answer, and the cold re-fork of the family's next bound.

Worker-side faults other than ``worker-oom`` key off ``attempt == 1`` so
recovery, not the fault, decides the final record; the torn append and the
stuck family are one-shot per label within the process that owns the plan
object.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Iterable, List, Optional, Set

CRASH = "crash"
HANG = "hang"
TORN_APPEND = "torn-append"
WORKER_OOM = "worker-oom"
STUCK_FAMILY = "stuck-family"
KINDS = (CRASH, HANG, TORN_APPEND, WORKER_OOM, STUCK_FAMILY)


class InjectedFault(RuntimeError):
    """Raised by a ``crash`` fault; indistinguishable from a real bug to
    the harness, which is the point."""


class FaultPlan:
    """One sweep's worth of scheduled failures.

    Either pass ``assignments`` (label → kind) directly, or pass counts and
    a seed and let :meth:`bind` draw victims from the task labels once they
    are known. The serve daemon, which never knows its labels in advance,
    takes only the former.
    """

    def __init__(
        self,
        seed: int = 0,
        crashes: int = 0,
        hangs: int = 0,
        torn_appends: int = 0,
        worker_ooms: int = 0,
        stuck_families: int = 0,
        hang_seconds: float = 3600.0,
        assignments: Optional[Dict[str, str]] = None,
    ):
        self.seed = seed
        self.crashes = crashes
        self.hangs = hangs
        self.torn_appends = torn_appends
        self.worker_ooms = worker_ooms
        self.stuck_families = stuck_families
        self.hang_seconds = hang_seconds
        self.assignments: Optional[Dict[str, str]] = (
            dict(assignments) if assignments is not None else None
        )
        if self.assignments is not None:
            for label, kind in self.assignments.items():
                if kind not in KINDS:
                    raise ValueError("unknown fault kind %r for %r" % (kind, label))
        self._torn_done: Set[str] = set()
        self._stuck_done: Set[str] = set()

    @staticmethod
    def label(task) -> str:
        return "%s|%s" % (task.instance, task.solver)

    def bind(self, labels: Iterable[str]) -> None:
        """Draw fault victims from ``labels`` (idempotent once assigned).

        Deterministic: victims are sampled from the *sorted* label set with
        ``random.Random(seed)``, then matched to kinds in declaration
        order. With fewer labels than requested faults, the surplus faults
        are dropped (the plan never doubles up on one task).
        """
        if self.assignments is not None:
            return
        ordered = sorted(set(labels))
        wanted: List[str] = (
            [CRASH] * self.crashes
            + [HANG] * self.hangs
            + [TORN_APPEND] * self.torn_appends
            + [WORKER_OOM] * self.worker_ooms
            + [STUCK_FAMILY] * self.stuck_families
        )
        rng = random.Random(self.seed)
        victims = rng.sample(ordered, min(len(wanted), len(ordered)))
        self.assignments = dict(zip(victims, wanted))

    def kind_for(self, label: str) -> Optional[str]:
        if self.assignments is None:
            return None
        return self.assignments.get(label)

    # -- injection points --------------------------------------------------

    def on_worker_start(self, task, attempt: int) -> None:
        """Worker-side faults, fired before the task executes."""
        kind = self.kind_for(self.label(task))
        if kind == WORKER_OOM:
            # Fires on every attempt: a real allocation that breaches the
            # address-space ceiling fails deterministically, retry or not.
            raise MemoryError(
                "injected allocation failure for %s" % self.label(task)
            )
        if attempt != 1:
            return
        if kind == CRASH:
            raise InjectedFault("injected crash for %s" % self.label(task))
        if kind == HANG:
            time.sleep(self.hang_seconds)

    def torn_append(self, label: str) -> bool:
        """Should this record's JSONL line be torn? One-shot per label."""
        if self.kind_for(label) == TORN_APPEND and label not in self._torn_done:
            self._torn_done.add(label)
            return True
        return False

    def stuck_family(self, label: str) -> bool:
        """Should this family bound stall in its worker? One-shot per label
        (the daemon owns the plan), so the re-forked worker answers the
        family's next bound honestly."""
        if self.kind_for(label) == STUCK_FAMILY and label not in self._stuck_done:
            self._stuck_done.add(label)
            return True
        return False

    # -- (de)serialization for the CLI -------------------------------------

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seed": self.seed,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "torn_appends": self.torn_appends,
            "worker_ooms": self.worker_ooms,
            "stuck_families": self.stuck_families,
            "hang_seconds": self.hang_seconds,
        }
        if self.assignments is not None:
            out["assignments"] = dict(self.assignments)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        """The plan :meth:`to_dict` wrote. Keys it does not know, such as
        the count of a retired fault kind, are ignored."""
        return cls(
            seed=int(data.get("seed", 0)),
            crashes=int(data.get("crashes", 0)),
            hangs=int(data.get("hangs", 0)),
            torn_appends=int(data.get("torn_appends", 0)),
            worker_ooms=int(data.get("worker_ooms", 0)),
            stuck_families=int(data.get("stuck_families", 0)),
            hang_seconds=float(data.get("hang_seconds", 3600.0)),
            assignments=data.get("assignments"),
        )

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        import json

        with open(path, "r") as fh:
            return cls.from_dict(json.load(fh))
