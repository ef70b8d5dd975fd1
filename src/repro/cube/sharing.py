"""Sound constraint sharing between cube-and-conquer workers.

Soundness contract (Giunchiglia, Narizzano & Tacchella): a constraint may
be installed in any worker iff it is derivable by clause/term resolution
from the *original* matrix. Workers therefore exchange constraints in the
**original variable space**, lifted out of their local cube context before
export:

* a clause ``C`` learned under assumptions ``A`` certifies ``A ⊨ ¬C``-ish
  only locally; globally the derivation replays with the assumption units
  removed, which *weakens* every step by literals of ``¬A`` — so the export
  is ``C ∪ ¬A``. Weakening a Q-derivable clause is itself derivable
  (resolve/reduce steps tolerate extra side literals), so the lift is
  sound.
* a cube ``T`` learned under ``A`` is an implicant of the *cofactored*
  matrix; re-attaching the assumptions, ``T ∪ A`` satisfies every original
  clause (those deleted by the cofactor contain a literal of ``A``), so it
  is a legal initial cube of the original formula, and term resolution from
  it stays sound.

The receiver direction is asymmetric. A worker solving the plain cofactor
``Φ|A`` strips its own assumption variables from an import (a clause
containing ``a ∈ A`` is satisfied under the cube and useless; a cube
containing ``¬a`` is dead); a worker on the incremental path — original
prefix plus assumption *unit clauses* — installs imports untranslated.

Every import passes an :class:`AdmissionFilter` first: size cap, bindness,
quantifier agreement, and pairwise prefix-order (``≺``) agreement with the
receiving engine's prefix. Genuine exports always pass (restricting level-1
variables preserves ``≺`` among survivors); the filter is the firewall
against malformed or foreign traffic, and every rejection is counted and
logged, never installed.
"""

from __future__ import annotations

import itertools
import logging
import queue
from collections import Counter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.constraints import sanitize_lits
from repro.core.formula import QBF
from repro.core.literals import var_of

log = logging.getLogger("repro.cube")

#: default admission cap on shared-constraint width.
MAX_SHARED_LITS = 16

#: bus item: (sender id, is_cube, literals in original variable space).
BusItem = Tuple[int, bool, Tuple[int, ...]]


class AdmissionFilter:
    """Validate a shared constraint against the receiving engine's prefix.

    Args:
        original: the original (unsplit) formula — shared traffic lives in
            its variable space.
        receiver_prefix: the prefix the receiving engine actually runs on.
            ``None`` means the receiver runs in the original space
            (incremental path, or the coordinator itself).
        assumptions: the receiver's cube. Only meaningful together with a
            restricted ``receiver_prefix``: imports are stripped of these
            variables before installation (and dropped when the cube already
            satisfies/kills them).
        max_lits: reject constraints wider than this (after stripping).
        max_level: optionally reject constraints touching variables deeper
            than this prefix level in the receiver's prefix.
        cubes_ok: reject every shared *cube* when False. Receivers on the
            incremental path need this: their effective formula carries the
            assumptions as unit clauses, and a cube derivable from the
            original matrix need not be derivable once those units join the
            axioms (initial cubes must satisfy them too) — clauses, by
            monotonicity, are always safe to inherit.

    :meth:`admit` returns the literals to install, or ``None`` with the
    rejection reason recorded in :attr:`rejected`.
    """

    def __init__(
        self,
        original: QBF,
        receiver_prefix=None,
        assumptions: Sequence[int] = (),
        max_lits: int = MAX_SHARED_LITS,
        max_level: Optional[int] = None,
        cubes_ok: bool = True,
    ):
        self._orig_prefix = original.prefix
        self._prefix = receiver_prefix if receiver_prefix is not None else original.prefix
        self._strip = receiver_prefix is not None and receiver_prefix is not original.prefix
        self._assumed = frozenset(assumptions)
        self._assumed_vars = frozenset(var_of(l) for l in assumptions)
        self._bound = frozenset(original.prefix.variables)
        self._recv_vars = frozenset(self._prefix.variables)
        self.max_lits = max_lits
        self.max_level = max_level
        self.cubes_ok = cubes_ok
        self.rejected: Counter = Counter()
        self.admitted = 0

    def _reject(self, reason: str, lits) -> None:
        self.rejected[reason] += 1
        log.info("rejected shared constraint %r: %s", list(lits), reason)

    def admit(self, is_cube: bool, lits: Iterable[int]) -> Optional[Tuple[int, ...]]:
        lits = tuple(lits)
        if is_cube and not self.cubes_ok:
            self._reject("cube-on-original-path", lits)
            return None
        if not all(isinstance(l, int) and l != 0 for l in lits):
            self._reject("malformed", lits)
            return None
        clean = sanitize_lits(lits)
        if clean is None:
            self._reject("tautology", lits)
            return None
        if any(var_of(l) not in self._bound for l in clean):
            self._reject("unbound", lits)
            return None
        if self._strip:
            clean = self._strip_assumptions(is_cube, clean)
            if clean is None:
                # Satisfied clause / dead cube under the receiver's cube:
                # harmless, but nothing to install.
                self._reject("assumption-subsumed", lits)
                return None
        if not clean:
            self._reject("empty-after-strip", lits)
            return None
        if len(clean) > self.max_lits:
            self._reject("oversized", lits)
            return None
        variables = sorted(var_of(l) for l in clean)
        for v in variables:
            if v not in self._recv_vars:
                self._reject("unbound", lits)
                return None
            if self._prefix.quant(v) is not self._orig_prefix.quant(v):
                self._reject("quantifier-mismatch", lits)
                return None
        for a, b in itertools.combinations(variables, 2):
            if self._prefix.prec(a, b) != self._orig_prefix.prec(
                a, b
            ) or self._prefix.prec(b, a) != self._orig_prefix.prec(b, a):
                self._reject("prefix-order", lits)
                return None
        if self.max_level is not None and any(
            self._prefix.level(v) > self.max_level for v in variables
        ):
            self._reject("level-cap", lits)
            return None
        self.admitted += 1
        return clean

    def _strip_assumptions(
        self, is_cube: bool, lits: Tuple[int, ...]
    ) -> Optional[Tuple[int, ...]]:
        out: List[int] = []
        for lit in lits:
            if var_of(lit) not in self._assumed_vars:
                out.append(lit)
                continue
            if is_cube:
                if lit in self._assumed:
                    continue  # cube literal implied by the receiver's cube
                return None  # cube contradicts the receiver's cube: dead here
            if lit in self._assumed:
                return None  # clause satisfied by the receiver's cube
            # clause literal falsified by the cube: drop it (the stripped
            # clause is exactly the cofactor of the shared clause).
        return tuple(out)


class Exchange:
    """A worker's end of the sharing bus, and the engine's exchange hook.

    The search engine calls :meth:`on_learned` after each learned constraint
    and polls :meth:`drain` at its pre-decision quiescent point; this class
    turns those into non-blocking traffic on two multiprocessing queues
    (``outbox`` toward the coordinator, ``inbox`` from it). Everything is
    lossy by design: a full outbox drops the export, a burst of imports is
    installed over several drains. Loss never affects soundness — shared
    constraints are redundant consequences of the original matrix.
    """

    def __init__(
        self,
        sender_id: int,
        assumptions: Sequence[int],
        outbox,
        inbox,
        admission: AdmissionFilter,
        max_lits: int = MAX_SHARED_LITS,
        export: bool = True,
        lift_cubes: bool = True,
    ):
        self.sender_id = sender_id
        self._assumed = tuple(assumptions)
        self._neg_assumed = tuple(-l for l in assumptions)
        self._outbox = outbox
        self._inbox = inbox
        self.admission = admission
        self.max_lits = max_lits
        self.export = export
        #: incremental-path workers set this False: their cube derivations
        #: are valid in the original space verbatim (the assumption units
        #: never join a cube derivation), so cubes export unlifted.
        self.lift_cubes = lift_cubes
        self._seen: set = set()
        self.exported = 0
        self.export_dropped = 0
        self.imported = 0

    # -- engine-facing hook -------------------------------------------------

    def on_learned(self, is_cube: bool, lits: Sequence[int]) -> None:
        if not self.export or self._outbox is None:
            return
        lifted = self.lift(is_cube, lits)
        if lifted is None or len(lifted) > self.max_lits:
            return
        key = (is_cube, lifted)
        if key in self._seen:
            return
        self._seen.add(key)
        try:
            self._outbox.put_nowait((self.sender_id, is_cube, lifted))
            self.exported += 1
        except queue.Full:
            self.export_dropped += 1

    def drain(self) -> Iterator[Tuple[bool, Tuple[int, ...]]]:
        if self._inbox is None:
            return
        while True:
            try:
                sender, is_cube, lits = self._inbox.get_nowait()
            except queue.Empty:
                return
            except (EOFError, OSError):  # bus torn down mid-drain
                return
            if sender == self.sender_id:
                continue
            clean = self.admission.admit(is_cube, lits)
            if clean is None or (is_cube, clean) in self._seen:
                continue
            self._seen.add((is_cube, clean))
            self.imported += 1
            yield is_cube, clean

    # -- the sender-side lift ----------------------------------------------

    def lift(self, is_cube: bool, lits: Sequence[int]) -> Optional[Tuple[int, ...]]:
        """Rephrase a locally learned constraint in the original space.

        Clause: weaken by the negated assumptions (``C ∪ ¬A``); a clause
        that mentions an assumption positively lifts to a tautology — on
        the incremental path assumption units participate in resolution —
        and is skipped. Cube: strengthen by the assumptions (``T ∪ A``);
        cube literals are a trail subset, so ``¬a`` can never appear.
        """
        if is_cube and not self.lift_cubes:
            return sanitize_lits(tuple(lits))
        merged = tuple(lits) + (self._assumed if is_cube else self._neg_assumed)
        return sanitize_lits(merged)

    def stats(self) -> dict:
        return {
            "exported": self.exported,
            "export_dropped": self.export_dropped,
            "imported": self.imported,
            "import_rejected": dict(self.admission.rejected),
        }
