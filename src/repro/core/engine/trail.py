"""The assignment/trail layer: the only mutable search state.

One :class:`Trail` holds everything the search mutates as it dives and
backtracks — variable values, decision levels, trail positions, implication
reasons, the literal stack itself, per-level bookkeeping and the propagation
queue head. Propagation backends and the search layer share one instance;
neither owns any other mutable search state (the backends' occurrence
counters are derived caches of this trail).

Two flat-array kernels live here:

* ``lit_val`` — a literal-indexed value array of size ``2 * num_slots``.
  ``lit_val[base + l]`` is ``1`` when literal ``l`` is true, ``-1`` when it
  is false and ``0`` when its variable is unassigned (``base == num_slots``,
  so negative literals index below ``base`` and positive ones above). The
  propagation backends probe literal truth with one index op instead of the
  ``raw[var] == (1 if l > 0 else -1)`` dance; ``value`` (variable-indexed)
  is maintained alongside for the model builders and the compat facade.
* the **branching frontier** — per-block counters that keep the set of
  available variables (unassigned, all ≺-predecessors assigned) current
  under :meth:`push`/:meth:`unassign`, so :meth:`available_vars` replaces
  the per-decision recursive quantifier-tree walk. ``block_unassigned[bi]``
  counts unassigned variables in block ``bi``; ``block_blockers[bi]`` counts
  the proper ancestors at a strictly lower alternation level that still hold
  an unassigned variable — a block's variables are available exactly when
  that count is zero. When a block's unassigned count transitions between 0
  and 1, the blocker counts of its strictly-deeper descendants (precomputed
  in :class:`repro.core.prefix.PrefixTables`) are adjusted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.core.literals import var_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.prefix import Prefix


class Trail:
    """Assignment stack with levels, positions and reasons.

    Attributes are deliberately public: the propagation backends read and
    write them directly in their hot loops. ``decision[lvl]`` is the
    ``(literal, flipped)`` pair that opened level ``lvl``;
    ``level_start[lvl]`` its first trail position. Level 0 is the root
    (slot literal 0, never a real decision).

    ``push`` is selected at construction time: the release path skips the
    double-assignment guard; ``paranoid=True`` (or ``REPRO_PARANOID=1`` via
    :class:`repro.core.engine.config.SolverConfig`) keeps it by making the
    trail a :class:`_CheckedTrail`. The choice is made by class, not by a
    bound method stored on the instance, so a trail holds no reference to
    itself and is freed, with everything its reasons reach, as soon as its
    engine is dropped.
    """

    __slots__ = (
        "num_slots",
        "value",
        "level",
        "pos",
        "reason",
        "lits",
        "queue_head",
        "level_start",
        "decision",
        "lit_val",
        "base",
        "block_index",
        "block_vars",
        "block_unassigned",
        "block_blockers",
        "_deeper_desc",
    )

    def __new__(cls, num_vars: int, prefix: Optional["Prefix"] = None, paranoid: bool = False):
        return object.__new__(_CheckedTrail if paranoid else cls)

    def __init__(
        self,
        num_vars: int,
        prefix: Optional["Prefix"] = None,
        paranoid: bool = False,
    ):
        self.num_slots = num_vars + 1
        self.value: List[int] = [0] * self.num_slots
        self.level: List[int] = [0] * self.num_slots
        self.pos: List[int] = [-1] * self.num_slots
        self.reason: List[object] = [None] * self.num_slots
        self.lits: List[int] = []
        self.queue_head = 0
        self.level_start: List[int] = [0]
        self.decision: List[Tuple[int, bool]] = [(0, False)]  # slot per level
        self.base = self.num_slots
        self.lit_val: List[int] = [0] * (2 * self.num_slots)
        if prefix is not None:
            tab = prefix.tables()
            self.block_index = tab.block_index
            self.block_vars = tab.block_vars
            self.block_unassigned: List[int] = [len(vs) for vs in tab.block_vars]
            self.block_blockers: List[int] = list(tab.init_blockers)
            self._deeper_desc = tab.deeper_descendants
        else:
            # No prefix: frontier queries are meaningless, but push/unassign
            # must still run. One dummy block whose unassigned count can
            # never reach zero keeps them branch-free.
            self.block_index = [0] * self.num_slots
            self.block_vars = ()
            self.block_unassigned = [self.num_slots + 1]
            self.block_blockers = [0]
            self._deeper_desc = ((),)

    @property
    def current_level(self) -> int:
        return len(self.level_start) - 1

    def lit_value(self, lit: int) -> Optional[bool]:
        raw = self.lit_val[self.base + lit]
        if raw == 0:
            return None
        return raw > 0

    def _push_fast(self, lit: int, reason: object) -> None:
        """Record ``lit`` as assigned at the current level; backends call
        this from ``assign`` and layer their bookkeeping around it."""
        v = lit if lit > 0 else -lit
        self.value[v] = 1 if lit > 0 else -1
        base = self.base
        lit_val = self.lit_val
        lit_val[base + lit] = 1
        lit_val[base - lit] = -1
        self.level[v] = len(self.level_start) - 1
        self.pos[v] = len(self.lits)
        self.reason[v] = reason
        self.lits.append(lit)
        bi = self.block_index[v]
        block_unassigned = self.block_unassigned
        n = block_unassigned[bi] - 1
        block_unassigned[bi] = n
        if n == 0:
            block_blockers = self.block_blockers
            for d in self._deeper_desc[bi]:
                block_blockers[d] -= 1

    def _push_checked(self, lit: int, reason: object) -> None:
        """Paranoid variant of push: guards against double assignment."""
        v = var_of(lit)
        if self.value[v] != 0:
            raise AssertionError("double assignment of %d" % v)
        self._push_fast(lit, reason)

    push = _push_fast

    def unassign(self, lit: int) -> int:
        """Clear one literal's assignment state (values, reason, frontier
        counters) and return its variable. Backends call this from their
        backtrack loops; occurrence-counter maintenance stays with the
        backend, and the caller still ends with :meth:`shrink`."""
        v = lit if lit > 0 else -lit
        self.value[v] = 0
        base = self.base
        lit_val = self.lit_val
        lit_val[base + lit] = 0
        lit_val[base - lit] = 0
        self.reason[v] = None
        bi = self.block_index[v]
        block_unassigned = self.block_unassigned
        n = block_unassigned[bi] + 1
        block_unassigned[bi] = n
        if n == 1:
            block_blockers = self.block_blockers
            for d in self._deeper_desc[bi]:
                block_blockers[d] += 1
        return v

    def available_vars(self) -> List[int]:
        """Unassigned variables whose ≺-predecessors are all assigned, in
        prefix DFS order — the same order the recursive tree walk
        (``SearchEngine._available_vars``) produces, maintained
        incrementally by :meth:`push`/:meth:`unassign`."""
        out: List[int] = []
        value = self.value
        block_blockers = self.block_blockers
        block_unassigned = self.block_unassigned
        for bi, vs in enumerate(self.block_vars):
            if block_unassigned[bi] and not block_blockers[bi]:
                for v in vs:
                    if value[v] == 0:
                        out.append(v)
        return out

    def open_level(self, lit: int, flipped: bool) -> None:
        """Start a new decision level about to be justified by ``lit``."""
        self.level_start.append(len(self.lits))
        self.decision.append((lit, flipped))

    def shrink(self, to_level: int, target: int) -> None:
        """Drop the trail suffix from position ``target`` and the levels
        above ``to_level``; the caller has already unassigned the values."""
        del self.lits[target:]
        del self.level_start[to_level + 1 :]
        del self.decision[to_level + 1 :]
        self.queue_head = len(self.lits)


class _CheckedTrail(Trail):
    """The paranoid trail: its ``push`` refuses a double assignment."""

    __slots__ = ()

    push = Trail._push_checked
