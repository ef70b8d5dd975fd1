"""The compiled propagation backend and its pure-Python fallback story.

:class:`NativeBackend` is the compiled :class:`~repro.core.engine.backend.
PropagationBackend`: the whole propagation fixpoint — the clause/cube
examine-and-dequeue loop, eager literal assignment and backtrack over the
literal-indexed value array, universal reduction's ``≺`` test over the flat
:class:`~repro.core.prefix.PrefixTables`, and the pure-literal rule — runs
inside one C call (:mod:`repro._native`, built optionally by ``setup.py``).

**Identity.** The kernel is a port of the eager *counter* scheme. It keeps
eager counters on learned cubes too, over full cube occurrence lists, where
the reference keeps its live-cube index; both skip exactly the cubes that
have a false literal, so the events stay identical: same events on the same
records in the same order, hence the same decisions, trail, learned
constraints and outcome.  The wrapper keeps the Python
:class:`~repro.core.engine.trail.Trail` authoritative for everything the
search layer reads (values, levels, positions, reasons, the branching
frontier): forwarded ``assign``/``backtrack`` calls update both sides, and
assignments made *inside* a native ``propagate()`` are replayed onto the
Python trail's lists by the kernel itself before the event is returned.
The replay refuses a variable the Python trail already holds, on every
run, with the ``AssertionError`` of the trail's checked push.  Only the
per-record bookkeeping (occurrence lists, satisfaction counters, the
pure-literal sidecar) lives exclusively in C — the Python ``Rec`` objects
remain as identity tokens for the search layer and the proof logger.

**Fallback.** When the extension is missing the backend cannot run.  The
engine-selection layer (:func:`repro.core.engine.search.resolve_backend`)
then degrades to the counter backend it ports — *loudly*: a
:class:`NativeFallbackWarning` is emitted and the run's
``SolverStats.engine_fallback`` records ``"counters"`` so benchmark rows and
evalx records can never silently change engines.  Set
``REPRO_REQUIRE_NATIVE=1`` (or ``SolverConfig(require_native=True)``) to
turn the fallback into a structured :class:`NativeUnavailableError`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.engine.backend import (
    CONFLICT,
    MODEL,
    PURE,
    SOLUTION,
    PropagationBackend,
    Rec,
)

try:  # the compiled kernel is optional by design
    # importlib rather than `from repro import _native`: the latter reports
    # a missing extension as a bogus "partially initialized module" error
    # when this module is first pulled in during the package's own init.
    import importlib

    _native = importlib.import_module("repro._native")
except ImportError as exc:  # pragma: no cover - depends on the build
    _native = None
    _IMPORT_ERROR: Optional[str] = str(exc)
else:
    _IMPORT_ERROR = None


class NativeFallbackWarning(RuntimeWarning):
    """``--engine native`` requested but the extension is unavailable."""


class NativeUnavailableError(RuntimeError):
    """The native kernel was *required* but cannot be imported.

    Carries ``reason`` (the import error) and renders actionable guidance:
    how to build the extension, and how to opt into the pure-Python
    fallback instead.
    """

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(
            "the native propagation kernel (repro._native) is unavailable: "
            "%s. Build it with `python setup.py build_ext --inplace` (or "
            "`pip install -e .` with a C compiler on PATH), pick another "
            "engine (--engine counters), or unset "
            "REPRO_REQUIRE_NATIVE / require_native to accept the "
            "pure-Python fallback." % reason
        )


def native_available() -> bool:
    """True when the compiled kernel imported successfully."""
    return _native is not None


def native_import_error() -> Optional[str]:
    """The import failure message, or None when the kernel is available."""
    return _IMPORT_ERROR


def kernel_version() -> Optional[int]:
    """The compiled kernel's version stamp, or None when unavailable."""
    return None if _native is None else int(_native.KERNEL_VERSION)


class NativeBackend(PropagationBackend):
    """Compiled eager-counter propagation behind the backend interface."""

    name = "native"

    def __init__(self, formula, prefix, config, stats, trail, keeper):
        if _native is None:
            # resolve_backend() normally routes around this; the guard keeps
            # direct construction (backend_override in tests) honest too.
            raise NativeUnavailableError(_IMPORT_ERROR or "unknown import error")
        self._core = None
        self._recs: list = []
        super().__init__(formula, prefix, config, stats, trail, keeper)
        tab = self._tab
        core = _native.NativeCore(
            num_slots=trail.num_slots,
            level=tab.level,
            is_exist=[1 if e else 0 for e in tab.is_exist],
            din=tab.din,
            dout=tab.dout,
            track_pure=1 if config.pure_literals else 0,
        )
        for rec in self.orig_clauses:
            rid = core.add_record(0, 1, 0, rec.lits, rec.prim, rec.sec)
            assert rid == len(self._recs)
            self._recs.append(rec)
        # The kernel owns the pure-literal candidates from here on.
        core.set_candidates(sorted(self.pure_candidates))
        self.pure_candidates = None  # type: ignore[assignment]
        self._core = core

    # -- install hooks ------------------------------------------------------

    def _install_clause(self, rec: Rec) -> None:
        # Matrix installation happens in bulk after the base constructor
        # (the kernel needs the prefix tables, which the base class builds);
        # orig_clauses already carries every record in installation order.
        pass

    def _install_learned_clause(self, rec: Rec) -> None:
        rid = self._core.add_record(0, 0, 1, rec.lits, rec.prim, rec.sec)
        assert rid == len(self._recs)
        self._recs.append(rec)

    def _install_learned_cube(self, rec: Rec) -> None:
        rid = self._core.add_record(1, 0, 1, rec.lits, rec.prim, rec.sec)
        assert rid == len(self._recs)
        self._recs.append(rec)

    # -- the backend interface ---------------------------------------------

    def assign(self, lit: int, reason: object) -> None:
        trail = self.trail
        trail.push(lit, reason)
        self._core.assign(lit)
        if len(trail.lits) > self.stats.max_trail:
            self.stats.max_trail = len(trail.lits)

    def backtrack(self, to_level: int) -> None:
        trail = self.trail
        target = trail.level_start[to_level + 1]
        self._core.backtrack(target)
        unassign = trail.unassign
        for lit in reversed(trail.lits[target:]):
            # candidate re-flagging happens inside the kernel's backtrack;
            # here only the Python trail state is unwound.
            unassign(lit)
        trail.shrink(to_level, target)

    def propagate(self) -> Optional[Tuple[str, object]]:
        trail = self.trail
        stats = self.stats
        recs = self._recs
        # The kernel replays its own push log onto the trail's lists (the C
        # twin of Trail._push_fast, refusing a double assignment as the
        # checked push does), so no per-literal Python code runs at all on
        # the propagation path.
        (
            event,
            rid,
            queue_head,
            max_trail,
            propagations,
            pure_literals,
            clause_visits,
            cube_visits,
        ) = self._core.propagate_into(
            trail.queue_head,
            trail.value,
            trail.lit_val,
            trail.level,
            trail.pos,
            trail.reason,
            trail.lits,
            trail.current_level,
            trail.block_index,
            trail.block_unassigned,
            trail.block_blockers,
            trail._deeper_desc,
            recs,
            PURE,
        )
        trail.queue_head = queue_head
        stats.propagations += propagations
        stats.pure_literals += pure_literals
        stats.clause_visits += clause_visits
        stats.cube_visits += cube_visits
        if max_trail > stats.max_trail:
            stats.max_trail = max_trail
        if event == 1:
            return (CONFLICT, recs[rid])
        if event == 2:
            return (SOLUTION, recs[rid])
        if event == 3:
            return (MODEL, None)
        return None

    def apply_pure_literals(self) -> bool:  # pragma: no cover - guard only
        raise RuntimeError(
            "the native backend applies the pure-literal rule inside the "
            "compiled propagate(); there is no standalone entry point"
        )

    # -- learning/branching fast paths --------------------------------------
    # Exact C ports of the analysis-layer hot functions, exposed through the
    # optional-acceleration slots the search layer wires up (see
    # PropagationBackend for the pure-Python defaults of the contract).

    def reduce_clause_fast(self, lits) -> Tuple[int, ...]:
        """:func:`~repro.core.constraints.universal_reduce`, in C."""
        return self._core.reduce(lits, 0)

    def reduce_cube_fast(self, lits) -> Tuple[int, ...]:
        """:func:`~repro.core.constraints.existential_reduce`, in C."""
        return self._core.reduce(lits, 1)

    def native_model_cube(self) -> Tuple[int, ...]:
        """:func:`~repro.core.learning.build_model_cube`, in C.

        The kernel already holds the original clauses, the assignment and
        the trail positions, so the whole once-per-solution matrix sweep
        runs without touching a Python object."""
        return self._core.build_model_cube()

    def accelerated_frontier_picker(self, policy: str, keeper, trail):
        """Fused frontier scan + ``levelsub`` ranking, one C call.

        Reads the trail's incremental frontier counters and the keeper's
        score arrays in place; no candidate list is built. Only the
        default ``levelsub`` ranking has a C port; the ablation policies
        keep the pure-Python fused picker (they never run in the perf
        lane). The keeper's lazily-recomputed subtree maxima stay in
        Python: the closure flushes the dirty flag before the C call."""
        if policy != "levelsub":
            return None
        pick_frontier = _native.pick_frontier_levelsub
        block_vars = trail.block_vars
        block_unassigned = trail.block_unassigned
        block_blockers = trail.block_blockers
        value = trail.value
        level = keeper._level
        score_pos = keeper.score_pos
        score_neg = keeper.score_neg
        child_max = keeper._child_max
        block_index = keeper._block_index

        def pick():
            if keeper._dirty:
                keeper._recompute()
            return pick_frontier(
                block_vars, block_unassigned, block_blockers, value,
                level, score_pos, score_neg, child_max, block_index,
            )

        return pick
