"""Engine configuration: feature switches plus propagation-backend choice.

``SolverConfig`` historically lived in :mod:`repro.core.solver`; it moved
here when the monolithic solver was split into layers, because both the
search layer and the propagation backends consume it. The old import path
re-exports it, so existing code and serialized configs keep working.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.core.heuristics import POLICIES

#: retired backend names still accepted, and the backend each now runs.
#: "watched" (a pure-Python watched-literal scheme) was decision-identical
#: to "counters" and no faster, so old command lines, REPRO_ENGINE settings
#: and evalx resume keys that name it keep working on "counters".
ENGINE_ALIASES = {"watched": "counters"}

#: the engine names a config accepts. "counters" is the eager
#: occurrence-counter scheme; "native" runs the same scheme inside the
#: compiled kernel (repro._native) when the optional extension is built,
#: degrading loudly to "counters" when it is not (see
#: repro.core.engine.native). The two are decision-for-decision identical —
#: see repro.core.engine.backend for the contract.
ENGINES = ("counters", "native") + tuple(ENGINE_ALIASES)

def default_engine() -> str:
    """Backend default: the REPRO_ENGINE environment knob, else counters.

    The environment hook exists so a whole test suite or benchmark run can
    be flipped onto another backend without touching call sites (the CI
    native-kernel job runs the suite with ``REPRO_ENGINE=native``). Recorded
    sweeps should pass ``engine=...`` explicitly instead, so the choice
    lands in the task fingerprint.
    """
    return os.environ.get("REPRO_ENGINE", "counters")


def default_require_native() -> bool:
    """Strict-native default: the REPRO_REQUIRE_NATIVE environment knob.

    When truthy (anything but empty/``0``), requesting ``engine="native"``
    on a machine where the compiled kernel is unavailable raises a
    structured :class:`repro.core.engine.native.NativeUnavailableError`
    instead of falling back to the counter backend. Off by default: the
    fallback is loud (warning + ``SolverStats.engine_fallback``), never
    silent, so degrading is safe for interactive use while CI perf legs
    can insist on the real kernel.
    """
    return os.environ.get("REPRO_REQUIRE_NATIVE", "") not in ("", "0")


def default_paranoid() -> bool:
    """Debug-assertion default: the REPRO_PARANOID environment knob.

    When truthy (anything but empty/``0``), two invariant checks stay
    active: the trail's checked push, which refuses a double assignment,
    and the counter backend's check that a learned cube revived on
    backtrack has no false literal. Off by default: both sit on hot loops
    and only ever fire on engine bugs, never on user input. The native
    kernel's replay onto the trail refuses a double assignment on every
    run, paranoid or not.
    """
    return os.environ.get("REPRO_PARANOID", "") not in ("", "0")


@dataclass
class SolverConfig:
    """Feature switches of one engine instance.

    The defaults model the full QUBE(PO); the ablation benchmarks toggle the
    individual switches.
    """

    #: branching policy: "levelsub" (prefix position first, then the
    #: Section VI subtree score — the reproduction's QUBE(PO) default),
    #: "subtree" (the pure Section VI score formula), "counter" (plain
    #: VSIDS-like, tree-blind ranking), or "naive" (lowest id).
    policy: str = "levelsub"
    learn_clauses: bool = True
    learn_cubes: bool = True
    pure_literals: bool = True
    max_decisions: Optional[int] = None
    max_seconds: Optional[float] = None
    #: propagation backend (see ENGINES). Purely an implementation choice:
    #: every backend must produce the same decisions, trail and outcome.
    #: An alias (see ENGINE_ALIASES) is replaced by its backend on
    #: construction, so the config reports the engine that actually runs.
    engine: str = field(default_factory=default_engine)
    #: refuse to run when ``engine="native"`` is requested but the compiled
    #: kernel is unavailable, instead of degrading to the counter backend.
    #: Selection-policy only — never changes decisions, like `engine` and
    #: `paranoid`.
    require_native: bool = field(default_factory=default_require_native)
    #: keep two hot-path invariant checks active: the trail's checked push
    #: (no double assignment) and the counter backend's cube revival check.
    #: Diagnostic only — never changes decisions, like `engine`.
    paranoid: bool = field(default_factory=default_paranoid)

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError("unknown policy %r" % (self.policy,))
        if self.engine not in ENGINES:
            raise ValueError("unknown engine %r (choose from %s)" % (self.engine, ENGINES))
        self.engine = ENGINE_ALIASES.get(self.engine, self.engine)
