"""The layered QDPLL engine.

Three layers, each behind an explicit seam:

* :mod:`~repro.core.engine.trail` — the assignment/trail layer, the only
  mutable search state;
* :mod:`~repro.core.engine.backend` + the two implementations
  (:mod:`~repro.core.engine.counters`, the Python reference, and
  :mod:`~repro.core.engine.native`, its C port) — the propagation backends,
  decision-for-decision interchangeable;
* :mod:`~repro.core.engine.search` — decide/backjump/learn over the
  backend interface.

:class:`SearchEngine` is also exported as :class:`repro.core.solver.QdpllSolver`.
"""

from repro.core.engine.backend import (
    CONFLICT,
    MODEL,
    PURE,
    SOLUTION,
    PropagationBackend,
    Rec,
)
from repro.core.engine.config import ENGINES, SolverConfig, default_engine
from repro.core.engine.counters import CounterBackend
from repro.core.engine.search import BACKENDS, SearchEngine
from repro.core.engine.trail import Trail

__all__ = [
    "BACKENDS",
    "CONFLICT",
    "CounterBackend",
    "ENGINES",
    "MODEL",
    "PURE",
    "PropagationBackend",
    "Rec",
    "SOLUTION",
    "SearchEngine",
    "SolverConfig",
    "Trail",
    "default_engine",
]
