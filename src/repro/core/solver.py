"""The iterative QDPLL engine — QUBE(TO)/QUBE(PO) on a common kernel.

This is the production counterpart of :mod:`repro.core.simple`: a trail-based
search procedure with

* assignment-aware generalizations of Lemmas 4 and 5 (conflict detection and
  unit propagation under a partial-order prefix),
* dual propagation over learned cubes (goods),
* pure-literal fixing (Section III, with the conservative learned-cube guard
  discussed in [24]),
* nogood/good learning with backjumping (:mod:`repro.core.learning`), and
* the Section VI branching heuristics (:mod:`repro.core.heuristics`).

The QUBE(TO) behaviour of the paper is obtained by feeding the engine a
*prenex* formula (the prefix itself then enforces the total order: only the
outermost unfinished block is ever branchable); QUBE(PO) is the same engine
on the original quantifier tree. This mirrors the paper's observation that
the only structural changes needed are the branching score and the O(1)
``d``/``f`` order test — both of which degenerate gracefully on total
orders.

Since the layering refactor the engine itself lives in
:mod:`repro.core.engine`: the trail, the search layer, and two
interchangeable propagation backends (``counters``, the eager Python
scheme, and ``native``, its compiled port — selected by
``SolverConfig.engine``). This module is the stable façade: it re-exports
:class:`SolverConfig` from its historical import path and names the search
engine :class:`QdpllSolver`.

Cost accounting uses *decisions* as the primary platform-independent metric;
wall-clock is also recorded. A run that exhausts its decision or time budget
reports ``Outcome.UNKNOWN`` — the reproduction's analogue of the paper's
600-second timeouts.
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine.config import ENGINES, SolverConfig, default_engine
from repro.core.engine.search import BACKENDS, SearchEngine
from repro.core.formula import QBF
from repro.core.result import SolveResult

__all__ = [
    "BACKENDS",
    "ENGINES",
    "QdpllSolver",
    "SolverConfig",
    "default_engine",
    "solve",
]


#: the public name of the assembled layered engine.
QdpllSolver = SearchEngine


def solve(
    formula: QBF,
    config: Optional[SolverConfig] = None,
    proof: Optional[object] = None,
    interrupt: Optional[object] = None,
) -> SolveResult:
    """Solve ``formula`` with a fresh engine; see :class:`SolverConfig`.

    ``interrupt`` is the engine's preemption hook (see
    :mod:`repro.robustness.interrupt`).
    """
    return QdpllSolver(formula, config, proof=proof, interrupt=interrupt).solve()
