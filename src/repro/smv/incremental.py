"""A variable-stable φ_n encoder: the incremental client's entry point.

:func:`repro.smv.diameter.diameter_qbf` renumbers every state variable when
the bound grows (the y-copies are allocated after the x-copies, which shift
with n), so nothing learned about φ_n survives into φ_{n+1} — the retention
check of :mod:`repro.incremental` correctly transfers zero constraints.

:class:`DiameterFamily` fixes the frame of reference: one persistent
allocator assigns each semantic object — state copy ``x_i``/``y_i``, CNF
group, definition variable — an id *once*, on first use, and every later
bound reuses it. The matrix of φ_n then decomposes into labelled clause
groups::

    init-x          I(x_0)                    asserted positively
    fwd i           T'(x_i, x_{i+1})          asserted positively
    neg-init-y      g → ¬I(y_0)               one literal g per group
    neg-t-y i       g → ¬T'(y_i, y_{i+1})
    neg-eq n        g → ¬(x_{n+1} ≡ y_n)
    top n           (g_init ∨ g_t0 ∨ … ∨ g_eq)

of which only ``neg-eq n`` and the top clause change between bounds: φ_n
and φ_{n+1} share their entire path core, so clauses learned from it pass
the closure-based retention check and transfer. The prenex shape is
equation (16): ∃(all x) ∀(all y) ∃(definitions), definitions innermost as
in the paper's Section VII-C worked example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.formula import QBF
from repro.core.literals import EXISTS, FORALL
from repro.core.result import SolveResult
from repro.core.solver import SolverConfig, solve
from repro.formulas.ast import Formula, Not, nnf
from repro.formulas.cnf import _Clausifier
from repro.incremental import IncrementalSolver
from repro.smv.diameter import DiameterRun, sweep_bounds, t_prime
from repro.smv.models import SymbolicModel, equal_states

#: a group label: ("init-x",), ("fwd", i), ("neg-t-y", i), ("neg-eq", n), …
Label = Tuple[object, ...]


class DiameterFamily:
    """Generates φ_0, φ_1, … for one model with stable variable ids."""

    def __init__(self, model: SymbolicModel):
        self.model = model
        self._next = 1
        self._state: Dict[Tuple[str, int], List[int]] = {}
        #: label -> (clauses, definition vars) for positively asserted groups
        self._pos: Dict[Label, Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]] = {}
        #: label -> (clauses, definition vars, group literal) for negated groups
        self._neg: Dict[
            Label, Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...], Optional[int]]
        ] = {}

    # the persistent allocator; doubles as the _Clausifier's alloc object.
    def fresh(self) -> int:
        v = self._next
        self._next += 1
        return v

    def state_vars(self, kind: str, i: int) -> List[int]:
        """The id vector of state copy ``kind_i`` (allocated on first use)."""
        key = (kind, i)
        if key not in self._state:
            self._state[key] = [self.fresh() for _ in range(self.model.num_bits)]
        return self._state[key]

    def _pos_group(self, label: Label, build: Callable[[], Formula]):
        if label not in self._pos:
            cl = _Clausifier(self)
            aux = cl.assert_true(nnf(build()))
            self._pos[label] = (tuple(cl.clauses), tuple(aux))
        return self._pos[label]

    def _neg_group(self, label: Label, build: Callable[[], Formula]):
        if label not in self._neg:
            cl = _Clausifier(self)
            aux: List[int] = []
            lit = cl._encode(nnf(Not(build())), aux)
            self._neg[label] = (tuple(cl.clauses), tuple(aux), lit)
        return self._neg[label]

    def formula(self, n: int) -> QBF:
        """φ_n in prenex (equation (16)) form over the family's stable ids."""
        if n < 0:
            raise ValueError("n must be non-negative")
        m = self.model
        xs = [self.state_vars("x", i) for i in range(n + 2)]
        ys = [self.state_vars("y", i) for i in range(n + 1)]
        clauses: List[Tuple[int, ...]] = []
        defs: List[int] = []

        positive: List[Tuple[Label, Callable[[], Formula]]] = [
            (("init-x",), lambda: m.init(xs[0]))
        ]
        for i in range(n + 1):
            positive.append(
                (("fwd", i), (lambda i=i: t_prime(m, xs[i], xs[i + 1])))
            )
        for label, build in positive:
            group_clauses, aux = self._pos_group(label, build)
            clauses.extend(group_clauses)
            defs.extend(aux)

        negated: List[Tuple[Label, Callable[[], Formula]]] = [
            (("neg-init-y",), lambda: m.init(ys[0]))
        ]
        for i in range(n):
            negated.append(
                (("neg-t-y", i), (lambda i=i: t_prime(m, ys[i], ys[i + 1])))
            )
        negated.append((("neg-eq", n), lambda: equal_states(xs[n + 1], ys[n])))
        top: List[int] = []
        for label, build in negated:
            group_clauses, aux, lit = self._neg_group(label, build)
            clauses.extend(group_clauses)
            defs.extend(aux)
            if lit is not None:
                top.append(lit)
        clauses.append(tuple(top))

        x_all = [v for block in xs for v in block]
        y_all = [v for block in ys for v in block]
        blocks = [(EXISTS, x_all), (FORALL, y_all)]
        if defs:
            blocks.append((EXISTS, sorted(set(defs))))
        return QBF.prenex(blocks, clauses)


@dataclass
class IncrementalDiameterRun(DiameterRun):
    """A :class:`DiameterRun` plus per-bound retention counters."""

    #: constraints transferred into the solve of each tested bound.
    retained_per_bound: List[int] = field(default_factory=list)


def incremental_diameter(
    model: SymbolicModel,
    config: Optional[SolverConfig] = None,
    certify: bool = False,
) -> IncrementalDiameterRun:
    """The Section VII-C loop on one persistent :class:`IncrementalSolver`.

    Each bound's φ_n is loaded into the same solver, so every learned
    constraint that passes the retention check carries to the next bound.
    The serve daemon's family workers keep such a solver per model across
    requests instead of running this loop.
    """
    fam = DiameterFamily(model)
    inc = IncrementalSolver(config, certify=certify)
    run = IncrementalDiameterRun(model.name, None)

    def solve_bound(n: int) -> SolveResult:
        inc.load(fam.formula(n))
        result = inc.solve()
        run.retained_per_bound.append(inc.last_retained_clauses + inc.last_retained_cubes)
        return result

    return sweep_bounds(run, solve_bound)


def scratch_diameter(
    model: SymbolicModel, config: Optional[SolverConfig] = None
) -> DiameterRun:
    """The same sweep on the same stable formulas, one fresh solve per bound.

    This is the apples-to-apples baseline for the incremental sweep: the
    formulas are bit-identical, only the retention is missing."""
    fam = DiameterFamily(model)
    return sweep_bounds(DiameterRun(model.name, None), lambda n: solve(fam.formula(n), config))
