"""The diameter QBFs of Section VII-C: equations (14), (15) and (16).

For a model M with initial predicate I and transition relation T, and the
padded relation of equation (15)::

    T'(s, s') = (I(s) ∧ I(s')) ∨ T(s, s')

the formula φ_n of equation (14) is::

    ∃x_{n+1} ( ∃x_0 … x_n (I(x_0) ∧ ⋀_{i=0}^{n} T'(x_i, x_{i+1}))
             ∧ ∀y_0 … y_n ¬(I(y_0) ∧ ⋀_{i=0}^{n-1} T'(y_i, y_{i+1})
                            ∧ x_{n+1} ≡ y_n) )

φ_n is true exactly when n < d and false exactly when n ≥ d, where d is the
state-space diameter (max BFS distance from the initial states). The self
loop on initial states is what makes both paths "at most" rather than
"exactly" that long.

:func:`diameter_qbf` builds the QBF in two forms:

* ``tree`` — the natural non-prenex structure of (14): the x-path and the
  y-path are sibling subtrees under ∃x_{n+1} (QUBE(PO)'s input);
* ``prenex`` — equation (16), the ∃↑∀↑ prenexing with all x blocks before
  all y blocks (QUBE(TO)'s input).

Both share the same CNF conversion, with definition variables innermost —
matching the worked example in Section VII-C where the single CNF variable
``x`` ends up in the last block of prefixes (18) and (19).

:func:`sweep_bounds` runs the paper's outer loop: test φ_0, φ_1, … until
the first false formula, whose index is the diameter. :func:`compute_diameter`
runs it on these formulas; :mod:`repro.smv.incremental` on stable ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.formula import QBF
from repro.core.result import Outcome, SolveResult
from repro.core.solver import SolverConfig, solve
from repro.formulas.ast import And, Exists, Forall, Formula, Not, conj, disj
from repro.formulas.cnf import to_qbf
from repro.smv.models import SymbolicModel, equal_states

FORMS = ("tree", "prenex")


def t_prime(model: SymbolicModel, s: Sequence[int], t: Sequence[int]) -> Formula:
    """Equation (15): the transition relation padded with an initial self loop."""
    return disj((conj((model.init(s), model.init(t))), model.trans(s, t)))


def _state_blocks(model: SymbolicModel, count: int, start: int) -> Tuple[List[List[int]], int]:
    """Allocate ``count`` disjoint state-variable vectors from ``start``."""
    blocks = []
    nxt = start
    for _ in range(count):
        blocks.append(list(range(nxt, nxt + model.num_bits)))
        nxt += model.num_bits
    return blocks, nxt


def diameter_formula(model: SymbolicModel, n: int, form: str = "tree") -> Formula:
    """The φ_n AST in the requested form ("tree" = (14), "prenex" = (16))."""
    if form not in FORMS:
        raise ValueError("form must be one of %s" % (FORMS,))
    if n < 0:
        raise ValueError("n must be non-negative")
    xs, nxt = _state_blocks(model, n + 2, 1)  # x_0 .. x_{n+1}
    ys, _ = _state_blocks(model, n + 1, nxt)  # y_0 .. y_n
    x_last = xs[n + 1]
    forward = conj(
        [model.init(xs[0])] + [t_prime(model, xs[i], xs[i + 1]) for i in range(n + 1)]
    )
    y_path = conj(
        [model.init(ys[0])]
        + [t_prime(model, ys[i], ys[i + 1]) for i in range(n)]
        + [equal_states(x_last, ys[n])]
    )
    x_inner = [v for block in xs[: n + 1] for v in block]
    y_all = [v for block in ys for v in block]
    if form == "tree":
        return Exists(
            x_last,
            And(
                (
                    Exists(x_inner, forward),
                    Forall(y_all, Not(y_path)),
                )
            ),
        )
    # Equation (16): all existentials first, then all universals.
    return Exists(x_last + x_inner, Forall(y_all, And((forward, Not(y_path)))))


def diameter_qbf(model: SymbolicModel, n: int, form: str = "tree") -> QBF:
    """φ_n as a ⟨prefix, CNF⟩ QBF, non-prenex ("tree") or prenex ("prenex")."""
    phi = to_qbf(diameter_formula(model, n, form))
    if form == "prenex" and not phi.is_prenex:
        raise AssertionError("equation (16) conversion should be prenex")
    return phi


#: the longest bound a sweep tests; every model here has a far smaller diameter.
MAX_BOUND = 64


@dataclass
class DiameterRun:
    """Outcome of one diameter sweep (:func:`sweep_bounds`)."""

    model_name: str
    diameter: Optional[int]
    #: per-n solver results, n = 0 .. (last tested).
    results: List[SolveResult] = field(default_factory=list)

    @property
    def total_decisions(self) -> int:
        return sum(r.stats.decisions for r in self.results)

    @property
    def timed_out(self) -> bool:
        return self.diameter is None


def sweep_bounds(run: DiameterRun, solve_bound: Callable[[int], SolveResult]) -> DiameterRun:
    """The Section VII-C loop: the diameter is the first n with φ_n false.

    ``solve_bound(n)`` solves φ_n; every result is appended to ``run``. A
    budget exhaustion (UNKNOWN) at any n ends the sweep with
    ``diameter=None`` — the reproduction's "timeout" outcome.
    """
    for n in range(MAX_BOUND + 1):
        result = solve_bound(n)
        run.results.append(result)
        if result.outcome is Outcome.FALSE:
            run.diameter = n
        if result.outcome is not Outcome.TRUE:
            break
    return run


def compute_diameter(
    model: SymbolicModel, form: str = "tree", config: Optional[SolverConfig] = None
) -> DiameterRun:
    """The sweep on :func:`diameter_qbf`'s φ_n in ``form``, one solve per bound."""
    return sweep_bounds(DiameterRun(model.name, None),
                        lambda n: solve(diameter_qbf(model, n, form), config))
