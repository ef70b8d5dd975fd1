"""Solver kernel: formulas, prefixes, propagation, learning, engines."""

from repro.core.constraints import (
    Clause,
    Constraint,
    Cube,
    existential_reduce,
    is_contradictory,
    resolve,
    unit_literal,
    universal_reduce,
)
from repro.core.expansion import evaluate
from repro.core.formula import QBF, paper_example
from repro.core.heuristics import ScoreKeeper, make_picker, pick_literal
from repro.core.literals import EXISTS, FORALL, Quant, neg, var_of
from repro.core.prefix import Block, Prefix
from repro.core.result import (
    BudgetExceeded,
    Outcome,
    SolveResult,
    SolverStats,
    UnknownOutcomeError,
)
from repro.core.simple import q_dll
from repro.core.solver import QdpllSolver, SolverConfig, solve

__all__ = [
    "Block",
    "BudgetExceeded",
    "Clause",
    "Constraint",
    "Cube",
    "EXISTS",
    "FORALL",
    "Outcome",
    "Prefix",
    "QBF",
    "QdpllSolver",
    "Quant",
    "ScoreKeeper",
    "SolveResult",
    "SolverConfig",
    "SolverStats",
    "UnknownOutcomeError",
    "evaluate",
    "existential_reduce",
    "is_contradictory",
    "neg",
    "paper_example",
    "make_picker",
    "pick_literal",
    "q_dll",
    "resolve",
    "solve",
    "unit_literal",
    "universal_reduce",
    "var_of",
]
