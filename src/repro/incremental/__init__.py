"""Incremental QBF solving: learned-constraint retention across reloads.

The SMV sweeps of Section VII-C re-solve closely related formulas — φ_n and
φ_{n+1} differ only in the bound — yet a one-shot :func:`repro.core.solver.
solve` discards everything between calls. :class:`IncrementalSolver` keeps a
learned clause/cube database alive across solves and re-installs the subset
that remains *sound* for the next formula, following the clause/term
resolution semantics of Giunchiglia, Narizzano & Tacchella: a learned
constraint is a resolution consequence of its axiom leaves, so it may be
retained exactly when those leaves still exist and the quantifier prefix
still orders the derivation's variables the same way.
"""

from repro.incremental.provenance import ClosureSink, Retained
from repro.incremental.solver import IncrementalSolver

__all__ = ["ClosureSink", "IncrementalSolver", "Retained"]
