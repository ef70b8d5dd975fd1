"""The incremental solving API: reloads with learned-constraint retention.

An :class:`IncrementalSolver` holds one formula at a time (:meth:`load`).
Each :meth:`solve` runs a fresh engine over the loaded formula, seeded with
every previously learned clause/cube that is still sound for it.

Retention rule
--------------

A learned constraint is a resolution consequence of its *axiom closure*
(:mod:`repro.incremental.provenance`): reduced input clauses for learned
clauses, initial (model) cubes for learned cubes. It is retained for the
next loaded formula iff its derivation would replay there verbatim:

* every variable of the closure (and of the constraint itself) is still
  bound, with the same quantifier;
* the prefix order ``≺`` agrees with the old prefix on every pair of those
  variables, in both directions — reduction legality and resolution
  soundness depend only on that pairwise relation;
* every input-clause leaf is (still) a reduced clause of the new matrix;
* every initial-cube leaf still satisfies every clause of the new matrix
  (i.e. remains an implicant).

Assumptions need no API of their own: assuming ``l`` is a reload with the
unit clause ``(l,)`` added, and retracting it a reload without it.
Constraints derived *from* the unit clause carry it as a closure leaf, so
they are dropped the moment a reload removes it.

Because the leaves pin the whole derivation, the quantifier-prefix
compatibility demanded by the retention contract ("a learned constraint
survives only if its literals' prefix positions are unchanged") is checked
over the closure, not just the constraint's own literals — strictly
stronger, and what soundness actually requires.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.certify import MemorySink, ProofLogger, certifying_config, check_certificate
from repro.core.constraints import universal_reduce
from repro.core.formula import QBF
from repro.core.result import SolveResult
from repro.core.solver import QdpllSolver, SolverConfig
from repro.incremental.provenance import (
    CLAUSE_LEAF,
    ClosureSink,
    Retained,
)


class _PrefixCompat:
    """Memoized old-vs-new prefix agreement over variables and pairs."""

    def __init__(self, old_prefix, new_prefix):
        self._old = old_prefix
        self._new = new_prefix
        self._new_vars: Set[int] = set(new_prefix.variables)
        self._var_ok: Dict[int, bool] = {}
        self._pair_ok: Dict[Tuple[int, int], bool] = {}

    def var_ok(self, v: int) -> bool:
        out = self._var_ok.get(v)
        if out is None:
            out = v in self._new_vars and self._new.quant(v) is self._old.quant(v)
            self._var_ok[v] = out
        return out

    def pair_ok(self, a: int, b: int) -> bool:
        if a > b:
            a, b = b, a
        out = self._pair_ok.get((a, b))
        if out is None:
            out = self._new.prec(a, b) == self._old.prec(a, b) and self._new.prec(
                b, a
            ) == self._old.prec(b, a)
            self._pair_ok[(a, b)] = out
        return out

    def constraint_ok(self, variables: Sequence[int]) -> bool:
        if not all(self.var_ok(v) for v in variables):
            return False
        return all(self.pair_ok(a, b) for a, b in itertools.combinations(variables, 2))


class IncrementalSolver:
    """Solve a sequence of related QBFs, retaining sound learned constraints.

    ``certify=True`` runs every solve through :func:`repro.certify.
    certifying_config` with an in-memory certificate (see
    :meth:`check_last_certificate`). Certificates stay honest: retained
    constraints are *not* re-axiomatized in the new proof, so any analysis
    that touches one marks the certificate incomplete rather than fabricate
    a derivation — and such constraints lose their provenance and drop out
    of the retained set, the conservative direction.
    """

    def __init__(self, config: Optional[SolverConfig] = None, certify: bool = False):
        self.config = config or SolverConfig()
        self.certify = certify
        self._formula: Optional[QBF] = None
        self._retained: List[Retained] = []
        self._last_prefix = None
        #: solves over the solver's lifetime.
        self.solves = 0
        #: constraints injected into the most recent solve.
        self.last_retained_clauses = 0
        self.last_retained_cubes = 0
        self.last_certificate: Optional[MemorySink] = None
        self._last_formula: Optional[QBF] = None

    # -- the formula -------------------------------------------------------

    def load(self, formula: QBF) -> None:
        """Set (or replace) the formula; the retained database is kept
        and re-validated against the new formula at the next solve."""
        self._formula = formula

    # -- retention ---------------------------------------------------------

    def _survivors(self, formula: QBF) -> List[Retained]:
        if not self._retained or self._last_prefix is None:
            return []
        prefix = formula.prefix
        reduced = [universal_reduce(c.lits, prefix) for c in formula.clauses]
        reduced_set = set(reduced)
        clause_sets = [frozenset(lits) for lits in reduced]
        compat = _PrefixCompat(self._last_prefix, prefix)
        implicant_cache: Dict[Tuple[int, ...], bool] = {}

        def cube_leaf_ok(lits: Tuple[int, ...]) -> bool:
            out = implicant_cache.get(lits)
            if out is None:
                model = frozenset(lits)
                out = all(not model.isdisjoint(c) for c in clause_sets)
                implicant_cache[lits] = out
            return out

        survivors: List[Retained] = []
        for r in self._retained:
            if not r.lits:
                continue
            involved = {abs(l) for l in r.lits}
            for _, leaf_lits in r.leaves:
                involved.update(abs(l) for l in leaf_lits)
            if not compat.constraint_ok(sorted(involved)):
                continue
            ok = True
            for tag, leaf_lits in r.leaves:
                if tag == CLAUSE_LEAF:
                    ok = leaf_lits in reduced_set
                else:
                    ok = cube_leaf_ok(leaf_lits)
                if not ok:
                    break
            if ok:
                survivors.append(r)
        return survivors

    def _harvest(
        self, engine: QdpllSolver, logger: ProofLogger, sink: ClosureSink
    ) -> List[Retained]:
        previous = {(r.is_cube, r.lits): r for r in self._retained}
        out: List[Retained] = []
        for is_cube, table in (
            (False, engine.backend.learned_clauses),
            (True, engine.backend.learned_cubes),
        ):
            for lits in table:
                leaves = sink.lookup(logger.lookup(is_cube, lits))
                if leaves is not None:
                    out.append(Retained(is_cube, lits, leaves))
                else:
                    # No provenance on record (certifying mode re-injection,
                    # or a poisoned trace): keep the previous entry if this
                    # constraint had one — it was re-validated this solve.
                    old = previous.get((is_cube, lits))
                    if old is not None:
                        out.append(old)
        return out

    # -- solving -----------------------------------------------------------

    def solve(self, interrupt: Optional[object] = None) -> SolveResult:
        """Solve the loaded formula, reusing what can be reused."""
        formula = self._formula
        if formula is None:
            raise ValueError("no formula loaded")
        inner = MemorySink() if self.certify else None
        sink = ClosureSink(inner)
        logger = ProofLogger(sink)
        config = certifying_config(self.config) if self.certify else self.config
        engine = QdpllSolver(formula, config, proof=logger, interrupt=interrupt)

        survivors = self._survivors(formula)
        clauses = cubes = 0
        pre_bound = -1
        for r in survivors:
            if r.is_cube:
                engine.backend.add_learned_cube(r.lits)
                cubes += 1
            else:
                engine.backend.add_learned_clause(r.lits)
                clauses += 1
            if not self.certify:
                # Negative ids never collide with the logger's own sequence;
                # pre-binding lets new derivations chain through retained
                # constraints with their closures intact.
                logger.bind(r.is_cube, r.lits, pre_bound)
                sink.preset(pre_bound, r.leaves)
                pre_bound -= 1
        self.last_retained_clauses = clauses
        self.last_retained_cubes = cubes
        # Make sure the survivors stay retained even if this solve never
        # re-derives them (harvest falls back to these entries by literals).
        self._retained = survivors

        result = engine.solve()

        self._retained = self._harvest(engine, logger, sink)
        self._last_prefix = formula.prefix
        self._last_formula = formula
        self.last_certificate = inner
        self.solves += 1
        return result

    def check_last_certificate(self):
        """Independently check the last solve's certificate (certify mode)."""
        if not self.certify or self.last_certificate is None:
            raise ValueError("no certificate: construct with certify=True and solve")
        return check_certificate(self._last_formula, self.last_certificate)
