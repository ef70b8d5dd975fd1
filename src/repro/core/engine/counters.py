"""The eager occurrence-counter propagation backend (the reference).

This is the original QUBE-style scheme behind the backend interface: each
record keeps the one live counter the engine reads — ``n_true`` on clauses,
``n_false`` on cubes — updated by walking the two occurrence lists that move
them at assignment time and reversed symmetrically at backtrack time.
Propagation dequeues a trail literal and examines every clause in which it
occurs negatively (skipping satisfied ones via ``n_true``) and every live
learned cube in which it occurs positively (skipping dead ones via
``n_false``).

The scheme is simple and its counters double as the pure-literal index. It
is the semantic reference that defines the equivalence contract (see
:mod:`repro.core.engine.backend`); :mod:`repro.core.engine.native` runs the
same scheme in C.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.engine.backend import MODEL, PropagationBackend, Rec


class CounterBackend(PropagationBackend):
    """Eager counters over full occurrence lists."""

    name = "counters"

    def _install_clause(self, rec: Rec) -> None:
        for lit in rec.lits:
            self.clause_occ[lit].append(rec)
            self.occ_unsat[lit] += 1

    def assign(self, lit: int, reason: object) -> None:
        trail = self.trail
        trail.push(lit, reason)
        # Counters are maintained eagerly (at assignment, not at dequeue) so
        # that backtrack can reverse them uniformly even when the
        # propagation queue still holds unprocessed literals. A clause that
        # turns satisfied leaves the pure-literal index: each of its
        # literals loses an unsatisfied occurrence, and a literal left with
        # none makes its variable a purity candidate.
        occ_unsat = self.occ_unsat
        candidate = self.pure_candidates.add
        for rec in self.clause_occ[lit]:
            n = rec.n_true + 1
            rec.n_true = n
            if n == 1:
                if rec.original:
                    self.n_unsat_orig -= 1
                for l in rec.lits:
                    k = occ_unsat[l] - 1
                    occ_unsat[l] = k
                    if not k:
                        candidate(l if l > 0 else -l)
        for rec in self.cube_occ[-lit]:
            rec.n_false += 1
        if len(trail.lits) > self.stats.max_trail:
            self.stats.max_trail = len(trail.lits)

    def backtrack(self, to_level: int) -> None:
        trail = self.trail
        target = trail.level_start[to_level + 1]
        unassign = trail.unassign
        clause_occ = self.clause_occ
        cube_occ = self.cube_occ
        occ_unsat = self.occ_unsat
        candidate = self.pure_candidates.add
        for lit in reversed(trail.lits[target:]):
            # A variable that becomes unassigned may be pure in the restored
            # state (its candidacy was consumed further down this branch,
            # possibly while it was assigned and hence skipped by
            # apply_pure_literals). Purity only has to be re-examined for
            # exactly these variables: for a variable that stayed unassigned
            # through the dive, failing the purity test deeper implies
            # failing it in every ancestor state, since unassigning can only
            # add unsatisfied occurrences and revive learned cubes.
            candidate(unassign(lit))
            for rec in clause_occ[lit]:
                n = rec.n_true - 1
                rec.n_true = n
                if not n:
                    # the clause is unsatisfied again: its literals regain
                    # an unsatisfied occurrence
                    if rec.original:
                        self.n_unsat_orig += 1
                    for l in rec.lits:
                        occ_unsat[l] += 1
            for rec in cube_occ[-lit]:
                rec.n_false -= 1
        trail.shrink(to_level, target)

    def propagate(self) -> Optional[Tuple[str, object]]:
        """Run propagation + pure literals to fixpoint.

        Returns None (keep searching), a conflict, a solution triggered by a
        learned cube, or a *model* (every matrix clause satisfied).
        """
        trail = self.trail
        examine = self._examine
        lits = trail.lits  # stable alias: push appends / shrink dels in place
        clause_occ = self.clause_occ
        cube_occ = self.cube_occ
        while True:
            while trail.queue_head < len(lits):
                lit = lits[trail.queue_head]
                trail.queue_head += 1
                for rec in clause_occ[-lit]:
                    if rec.n_true == 0:
                        event = examine(rec, False)
                        if event is not None:
                            return event
                for rec in cube_occ[lit]:
                    if rec.n_false == 0:
                        event = examine(rec, True)
                        if event is not None:
                            return event
            if self.n_unsat_orig == 0:
                return (MODEL, None)
            if self.config.pure_literals and self.apply_pure_literals():
                continue
            return None

    def _install_learned_clause(self, rec: Rec) -> None:
        lit_val = self.trail.lit_val
        base = self.trail.base
        sat = False
        for lit in rec.lits:
            self.clause_occ[lit].append(rec)
            if lit_val[base + lit] == 1:
                rec.n_true += 1
                sat = True
        if not sat:
            for lit in rec.lits:
                self.occ_unsat[lit] += 1

    def _install_learned_cube(self, rec: Rec) -> None:
        lit_val = self.trail.lit_val
        base = self.trail.base
        for lit in rec.lits:
            self.cube_occ[lit].append(rec)
            if lit_val[base + lit] == -1:
                rec.n_false += 1
