"""The occurrence-counter propagation backend (the reference).

This is the original QUBE-style scheme behind the backend interface. Clauses
keep an eager ``n_true`` counter, updated by walking the literal's clause
occurrence list at assignment time and reversed at backtrack time; the walk
also records each clause's *first satisfier* (``Rec.first``), the literal
that took ``n_true`` from 0 to 1. Propagation dequeues a trail literal and
examines every clause in which it occurs negatively, skipping satisfied ones
via ``n_true``.

Learned cubes live in a *live-cube index* instead of full occurrence lists:
``live[l]`` holds, in install order, the ids of the live learned cubes that
contain ``l`` (a cube is live while it has no false literal). Assigning
``lit`` kills every cube in ``live[-lit]``, since ``-lit`` is then that
cube's first false literal: the cube leaves its other literals' lists and is
filed under ``killed[lit]``. Backtracking undoes assignments last-in-first-
out, so by the time ``lit`` is unassigned every later false literal of those
cubes is already unassigned too, and they are revived at once. Propagation
of ``lit`` examines a snapshot of ``live[lit]``, re-checking each cube's
``dead`` flag, so a unit assigned mid-scan still hides the cubes it kills —
the eager semantics the equivalence contract requires.

The counters and the index double as the pure-literal rule's inputs. This
backend is the semantic reference that defines the equivalence contract
(see :mod:`repro.core.engine.backend`); :mod:`repro.core.engine.native`
runs the same events in C, with eager cube counters.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional, Tuple

from repro.core.engine.backend import MODEL, PURE, PropagationBackend, Rec


class CounterBackend(PropagationBackend):
    """Eager clause counters and a live-learned-cube index."""

    name = "counters"

    def __init__(self, formula, prefix, config, stats, trail, keeper):
        #: literal -> install ids of the live learned cubes containing it,
        #: ascending (install order).
        self.live: Dict[int, List[int]] = {}
        #: literal -> one int object equal to it. ``assign`` files this
        #: object as a clause's first satisfier, so the model cubes built
        #: from first satisfiers, and the learned cubes and proof steps
        #: derived from them, share one object per literal rather than
        #: each keeping the int the caller of ``assign`` happened to build.
        self._canon: Dict[int, int] = {}
        for v in prefix.variables:
            for lit in (v, -v):
                self.live[lit] = []
                self._canon[lit] = lit
        #: assigned literal -> ids of the cubes whose first false literal is
        #: its negation; they revive when the literal is unassigned. Only
        #: literals that killed a cube have an entry.
        self.killed: Dict[int, List[int]] = {}
        #: install id -> learned cube record.
        self.cubes: List[Rec] = []
        super().__init__(formula, prefix, config, stats, trail, keeper)

    def _install_clause(self, rec: Rec) -> None:
        for lit in rec.lits:
            self.clause_occ[lit].append(rec)
            self.occ_unsat[lit] += 1

    def assign(self, lit: int, reason: object) -> None:
        lit = self._canon[lit]
        trail = self.trail
        trail.push(lit, reason)
        # Counters are maintained eagerly (at assignment, not at dequeue) so
        # that backtrack can reverse them uniformly even when the
        # propagation queue still holds unprocessed literals. A clause that
        # turns satisfied records ``lit`` as its first satisfier and leaves
        # the pure-literal index: each of its literals loses an unsatisfied
        # occurrence, and a literal left with none makes its variable a
        # purity candidate.
        occ_unsat = self.occ_unsat
        candidate = self.pure_candidates.add
        for rec in self.clause_occ[lit]:
            n = rec.n_true + 1
            rec.n_true = n
            if n == 1:
                rec.first = lit
                if rec.original:
                    self.n_unsat_orig -= 1
                for l in rec.lits:
                    k = occ_unsat[l] - 1
                    occ_unsat[l] = k
                    if not k:
                        candidate(l if l > 0 else -l)
        neg = -lit
        live = self.live
        ids = live[neg]
        if ids:
            # Every live cube holding -lit dies here: unlink it from its
            # other literals' lists and file it under lit.
            live[neg] = []
            self.killed[lit] = ids
            cubes = self.cubes
            for cid in ids:
                rec = cubes[cid]
                rec.dead = 1
                for l in rec.lits:
                    if l != neg:
                        live[l].remove(cid)
        if len(trail.lits) > self.stats.max_trail:
            self.stats.max_trail = len(trail.lits)

    def backtrack(self, to_level: int) -> None:
        trail = self.trail
        target = trail.level_start[to_level + 1]
        unassign = trail.unassign
        clause_occ = self.clause_occ
        occ_unsat = self.occ_unsat
        killed = self.killed
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
            if lit in killed:
                self._revive(lit)
        trail.shrink(to_level, target)

    def _revive(self, lit: int) -> None:
        """Relink the cubes filed under the just-unassigned ``lit``.

        ``-lit`` was each cube's false literal of least trail position, so
        last-in-first-out backtracking has already unassigned the others:
        the cube has no false literal left. ``paranoid`` checks exactly
        that, raising explicitly so the check survives ``python -O``.
        """
        ids = self.killed.pop(lit)
        live = self.live
        cubes = self.cubes
        paranoid = self.config.paranoid
        if paranoid:
            lit_val = self.trail.lit_val
            base = self.trail.base
        for cid in ids:
            rec = cubes[cid]
            if paranoid and any(lit_val[base + l] == -1 for l in rec.lits):
                raise AssertionError("revived cube %r has a false literal" % (rec.lits,))
            rec.dead = 0
            for l in rec.lits:
                insort(live[l], cid)

    def propagate(self) -> Optional[Tuple[str, object]]:
        """Run propagation + pure literals to fixpoint.

        Returns None (keep searching), a conflict, a solution triggered by a
        learned cube, or a *model* (every matrix clause satisfied).
        """
        trail = self.trail
        examine = self._examine
        lits = trail.lits  # stable alias: push appends / shrink dels in place
        clause_occ = self.clause_occ
        live = self.live
        cubes = self.cubes
        while True:
            while trail.queue_head < len(lits):
                lit = lits[trail.queue_head]
                trail.queue_head += 1
                for rec in clause_occ[-lit]:
                    if rec.n_true == 0:
                        event = examine(rec, False)
                        if event is not None:
                            return event
                ids = live[lit]
                if ids:
                    # A snapshot: a unit assigned mid-scan unlinks the cubes
                    # it kills, and their dead flag hides them from the rest
                    # of this scan.
                    for cid in tuple(ids):
                        rec = cubes[cid]
                        if not rec.dead:
                            event = examine(rec, True)
                            if event is not None:
                                return event
            if self.n_unsat_orig == 0:
                return (MODEL, None)
            if self.config.pure_literals and self.apply_pure_literals():
                continue
            return None

    def apply_pure_literals(self) -> bool:
        """Assign currently pure literals; True when anything was assigned.

        Existential rule: assign ``l`` when ``l̄`` occurs in no unsatisfied
        clause. Universal rule: assign ``l`` when ``l`` itself occurs in no
        unsatisfied clause. Both additionally require that the assigned
        literal occurs in no *live* learned cube (``live[l]`` is empty) —
        the guard against the monotone-literal/learning interaction
        analysed in [24]: a pure assignment must never be able to turn a
        learned good true out of prefix order. Cubes already dead on this
        branch cannot become true, so they do not block purity. Of ``v``
        and ``-v``, the first that qualifies is assigned.

        The rule reads the ``occ_unsat`` index, which ``assign``/
        ``backtrack`` update inline when a clause turns satisfied or
        unsatisfied, and the live-cube index.
        """
        candidates = sorted(self.pure_candidates)
        self.pure_candidates.clear()
        value = self.trail.value
        is_exist = self._tab.is_exist
        occ_unsat = self.occ_unsat
        live = self.live
        assign = self.assign
        n = 0
        for v in candidates:
            if value[v]:
                continue
            # v before -v, and for each the occurrence test before the
            # live-cube guard: the order the assignments depend on.
            if is_exist[v]:
                if not occ_unsat[-v] and not live[v]:
                    lit = v
                elif not occ_unsat[v] and not live[-v]:
                    lit = -v
                else:
                    continue
            elif not occ_unsat[v] and not live[v]:
                lit = v
            elif not occ_unsat[-v] and not live[-v]:
                lit = -v
            else:
                continue
            n += 1
            assign(lit, PURE)
        self.stats.pure_literals += n
        return n > 0

    def _install_learned_clause(self, rec: Rec) -> None:
        trail = self.trail
        lit_val = trail.lit_val
        base = trail.base
        pos = trail.pos
        for lit in rec.lits:
            self.clause_occ[lit].append(rec)
            if lit_val[base + lit] == 1:
                rec.n_true += 1
                if rec.n_true == 1 or pos[abs(lit)] < pos[abs(rec.first)]:
                    rec.first = lit
        if not rec.n_true:
            for lit in rec.lits:
                self.occ_unsat[lit] += 1

    def _install_learned_cube(self, rec: Rec) -> None:
        # A cube installed outside the search loop may be born dead (a
        # literal already false); it is filed under the negation of its
        # false literal of least trail position, as assign would have.
        trail = self.trail
        lit_val = trail.lit_val
        base = trail.base
        pos = trail.pos
        cid = len(self.cubes)
        self.cubes.append(rec)
        killer = 0
        for lit in rec.lits:
            if lit_val[base + lit] == -1 and (
                not killer or pos[abs(lit)] < pos[abs(killer)]
            ):
                killer = lit
        if killer:
            rec.dead = 1
            self.killed.setdefault(-killer, []).append(cid)
        else:
            for lit in rec.lits:
                self.live[lit].append(cid)
