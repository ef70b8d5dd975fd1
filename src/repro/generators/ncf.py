"""Nested CounterFactual (NCF) instances — the Section VII-A suite.

The paper uses the generator of Egly, Seidl, Tompits, Woltran and Zolda
[12]: QBF encodings of nested counterfactual reasoning ``c = p > (q > r)``
over a background theory, "automatically generated in non prenex form". The
original tool is not public; this module re-creates the *family*: instances
controlled by the same four parameters

* ``DEP`` — counterfactual nesting depth,
* ``VAR`` — fresh variables introduced per nesting scope,
* ``CLS`` — clauses generated per scope (the paper sweeps CLS/VAR in 1..5),
* ``LPC`` — literals per clause,

and with the same structural signature: a quantifier *tree* in which every
nesting level introduces an alternation (∃ for the hypothetical-change
selection, ∀ for the minimality test of the counterfactual semantics), and
each counterfactual has an antecedent and a consequent sub-scope — hence a
binary tree of scopes. Clauses of a scope mention at least one variable of
that scope plus path-visible variables, which is what a real encoding of a
formula *located at that nesting point* looks like.

Instances are seeded and reproducible; the prenex versions the paper feeds
to QUBE(TO) are produced with :mod:`repro.prenexing.strategies`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.formula import QBF
from repro.core.literals import EXISTS, Quant
from repro.core.prefix import Prefix, Spec


@dataclass(frozen=True)
class NcfParams:
    """One generator setting ⟨DEP, VAR, CLS, LPC⟩ plus the instance seed."""

    dep: int = 3
    var: int = 4
    cls: int = 8
    lpc: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dep < 1 or self.var < 1 or self.cls < 0 or self.lpc < 1:
            raise ValueError("invalid NCF parameters %r" % (self,))

    @property
    def label(self) -> str:
        return "ncf-d%d-v%d-c%d-l%d-s%d" % (self.dep, self.var, self.cls, self.lpc, self.seed)


def generate_ncf(params: NcfParams) -> QBF:
    """Generate one non-prenex NCF instance."""
    rng = random.Random(params.seed)
    next_var = [1]
    clauses: List[Tuple[int, ...]] = []

    def fresh_block() -> List[int]:
        vs = list(range(next_var[0], next_var[0] + params.var))
        next_var[0] += params.var
        return vs

    def scope_clauses(own: List[int], path_universals: List[int], pool: List[int]) -> None:
        """Clauses of an existential scope.

        Every clause is anchored on a variable of the scope itself (the
        encoding constraint it belongs to) and, when the scope sits under
        universals, couples in one adversary-controlled variable — random
        QBFs whose clauses are anchored at universal scopes are trivially
        false, because the universal player simply falsifies them.
        """
        for _ in range(params.cls):
            size = min(params.lpc, len(pool) + 1)
            chosen = [rng.choice(own)]
            if path_universals and size >= 2:
                chosen.append(rng.choice(path_universals))
            remaining = [v for v in pool if v not in chosen]
            extra = rng.sample(remaining, min(size - len(chosen), len(remaining)))
            chosen = list(dict.fromkeys(chosen + extra))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))

    existential_vars: set = set()

    def grow(level: int, quant: Quant, visible: List[int], universals: List[int]) -> Spec:
        own = fresh_block()
        if quant is EXISTS:
            existential_vars.update(own)
            if universals:
                # Only scopes below an alternation carry constraints: the
                # root block holds the query variables of the counterfactual
                # encoding, which deeper scopes constrain.
                scope_clauses(own, universals, visible + own)
        children: List[Spec] = []
        if level < params.dep:
            new_universals = universals + (own if quant is not EXISTS else [])
            # Antecedent and consequent of the counterfactual at this level.
            for _ in range(2):
                children.append(grow(level + 1, quant.dual, visible + own, new_universals))
        return (quant, tuple(own), tuple(children))

    root = grow(1, EXISTS, [], [])
    return QBF(Prefix.tree([root]), clauses)


def scope_clauses_check(formula: QBF) -> bool:
    """Sanity predicate: every clause fits on one root-to-node path."""
    prefix = formula.prefix
    for clause in formula.clauses:
        variables = [abs(l) for l in clause.lits]
        deepest = max(variables, key=lambda v: prefix.level(v))
        for v in variables:
            if v == deepest:
                continue
            if not prefix.prec(v, deepest) and not prefix.same_block(v, deepest):
                ancestor_ok = prefix.block_of(v).is_ancestor_of(prefix.block_of(deepest))
                if not ancestor_ok:
                    return False
    return True
