"""Scope minimization for prenex QBFs (Section VII-D).

The inverse direction of prenexing: given a QBF in prenex form, rebuild a
quantifier tree by shrinking every quantifier's scope. Only the two rules
the paper applies are used::

    Qz (ϕ ∧ ψ)  ↦  (Qz ϕ) ∧ ψ        when z does not occur in ψ
    Q1 z1 Q2 z2 ϕ  ↦  Q2 z2 Q1 z1 ϕ   when Q1 = Q2

applied from the innermost quantifiers outward. The variable-splitting rule
(20) (``∀y (ϕ∧ψ) ↦ ∀y1 ϕ[y1/y] ∧ ∀y2 ψ[y2/y]``) is deliberately **not**
applied: the paper reports that the variable duplication degrades solver
performance.

Additionally, when a variable's minimized scope is a single clause:

* an existential variable occurring in just that clause makes it satisfiable
  by choice of the variable — the clause is deleted;
* a universal variable is deleted from the clause (Lemma 3).

:func:`structure_ratio` implements footnote 9's "PO/TO" measure used to
select QBFEVAL'06 instances: the fraction of (existential, universal) pairs
that are ordered in the prenex prefix but incomparable in the tree.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set, Tuple

from repro.core.formula import QBF
from repro.core.literals import EXISTS, FORALL, Quant, var_of
from repro.core.prefix import Prefix, Spec


class _Item:
    """A work item during miniscoping: a clause or a built quantifier node."""

    __slots__ = ("clause", "quant", "bound", "children", "variables")

    def __init__(
        self,
        clause: Tuple[int, ...] = None,
        quant: Quant = None,
        bound: Tuple[int, ...] = (),
        children: Tuple["_Item", ...] = (),
    ):
        self.clause = clause
        self.quant = quant
        self.bound = bound
        self.children = children
        if clause is not None:
            self.variables: FrozenSet[int] = frozenset(var_of(l) for l in clause)
        else:
            free: Set[int] = set()
            for child in children:
                free |= child.variables
            self.variables = frozenset(free - set(bound))

    @property
    def is_clause(self) -> bool:
        return self.clause is not None


def miniscope(formula: QBF) -> QBF:
    """Minimize quantifier scopes of a prenex QBF; returns a tree QBF.

    The result has the same truth value; its prefix order is a (possibly
    strict) subset of the input's total order. Unused prefix variables are
    dropped (``∃z ϕ = ∀z ϕ = ϕ`` when ``z`` does not occur in ``ϕ``).
    """
    if not formula.is_prenex:
        raise ValueError("miniscope expects a prenex QBF")
    items: List[_Item] = [_Item(clause=c.lits) for c in formula.clauses]
    blocks = formula.prefix.linear_blocks()
    # Innermost block first; variables inside a block are processed one by
    # one, which realizes the same-quantifier swap rule for free.
    for quant, variables in reversed(blocks):
        for z in sorted(variables):
            relevant = [it for it in items if z in it.variables]
            if not relevant:
                continue
            if len(relevant) == 1 and relevant[0].is_clause:
                item = relevant[0]
                items.remove(item)
                if quant is EXISTS:
                    # ∃z scoping a single clause containing z: satisfiable by
                    # choosing z — the clause disappears.
                    continue
                # ∀z over a single clause: Lemma 3 deletes z from it.
                shrunk = tuple(l for l in item.clause if var_of(l) != z)
                items.append(_Item(clause=shrunk))
                continue
            for it in relevant:
                items.remove(it)
            items.append(_Item(quant=quant, bound=(z,), children=tuple(relevant)))

    clauses: List[Tuple[int, ...]] = []
    roots: List[Spec] = []

    def emit(item: _Item) -> List[Spec]:
        if item.is_clause:
            clauses.append(item.clause)
            return []
        specs: List[Spec] = []
        for child in item.children:
            specs.extend(emit(child))
        return [(item.quant, item.bound, tuple(specs))]

    for item in items:
        roots.extend(emit(item))
    # Every surviving clause variable is bound by the emitted tree; close()
    # is a safety net that would bind strays existentially on top.
    return QBF.close(Prefix.tree(roots), clauses)


def ordered_pairs(prefix) -> Set[Tuple[int, int]]:
    """All (existential x, universal y) variable pairs ordered either way."""
    out: Set[Tuple[int, int]] = set()
    variables = prefix.variables
    existentials = [v for v in variables if prefix.quant(v) is EXISTS]
    universals = [v for v in variables if prefix.quant(v) is FORALL]
    for x in existentials:
        for y in universals:
            if prefix.prec(x, y) or prefix.prec(y, x):
                out.add((x, y))
    return out


def structure_ratio(prenex_formula: QBF, tree_formula: QBF) -> float:
    """Footnote 9's "PO/TO" percentage, as a fraction in [0, 1].

    The fraction of (existential, universal) pairs that are ordered in the
    prenex prefix but unordered in the tree prefix. Instances enter the
    paper's Figure-7 test set when this exceeds 0.2.
    """
    prenex_pairs = ordered_pairs(prenex_formula.prefix)
    if not prenex_pairs:
        return 0.0
    tree_prefix = tree_formula.prefix
    freed = 0
    for x, y in prenex_pairs:
        if x not in tree_prefix or y not in tree_prefix:
            freed += 1
        elif not tree_prefix.prec(x, y) and not tree_prefix.prec(y, x):
            freed += 1
    return freed / len(prenex_pairs)
