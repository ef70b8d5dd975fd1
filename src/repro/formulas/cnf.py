"""Conversion of quantified circuit formulas to ⟨tree prefix, CNF matrix⟩.

Implements the clause-form conversion the paper relies on (it cites Jackson
and Sheridan [10] for the DIA encodings): negation normal form followed by
polarity-aware (Plaisted-Greenbaum) definitional clausification. Auxiliary
definition variables are existentially quantified *innermost in the scope
where the defined subformula occurs* — exactly the placement in the paper's
Section VII-C worked example, where the single CNF variable ``x`` lands in
the block after the universals.

The quantifier *tree* of the input is preserved: quantifiers nested under
conjunctions become sibling subtrees of the prefix. Disjunctions over
quantified subformulas carry no parallel structure in a CNF matrix, so they
are prenexed locally (``Qx φ ∨ ψ ↦ Qx (φ ∨ ψ)`` after alpha-renaming, sound
because every binding is made unique first).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.formula import QBF
from repro.core.literals import EXISTS, FORALL, Quant
from repro.core.prefix import Prefix, Spec
from repro.formulas.ast import (
    And,
    Const,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    Var,
    _Quant,
    all_vars,
    free_vars,
    is_quantifier_free,
    nnf,
)


class _VarAllocator:
    """Fresh-variable source starting above every variable in use."""

    def __init__(self, start_above: int):
        self._next = start_above + 1

    def fresh(self) -> int:
        v = self._next
        self._next += 1
        return v


def _alpha_rename(formula: Formula, alloc: _VarAllocator) -> Formula:
    """Make every binding unique and distinct from every free variable."""
    used: Set[int] = set(free_vars(formula))

    def walk(node: Formula, env: Dict[int, int]) -> Formula:
        if isinstance(node, Const):
            return node
        if isinstance(node, Var):
            return Var(env.get(node.index, node.index))
        if isinstance(node, Not):
            return Not(walk(node.arg, env))
        if isinstance(node, And):
            return And(tuple(walk(a, env) for a in node.args))
        if isinstance(node, Or):
            return Or(tuple(walk(a, env) for a in node.args))
        if isinstance(node, _Quant):
            inner_env = dict(env)
            fresh_vars = []
            for v in node.variables:
                if v in used:
                    nv = alloc.fresh()
                else:
                    nv = v
                used.add(nv)
                inner_env[v] = nv
                fresh_vars.append(nv)
            return type(node)(tuple(fresh_vars), walk(node.body, inner_env))
        raise TypeError("unexpected node in NNF: %r" % (node,))

    return walk(formula, {})


class _Clausifier:
    """Plaisted-Greenbaum clausification of NNF propositional formulas."""

    def __init__(self, alloc: _VarAllocator):
        self.alloc = alloc
        self.clauses: List[Tuple[int, ...]] = []

    def emit(self, lits: Sequence[int]) -> None:
        """Add a clause, deduplicating literals and dropping tautologies."""
        seen: Dict[int, int] = {}
        for l in lits:
            if -l in seen:
                return  # tautological clause: always satisfied
            seen[l] = l
        self.clauses.append(tuple(seen))

    def assert_true(self, node: Formula) -> List[int]:
        """Emit clauses forcing ``node``; returns fresh aux variables used."""
        aux: List[int] = []
        self._assert(node, aux)
        return aux

    def _literal_of(self, node: Formula) -> Optional[int]:
        if isinstance(node, Var):
            return node.index
        if isinstance(node, Not) and isinstance(node.arg, Var):
            return -node.arg.index
        return None

    def _assert(self, node: Formula, aux: List[int]) -> None:
        if isinstance(node, Const):
            if not node.value:
                self.emit(())
            return
        direct = self._literal_of(node)
        if direct is not None:
            self.emit((direct,))
            return
        if isinstance(node, And):
            for arg in node.args:
                self._assert(arg, aux)
            return
        if isinstance(node, Or):
            lits = [self._encode(arg, aux) for arg in node.args]
            self.emit([l for l in lits if l is not None])
            return
        raise TypeError("unexpected node in NNF clausifier: %r" % (node,))

    def _encode(self, node: Formula, aux: List[int]) -> Optional[int]:
        """Return a literal l with l → node (positive polarity only).

        Returns None for the constant ⊥ (drops out of its clause); the
        constant ⊤ satisfies the enclosing clause, which the caller's
        tautology handling covers by emitting a fresh always-true aux — we
        avoid that by short-circuiting in _assert via disj folding upstream;
        defensively, ⊤ gets a fresh unconstrained variable here.
        """
        if isinstance(node, Const):
            if not node.value:
                return None
            g = self.alloc.fresh()
            aux.append(g)
            self.emit((g,))
            return g
        direct = self._literal_of(node)
        if direct is not None:
            return direct
        if isinstance(node, And):
            g = self.alloc.fresh()
            aux.append(g)
            for arg in node.args:
                la = self._encode(arg, aux)
                if la is None:
                    # g → ⊥: g can never be used positively.
                    self.emit((-g,))
                else:
                    self.emit((-g, la))
            return g
        if isinstance(node, Or):
            g = self.alloc.fresh()
            aux.append(g)
            lits = [self._encode(arg, aux) for arg in node.args]
            self.emit([-g] + [l for l in lits if l is not None])
            return g
        raise TypeError("unexpected node in NNF clausifier: %r" % (node,))


def _pull_prenex(node: Formula) -> Tuple[List[Tuple[Quant, Tuple[int, ...]]], Formula]:
    """Locally prenex a subformula: quantifier chain plus propositional body.

    Sound without renaming because _alpha_rename made every binding unique.
    """
    if isinstance(node, Exists):
        chain, body = _pull_prenex(node.body)
        return [(EXISTS, node.variables)] + chain, body
    if isinstance(node, Forall):
        chain, body = _pull_prenex(node.body)
        return [(FORALL, node.variables)] + chain, body
    if isinstance(node, And):
        chain: List[Tuple[Quant, Tuple[int, ...]]] = []
        bodies = []
        for arg in node.args:
            sub_chain, sub_body = _pull_prenex(arg)
            chain.extend(sub_chain)
            bodies.append(sub_body)
        return chain, And(tuple(bodies))
    if isinstance(node, Or):
        chain = []
        bodies = []
        for arg in node.args:
            sub_chain, sub_body = _pull_prenex(arg)
            chain.extend(sub_chain)
            bodies.append(sub_body)
        return chain, Or(tuple(bodies))
    return [], node


def to_qbf(formula: Formula) -> QBF:
    """Convert a quantified circuit formula to the library's QBF form.

    Free variables are bound existentially at the top (the paper's
    convention). The quantifier structure under conjunctions is preserved as
    a tree; everything else is handled as documented in the module
    docstring.
    """
    f = nnf(formula)
    top_free = tuple(sorted(free_vars(f)))
    if top_free:
        f = Exists(top_free, f)
    alloc = _VarAllocator(max(all_vars(f), default=0))
    f = _alpha_rename(f, alloc)
    clausifier = _Clausifier(alloc)

    def walk(node: Formula) -> List[Spec]:
        if isinstance(node, Exists) or isinstance(node, Forall):
            quant = EXISTS if isinstance(node, Exists) else FORALL
            return [(quant, node.variables, tuple(walk(node.body)))]
        if isinstance(node, And) and not is_quantifier_free(node):
            specs: List[Spec] = []
            for arg in node.args:
                specs.extend(walk(arg))
            return specs
        if is_quantifier_free(node):
            aux = clausifier.assert_true(node)
            if aux:
                return [(EXISTS, tuple(aux), ())]
            return []
        # Or (or a mix) containing quantifiers: prenex this subformula.
        chain, prop = _pull_prenex(node)
        aux = clausifier.assert_true(prop)
        inner: Tuple[Spec, ...] = ((EXISTS, tuple(aux), ()),) if aux else ()
        for quant, variables in reversed(chain):
            inner = ((quant, variables, inner),)
        return list(inner)

    roots = walk(f)
    prefix = Prefix.tree(roots)
    matrix = clausifier.clauses
    # Clauses may mention variables of sibling scopes only through shared
    # ancestors, which the walk guarantees; any constant-folding edge case
    # that dropped a bound variable entirely is harmless: the prefix simply
    # keeps it as an unconstrained variable.
    used = {abs(l) for c in matrix for l in c}
    missing = used - set(prefix.variables)
    if missing:
        raise AssertionError("clausifier produced unbound variables: %r" % missing)
    return QBF(prefix, matrix)
