"""Boolean formula ASTs with quantifiers (non-CNF, non-prenex).

The QBFs "deriving from applications" that motivate the paper — diameter
calculation, equivalence checking, early-requirements model checking — start
life as circuits: arbitrary combinations of ``∧``, ``∨``, ``¬``, ``→``,
``≡`` and quantifiers (Section VII-C allows exactly this for equation (14)).
This module provides that representation; :mod:`repro.formulas.cnf` converts
it to the library's ``⟨tree prefix, CNF matrix⟩`` form.

Variables are positive integers, matching :mod:`repro.core`. Formulas are
immutable and hashable; Python operators build connectives::

    x, y = Var(1), Var(2)
    f = Forall([2], (x | y) & ~(x & y))
    g = Exists([1], f)

Design notes:

* ``Implies``/``Iff``/``Xor`` are first-class nodes (the generators read
  better with them) and are expanded during NNF conversion.
* ``nnf`` pushes negations through quantifiers (``¬∀y ψ ↦ ∃y ¬ψ``), which is
  what lets :func:`repro.formulas.cnf.to_qbf` keep every matrix literal
  positive-polarity-definable.
* :func:`evaluate_closed` is an independent semantic oracle used to validate
  the CNF conversion end to end.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence


class Formula:
    """Base class of all AST nodes; provides operator sugar."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)

    def __rshift__(self, other: "Formula") -> "Formula":
        """``a >> b`` is ``a → b``."""
        return Implies(self, other)

    def iff(self, other: "Formula") -> "Formula":
        return Iff(self, other)

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> tuple:
        raise NotImplementedError

    def __repr__(self) -> str:
        raise NotImplementedError


class Const(Formula):
    """Boolean constant."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = bool(value)

    def _key(self) -> tuple:
        return (self.value,)

    def __repr__(self) -> str:
        return "⊤" if self.value else "⊥"


TRUE = Const(True)
FALSE = Const(False)


class Var(Formula):
    """A propositional variable (positive integer index)."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        if index <= 0:
            raise ValueError("variable index must be positive, got %d" % index)
        self.index = index

    def _key(self) -> tuple:
        return (self.index,)

    def __repr__(self) -> str:
        return "v%d" % self.index


class Not(Formula):
    __slots__ = ("arg",)

    def __init__(self, arg: Formula):
        self.arg = arg

    def _key(self) -> tuple:
        return (self.arg,)

    def __repr__(self) -> str:
        return "¬%r" % (self.arg,)


class _Nary(Formula):
    __slots__ = ("args",)
    _symbol = "?"

    def __init__(self, args: Iterable[Formula]):
        self.args = tuple(args)

    def _key(self) -> tuple:
        return self.args

    def __repr__(self) -> str:
        if not self.args:
            return "(%s)" % self._symbol
        return "(" + (" %s " % self._symbol).join(map(repr, self.args)) + ")"


class And(_Nary):
    """N-ary conjunction; ``And(())`` is ⊤."""

    __slots__ = ()
    _symbol = "∧"


class Or(_Nary):
    """N-ary disjunction; ``Or(())`` is ⊥."""

    __slots__ = ()
    _symbol = "∨"


class _Binary(Formula):
    __slots__ = ("left", "right")
    _symbol = "?"

    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right

    def _key(self) -> tuple:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return "(%r %s %r)" % (self.left, self._symbol, self.right)


class Implies(_Binary):
    __slots__ = ()
    _symbol = "→"


class Iff(_Binary):
    __slots__ = ()
    _symbol = "≡"


class Xor(_Binary):
    __slots__ = ()
    _symbol = "⊕"


class _Quant(Formula):
    __slots__ = ("variables", "body")
    _symbol = "?"

    def __init__(self, variables: Sequence[int], body: Formula):
        self.variables = tuple(variables)
        for v in self.variables:
            if v <= 0:
                raise ValueError("quantified variable must be positive")
        self.body = body

    def _key(self) -> tuple:
        return (self.variables, self.body)

    def __repr__(self) -> str:
        return "%s%s.%r" % (self._symbol, list(self.variables), self.body)


class Exists(_Quant):
    __slots__ = ()
    _symbol = "∃"


class Forall(_Quant):
    __slots__ = ()
    _symbol = "∀"


# -- structural helpers --------------------------------------------------------


def conj(parts: Iterable[Formula]) -> Formula:
    """Flattened conjunction with constant folding."""
    flat = []
    for part in parts:
        if isinstance(part, Const):
            if not part.value:
                return FALSE
            continue
        if isinstance(part, And):
            flat.extend(part.args)
        else:
            flat.append(part)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(flat)


def disj(parts: Iterable[Formula]) -> Formula:
    """Flattened disjunction with constant folding."""
    flat = []
    for part in parts:
        if isinstance(part, Const):
            if part.value:
                return TRUE
            continue
        if isinstance(part, Or):
            flat.extend(part.args)
        else:
            flat.append(part)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(flat)


def lit(var: int, positive: bool) -> Formula:
    """``Var(var)`` or its negation, as an AST node."""
    v = Var(var)
    return v if positive else Not(v)


def free_vars(formula: Formula) -> FrozenSet[int]:
    """Free variables of the formula."""
    if isinstance(formula, Const):
        return frozenset()
    if isinstance(formula, Var):
        return frozenset((formula.index,))
    if isinstance(formula, Not):
        return free_vars(formula.arg)
    if isinstance(formula, _Nary):
        out: FrozenSet[int] = frozenset()
        for arg in formula.args:
            out |= free_vars(arg)
        return out
    if isinstance(formula, _Binary):
        return free_vars(formula.left) | free_vars(formula.right)
    if isinstance(formula, _Quant):
        return free_vars(formula.body) - frozenset(formula.variables)
    raise TypeError("unknown node %r" % (formula,))


def all_vars(formula: Formula) -> FrozenSet[int]:
    """Every variable occurring (free or bound) in the formula."""
    if isinstance(formula, Const):
        return frozenset()
    if isinstance(formula, Var):
        return frozenset((formula.index,))
    if isinstance(formula, Not):
        return all_vars(formula.arg)
    if isinstance(formula, _Nary):
        out: FrozenSet[int] = frozenset()
        for arg in formula.args:
            out |= all_vars(arg)
        return out
    if isinstance(formula, _Binary):
        return all_vars(formula.left) | all_vars(formula.right)
    if isinstance(formula, _Quant):
        return all_vars(formula.body) | frozenset(formula.variables)
    raise TypeError("unknown node %r" % (formula,))


def is_quantifier_free(formula: Formula) -> bool:
    """True when the formula contains no quantifier node."""
    if isinstance(formula, (Const, Var)):
        return True
    if isinstance(formula, Not):
        return is_quantifier_free(formula.arg)
    if isinstance(formula, _Nary):
        return all(is_quantifier_free(a) for a in formula.args)
    if isinstance(formula, _Binary):
        return is_quantifier_free(formula.left) and is_quantifier_free(formula.right)
    if isinstance(formula, _Quant):
        return False
    raise TypeError("unknown node %r" % (formula,))


def rename(formula: Formula, mapping: Mapping[int, int]) -> Formula:
    """Apply a variable renaming to free *and* bound occurrences."""
    if isinstance(formula, Const):
        return formula
    if isinstance(formula, Var):
        return Var(mapping.get(formula.index, formula.index))
    if isinstance(formula, Not):
        return Not(rename(formula.arg, mapping))
    if isinstance(formula, And):
        return And(tuple(rename(a, mapping) for a in formula.args))
    if isinstance(formula, Or):
        return Or(tuple(rename(a, mapping) for a in formula.args))
    if isinstance(formula, _Binary):
        return type(formula)(rename(formula.left, mapping), rename(formula.right, mapping))
    if isinstance(formula, _Quant):
        return type(formula)(
            tuple(mapping.get(v, v) for v in formula.variables),
            rename(formula.body, mapping),
        )
    raise TypeError("unknown node %r" % (formula,))


def substitute(formula: Formula, mapping: Mapping[int, bool]) -> Formula:
    """Replace free variables by constants and fold."""
    if isinstance(formula, Const):
        return formula
    if isinstance(formula, Var):
        if formula.index in mapping:
            return TRUE if mapping[formula.index] else FALSE
        return formula
    if isinstance(formula, Not):
        inner = substitute(formula.arg, mapping)
        if isinstance(inner, Const):
            return FALSE if inner.value else TRUE
        return Not(inner)
    if isinstance(formula, And):
        return conj(substitute(a, mapping) for a in formula.args)
    if isinstance(formula, Or):
        return disj(substitute(a, mapping) for a in formula.args)
    if isinstance(formula, Implies):
        return substitute(disj((Not(formula.left), formula.right)), mapping)
    if isinstance(formula, Iff):
        left = substitute(formula.left, mapping)
        right = substitute(formula.right, mapping)
        if isinstance(left, Const) and isinstance(right, Const):
            return TRUE if left.value == right.value else FALSE
        return Iff(left, right)
    if isinstance(formula, Xor):
        left = substitute(formula.left, mapping)
        right = substitute(formula.right, mapping)
        if isinstance(left, Const) and isinstance(right, Const):
            return TRUE if left.value != right.value else FALSE
        return Xor(left, right)
    if isinstance(formula, _Quant):
        shadowed = {k: v for k, v in mapping.items() if k not in formula.variables}
        return type(formula)(formula.variables, substitute(formula.body, shadowed))
    raise TypeError("unknown node %r" % (formula,))


def nnf(formula: Formula, negate: bool = False) -> Formula:
    """Negation normal form; expands →, ≡, ⊕ and pushes ¬ through quantifiers."""
    if isinstance(formula, Const):
        return Const(formula.value != negate)
    if isinstance(formula, Var):
        return Not(formula) if negate else formula
    if isinstance(formula, Not):
        return nnf(formula.arg, not negate)
    if isinstance(formula, And):
        parts = tuple(nnf(a, negate) for a in formula.args)
        return disj(parts) if negate else conj(parts)
    if isinstance(formula, Or):
        parts = tuple(nnf(a, negate) for a in formula.args)
        return conj(parts) if negate else disj(parts)
    if isinstance(formula, Implies):
        return nnf(disj((Not(formula.left), formula.right)), negate)
    if isinstance(formula, Iff):
        both = conj((formula.left, formula.right))
        neither = conj((Not(formula.left), Not(formula.right)))
        return nnf(disj((both, neither)), negate)
    if isinstance(formula, Xor):
        return nnf(Iff(formula.left, formula.right), not negate)
    if isinstance(formula, Exists):
        body = nnf(formula.body, negate)
        return Forall(formula.variables, body) if negate else Exists(formula.variables, body)
    if isinstance(formula, Forall):
        body = nnf(formula.body, negate)
        return Exists(formula.variables, body) if negate else Forall(formula.variables, body)
    raise TypeError("unknown node %r" % (formula,))


def evaluate_closed(formula: Formula, assignment: Optional[Dict[int, bool]] = None) -> bool:
    """Semantic truth value of a closed formula, by direct expansion.

    An independent (exponential) oracle used to validate the CNF/QBF
    conversion pipeline. ``assignment`` supplies values for free variables.
    """
    env = dict(assignment or {})

    def walk(node: Formula) -> bool:
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            return env[node.index]
        if isinstance(node, Not):
            return not walk(node.arg)
        if isinstance(node, And):
            return all(walk(a) for a in node.args)
        if isinstance(node, Or):
            return any(walk(a) for a in node.args)
        if isinstance(node, Implies):
            return (not walk(node.left)) or walk(node.right)
        if isinstance(node, Iff):
            return walk(node.left) == walk(node.right)
        if isinstance(node, Xor):
            return walk(node.left) != walk(node.right)
        if isinstance(node, (Exists, Forall)):
            if not node.variables:
                return walk(node.body)
            v, rest = node.variables[0], node.variables[1:]
            sub = type(node)(rest, node.body)
            saved = env.get(v)
            results = []
            for val in (False, True):
                env[v] = val
                results.append(walk(sub))
            if saved is None:
                env.pop(v, None)
            else:
                env[v] = saved
            return any(results) if isinstance(node, Exists) else all(results)
        raise TypeError("unknown node %r" % (node,))

    return walk(formula)
