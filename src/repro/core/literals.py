"""Literal and quantifier primitives.

Variables are positive integers ``1, 2, 3, ...``. A *literal* is a nonzero
integer: ``v`` denotes the positive literal of variable ``v`` and ``-v`` its
negation. This is the classical DIMACS encoding, chosen because the solver
kernel manipulates literals in tight loops and plain integers are the fastest
hashable value in CPython.

The module also defines :class:`Quant`, the two quantifier kinds, used by the
prefix tree (:mod:`repro.core.prefix`) and everything above it.
"""

from __future__ import annotations

import enum
from typing import Iterable, Tuple


class Quant(enum.Enum):
    """Quantifier kind of a variable or of a quantifier block."""

    EXISTS = "e"
    FORALL = "a"

    @property
    def dual(self) -> "Quant":
        """Return the other quantifier (``∃`` for ``∀`` and vice versa)."""
        if self is Quant.EXISTS:
            return Quant.FORALL
        return Quant.EXISTS

    @property
    def symbol(self) -> str:
        """Unicode symbol, for pretty-printing prefixes."""
        return "∃" if self is Quant.EXISTS else "∀"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.symbol


#: Convenient aliases so call sites can say ``EXISTS``/``FORALL`` directly.
EXISTS = Quant.EXISTS
FORALL = Quant.FORALL


def var_of(lit: int) -> int:
    """Return the variable of ``lit`` (the paper's ``|l|``)."""
    return lit if lit > 0 else -lit


def neg(lit: int) -> int:
    """Return the complementary literal (the paper's ``l̄``)."""
    return -lit


def sign(lit: int) -> bool:
    """True for a positive literal, False for a negated one."""
    return lit > 0


def lit_name(lit: int, prefix_hint: str = "z") -> str:
    """Human readable rendering such as ``z3`` / ``¬z3`` for debugging."""
    v = var_of(lit)
    body = "%s%d" % (prefix_hint, v)
    return body if lit > 0 else "¬" + body


def check_no_duplicate_vars(lits: Iterable[int]) -> Tuple[int, ...]:
    """Validate that no variable occurs twice (in either polarity).

    The paper's clause definition requires ``|l_i| != |l_j]`` for each pair of
    literals in a clause; the same well-formedness applies to cubes. Returns
    the literals as a tuple, sorted by variable then sign, so that syntactic
    equality of constraints is canonical; an input that already is that
    tuple is returned itself, so a learned constraint shares its tuple with
    the key it is stored under. Repeats of one literal collapse silently.

    Every test runs at C speed: with distinct variables the ``abs`` order is
    the canonical order, and a zero (least ``abs``, so first) or a repeated
    variable shows as a short ``abs`` set. Only a rejected input is walked
    in the canonical order, to name its first offence.

    Raises:
        ValueError: if a variable occurs twice or a literal is zero.
    """
    out = sorted(set(lits), key=abs)
    if len(set(map(abs, out))) == len(out) and (not out or out[0]):
        canonical = tuple(out)
        return lits if type(lits) is tuple and lits == canonical else canonical
    out.sort(key=lambda l: (var_of(l), l))
    if out[0] == 0:
        raise ValueError("0 is not a literal")
    # Canonical order puts -v right before v.
    v = next(var_of(a) for a, b in zip(out, out[1:]) if var_of(a) == var_of(b))
    raise ValueError("variable %d occurs twice in %r" % (v, out))
