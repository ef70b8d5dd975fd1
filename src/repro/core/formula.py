"""The QBF container: a quantifier prefix plus a CNF matrix.

Matches the paper's Section II representation of (possibly non-prenex) QBFs
as pairs ``⟨prefix, matrix⟩`` where the prefix is a partial order over the
quantified variables and the matrix is a set of clauses.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.constraints import Clause
from repro.core.literals import EXISTS, Quant, var_of
from repro.core.prefix import Prefix, Spec


class QBF:
    """A quantified boolean formula with CNF matrix.

    Args:
        prefix: the (partially ordered) quantifier prefix. Every variable
            appearing in the matrix must be bound by the prefix; per the
            paper's convention, callers with free variables should bind them
            existentially at the top first (see :meth:`close`).
        clauses: the matrix, as an iterable of literal iterables or
            :class:`~repro.core.constraints.Clause` objects. Duplicate
            clauses are kept (they are harmless and the generators avoid
            them); duplicate/opposite literals inside a clause are rejected.
    """

    def __init__(self, prefix: Prefix, clauses: Iterable[Iterable[int]]):
        self.prefix = prefix
        self.clauses: Tuple[Clause, ...] = tuple(
            c if isinstance(c, Clause) else Clause(c) for c in clauses
        )
        for clause in self.clauses:
            for lit in clause:
                if var_of(lit) not in prefix:
                    raise ValueError(
                        "literal %d of %r is not bound by the prefix" % (lit, clause)
                    )

    # -- construction helpers ---------------------------------------------

    @classmethod
    def prenex(
        cls,
        blocks: Sequence[Tuple[Quant, Sequence[int]]],
        clauses: Iterable[Iterable[int]],
    ) -> "QBF":
        """Build a prenex QBF from outermost-to-innermost quantifier blocks."""
        return cls(Prefix.linear(blocks), clauses)

    @classmethod
    def tree(cls, roots: Sequence[Spec], clauses: Iterable[Iterable[int]]) -> "QBF":
        """Build a non-prenex QBF from a nested prefix spec."""
        return cls(Prefix.tree(roots), clauses)

    @classmethod
    def close(
        cls, prefix: Prefix, clauses: Iterable[Iterable[int]]
    ) -> "QBF":
        """Bind any matrix variable missing from ``prefix`` existentially on top.

        Implements the paper's convention that unbound variables are treated
        as outermost existentials.
        """
        clause_objs = [c if isinstance(c, Clause) else Clause(c) for c in clauses]
        seen = set()
        for clause in clause_objs:
            for lit in clause:
                seen.add(var_of(lit))
        free = sorted(v for v in seen if v not in prefix)
        if free:
            spec = prefix.to_spec()
            prefix = Prefix.tree([(EXISTS, tuple(free), tuple(spec))])
        return cls(prefix, clause_objs)

    # -- basic queries ------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self.prefix.num_vars

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def is_prenex(self) -> bool:
        return self.prefix.is_prenex

    @property
    def is_sat(self) -> bool:
        """True when every variable is existential (a plain SAT problem)."""
        return all(b.quant is EXISTS for b in self.prefix.blocks)

    # -- semantics-preserving operations ------------------------------------

    def assign(self, lit: int) -> "QBF":
        """The cofactor ``ϕ_l`` of Section II.

        Clauses containing ``lit`` are deleted, ``-lit`` is removed from the
        others, and the variable disappears from the prefix. Used by the
        recursive reference solvers; the production engine works on a trail
        instead.
        """
        new_clauses: List[Tuple[int, ...]] = []
        nlit = -lit
        for clause in self.clauses:
            if lit in clause.lits:
                continue
            if nlit in clause.lits:
                new_clauses.append(tuple(l for l in clause.lits if l != nlit))
            else:
                new_clauses.append(clause.lits)
        return QBF(self.prefix.restrict([var_of(lit)]), new_clauses)

    def has_empty_clause(self) -> bool:
        return any(len(c) == 0 for c in self.clauses)

    def renamed(self, mapping: Dict[int, int]) -> "QBF":
        """Apply a variable renaming (must be injective on the variables)."""
        image = set(mapping.values())
        if len(image) != len(mapping):
            raise ValueError("renaming is not injective")

        def rn_var(v: int) -> int:
            return mapping.get(v, v)

        def rn_lit(lit: int) -> int:
            v = var_of(lit)
            return rn_var(v) if lit > 0 else -rn_var(v)

        def rn_spec(spec: Spec) -> Spec:
            quant, variables, children = spec
            return (
                quant,
                tuple(rn_var(v) for v in variables),
                tuple(rn_spec(c) for c in children),
            )

        prefix = Prefix.tree([rn_spec(s) for s in self.prefix.to_spec()])
        clauses = [tuple(rn_lit(l) for l in c.lits) for c in self.clauses]
        return QBF(prefix, clauses)

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QBF):
            return NotImplemented
        return self.prefix == other.prefix and sorted(
            c.lits for c in self.clauses
        ) == sorted(c.lits for c in other.clauses)

    def __hash__(self) -> int:
        return hash((self.prefix, tuple(sorted(c.lits for c in self.clauses))))

    def __repr__(self) -> str:
        return "QBF(%r, %d clauses)" % (self.prefix, len(self.clauses))

    def pretty(self) -> str:
        """Multi-line rendering for debugging and the examples."""
        lines = [repr(self.prefix)]
        for clause in self.clauses:
            lines.append("  (" + " ∨ ".join(map(str, clause.lits)) + ")")
        return "\n".join(lines)


def paper_example() -> QBF:
    """The running example, equation (1)/(3)/(4) of the paper.

    Variables: ``x0=1, y1=2, x1=3, x2=4, y2=5, x3=6, x4=7``. The prefix is
    the tree ``x0 ≺ y1 ≺ x1,x2`` and ``x0 ≺ y2 ≺ x3,x4``; the matrix is the
    eight clauses of equation (4).
    """
    from repro.core.literals import FORALL

    x0, y1, x1, x2, y2, x3, x4 = 1, 2, 3, 4, 5, 6, 7
    prefix = Prefix.tree(
        [
            (
                EXISTS,
                (x0,),
                (
                    (FORALL, (y1,), ((EXISTS, (x1, x2), ()),)),
                    (FORALL, (y2,), ((EXISTS, (x3, x4), ()),)),
                ),
            )
        ]
    )
    clauses = [
        (x0, x1, x2),
        (y1, -x1, x2),
        (x1, -x2),
        (x0, -x1, -x2),
        (-x0, x3, x4),
        (y2, -x3, x4),
        (x3, -x4),
        (-x0, -x3, -x4),
    ]
    return QBF(prefix, clauses)
