"""The recursive Q-DLL of Figure 1, generalized to arbitrary QBFs.

This is a direct transcription of the paper's pseudo-code (Section III) with
the Section IV generalizations:

* line 1 — FALSE on a *contradictory* clause (all-universal, Lemma 4);
* line 2 — TRUE on an empty matrix;
* line 3 — simplify on a *unit* literal, with the partial-order definition
  of unit (``|l_i| ⊀ |l|`` for the universal companions, Lemma 5);
* lines 4-6 — branch on a heuristically chosen *top* literal, "or"-combining
  for existentials and "and"-combining for universals.

The implementation recurses on explicit cofactors (``QBF.assign``), exactly
like the pseudo-code; it is the readable reference, not the fast engine.
It optionally records the search tree, which is how
``examples/paper_example.py`` regenerates Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.core.constraints import is_contradictory, unit_literal
from repro.core.formula import QBF
from repro.core.literals import EXISTS
from repro.core.result import BudgetExceeded


@dataclass
class SearchNode:
    """One node of a recorded Q-DLL search tree (compare Figure 2)."""

    number: int
    path: Tuple[int, ...]
    matrix: Tuple[Tuple[int, ...], ...]
    verdict: Optional[bool] = None
    children: List["SearchNode"] = field(default_factory=list)

    def render(self, indent: int = 0) -> str:
        """Figure-2-style indented rendering of the subtree."""
        label = "%d: %s" % (self.number, list(map(list, self.matrix)))
        if self.verdict is not None:
            label += "  -> %s" % ("TRUE" if self.verdict else "FALSE")
        lines = ["  " * indent + label]
        for child in self.children:
            edge = "  " * (indent + 1) + "branch %d" % child.path[-1]
            lines.append(edge)
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


@dataclass
class SimpleStats:
    """Counters reported by :func:`q_dll`."""

    branches: int = 0
    units: int = 0
    nodes: int = 0


#: Signature of a branching heuristic: given the current QBF, return a top
#: literal to assign as a branch.
Heuristic = Callable[[QBF], int]


def first_top_literal(formula: QBF) -> int:
    """Default heuristic: smallest top variable, positive phase first."""
    return formula.prefix.top_variables()[0]


def q_dll(
    formula: QBF,
    heuristic: Heuristic = first_top_literal,
    record_tree: bool = False,
    max_branches: Optional[int] = None,
) -> Tuple[bool, SimpleStats, Optional[SearchNode]]:
    """Run the Figure-1 Q-DLL procedure.

    Args:
        formula: input QBF (prenex or not).
        heuristic: branching literal chooser (must return a top literal).
        record_tree: capture the explored tree for inspection.
        max_branches: optional budget; :class:`BudgetExceeded` when hit.

    Returns:
        ``(value, stats, tree_root_or_None)``.
    """
    stats = SimpleStats()
    counter = [0]

    def new_node(path: Tuple[int, ...], current: QBF) -> Optional[SearchNode]:
        if not record_tree:
            return None
        counter[0] += 1
        return SearchNode(counter[0], path, tuple(c.lits for c in current.clauses))

    def rec(current: QBF, path: Tuple[int, ...], node: Optional[SearchNode]) -> bool:
        stats.nodes += 1
        if max_branches is not None and stats.branches > max_branches:
            raise BudgetExceeded(stats.branches)
        if any(is_contradictory(c.lits, current.prefix) for c in current.clauses):
            if node is not None:
                node.verdict = False
            return False
        if not current.clauses:
            if node is not None:
                node.verdict = True
            return True
        for clause in current.clauses:
            lit = unit_literal(clause.lits, current.prefix)
            if lit is not None:
                stats.units += 1
                return rec(current.assign(lit), path, node)
        lit = heuristic(current)
        stats.branches += 1
        left = current.assign(lit)
        left_node = new_node(path + (lit,), left)
        if node is not None and left_node is not None:
            node.children.append(left_node)
        left_value = rec(left, path + (lit,), left_node)
        existential = current.prefix.quant(lit) is EXISTS
        if existential and left_value:
            if node is not None:
                node.verdict = True
            return True
        if not existential and not left_value:
            if node is not None:
                node.verdict = False
            return False
        stats.branches += 1
        right = current.assign(-lit)
        right_node = new_node(path + (-lit,), right)
        if node is not None and right_node is not None:
            node.children.append(right_node)
        right_value = rec(right, path + (-lit,), right_node)
        value = (left_value or right_value) if existential else (left_value and right_value)
        if node is not None:
            node.verdict = value
        return value

    root = new_node((), formula)
    value = rec(formula, (), root)
    return value, stats, root

