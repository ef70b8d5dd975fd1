"""Random QBF generation.

Two families:

* :func:`random_prenex_qbf` — the fixed-clause-length random model the
  QBFEVAL'06 "probabilistic" class generalizes from the SAT literature [35]:
  a prenex prefix of alternating blocks and clauses of ``clause_len``
  distinct variables with random polarities. Clauses with no existential
  literal would be contradictory by Lemma 4 and make instances trivially
  false, so by default each clause is forced to contain at least one
  existential literal (the standard convention for random QBF models).

* :func:`random_tree_qbf` — random *non-prenex* QBFs: a random alternating
  quantifier tree, with every clause attached to a scope (a node of the
  tree) and drawing its variables from the path between the root and that
  scope. The path restriction keeps instances syntactically realizable as
  actual non-prenex formulas: a clause may only mention variables bound at
  the point of the formula where the clause occurs.

Both are deterministic given the :class:`random.Random` instance, which is
how every experiment in the reproduction is seeded.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.core.formula import QBF
from repro.core.literals import EXISTS, Quant
from repro.core.prefix import Prefix, Spec


def _random_clause(
    rng: random.Random,
    pool: Sequence[int],
    clause_len: int,
    existential_vars: frozenset,
    ensure_existential: bool,
) -> Tuple[int, ...]:
    """One random clause over ``pool`` with distinct variables."""
    size = min(clause_len, len(pool))
    while True:
        chosen = rng.sample(list(pool), size)
        lits = tuple(v if rng.random() < 0.5 else -v for v in chosen)
        if not ensure_existential:
            return lits
        if any(abs(l) in existential_vars for l in lits):
            return lits
        # Re-roll: an all-universal clause is contradictory (Lemma 4).
        if not any(v in existential_vars for v in pool):
            # No existential variable visible at all; give up on the
            # requirement rather than loop forever.
            return lits


def random_prenex_qbf(
    rng: random.Random,
    num_blocks: int = 3,
    block_size: int = 2,
    num_clauses: int = 10,
    clause_len: int = 3,
    first: Quant = EXISTS,
    ensure_existential: bool = True,
) -> QBF:
    """A random prenex QBF with ``num_blocks`` alternating blocks."""
    blocks: List[Tuple[Quant, Tuple[int, ...]]] = []
    quant = first
    next_var = 1
    for _ in range(num_blocks):
        vs = tuple(range(next_var, next_var + block_size))
        next_var += block_size
        blocks.append((quant, vs))
        quant = quant.dual
    prefix = Prefix.linear(blocks)
    pool = prefix.variables
    existential_vars = frozenset(v for v in pool if prefix.quant(v) is EXISTS)
    clauses = [
        _random_clause(rng, pool, clause_len, existential_vars, ensure_existential)
        for _ in range(num_clauses)
    ]
    return QBF(prefix, clauses)


def random_tree_qbf(
    rng: random.Random,
    depth: int = 3,
    branching: int = 2,
    block_size: int = 2,
    clauses_per_scope: int = 2,
    clause_len: int = 3,
    root_quant: Quant = EXISTS,
    ensure_existential: bool = True,
) -> QBF:
    """A random non-prenex QBF over a random alternating quantifier tree.

    Args:
        rng: seeded random source.
        depth: number of alternation levels (1 = flat existential).
        branching: maximum children per internal node (actual count is
            uniform in ``1..branching``).
        block_size: variables per block.
        clauses_per_scope: clauses attached to every node of the tree.
        clause_len: literals per clause (capped by visible variables).
        root_quant: quantifier of the root block.
        ensure_existential: avoid trivially contradictory clauses.
    """
    next_var = [1]
    clauses: List[Tuple[int, ...]] = []
    existential_vars = set()
    scopes: List[List[int]] = []

    def grow(level: int, quant: Quant, path_vars: List[int]) -> Spec:
        vs = list(range(next_var[0], next_var[0] + block_size))
        next_var[0] += block_size
        if quant is EXISTS:
            existential_vars.update(vs)
        here = path_vars + vs
        scopes.append(here)
        children: List[Spec] = []
        if level < depth:
            for _ in range(rng.randint(1, branching)):
                children.append(grow(level + 1, quant.dual, here))
        return (quant, tuple(vs), tuple(children))

    roots = [grow(1, root_quant, [])]
    prefix = Prefix.tree(roots)
    frozen_exist = frozenset(existential_vars)
    for pool in scopes:
        for _ in range(clauses_per_scope):
            clauses.append(
                _random_clause(rng, pool, clause_len, frozen_exist, ensure_existential)
            )
    return QBF(prefix, clauses)


def random_qbf(rng: random.Random, prenex: Optional[bool] = None, **kwargs) -> QBF:
    """Convenience dispatcher used by the fuzz tests: either family."""
    if prenex is None:
        prenex = rng.random() < 0.5
    if prenex:
        return random_prenex_qbf(rng, **kwargs)
    return random_tree_qbf(rng, **kwargs)


def random_clustered_qbf(
    rng: random.Random,
    clusters: int = 2,
    num_blocks: int = 3,
    block_size: int = 1,
    clauses_per_cluster: int = 8,
    clause_len: int = 3,
    coupling: float = 0.1,
    first: Quant = EXISTS,
) -> QBF:
    """Random prenex QBF with ``clusters`` loosely coupled sub-games.

    This is the "probabilistic class" workload of the Figure-7 experiment:
    a prenex instance whose clauses mostly stay within one variable cluster
    (each cluster also has its own alternating sub-prefix, interleaved into
    the total order), with a ``coupling`` fraction of clauses drawing
    variables across clusters. At ``coupling = 0`` scope minimization
    recovers ``clusters`` independent branches; at high coupling it
    recovers nothing — mirroring the paper's observation that only a
    minority of evaluation instances pass the PO/TO > 20% filter.
    """
    if clusters < 1:
        raise ValueError("need at least one cluster")
    cluster_vars: List[List[Tuple[Quant, Tuple[int, ...]]]] = []
    next_var = 1
    for _ in range(clusters):
        quant = first
        blocks = []
        for _ in range(num_blocks):
            vs = tuple(range(next_var, next_var + block_size))
            next_var += block_size
            blocks.append((quant, vs))
            quant = quant.dual
        cluster_vars.append(blocks)
    # Interleave: block i of every cluster before block i+1 of any cluster.
    prefix_blocks: List[Tuple[Quant, Tuple[int, ...]]] = []
    for i in range(num_blocks):
        for blocks in cluster_vars:
            prefix_blocks.append(blocks[i])
    prefix = Prefix.linear(prefix_blocks)
    all_pool = prefix.variables
    existential_vars = frozenset(v for v in all_pool if prefix.quant(v) is EXISTS)
    clauses = []
    for blocks in cluster_vars:
        pool = tuple(v for _, vs in blocks for v in vs)
        for _ in range(clauses_per_cluster):
            chosen_pool = all_pool if rng.random() < coupling else pool
            clauses.append(
                _random_clause(rng, chosen_pool, clause_len, existential_vars, True)
            )
    return QBF(prefix, clauses)
