"""Explicit-state reachability: the DIA suite's ground truth.

The paper checks diameters against known values (counter: 2^N; semaphore: 3
for N ≥ 3). We compute the reference value directly by multi-source BFS over
the explicit state graph, evaluating the model's symbolic ``I``/``T`` on
concrete states — an entirely independent code path from the QBF pipeline,
so agreement between the two is strong evidence both are right.

Complexity is O(4^bits) formula evaluations; intended for the small models
the benchmarks use (≤ ~10 bits).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from repro.formulas.ast import evaluate_closed
from repro.smv.models import SymbolicModel

State = Tuple[bool, ...]

#: guard against accidental use on large models.
MAX_BITS = 14


def all_states(model: SymbolicModel) -> List[State]:
    if model.num_bits > MAX_BITS:
        raise ValueError("explicit enumeration limited to %d bits" % MAX_BITS)
    return [tuple(bits) for bits in itertools.product((False, True), repeat=model.num_bits)]


def initial_states(model: SymbolicModel) -> List[State]:
    """Concrete states satisfying I(s)."""
    n = model.num_bits
    cur = list(range(1, n + 1))
    init_formula = model.init(cur)
    out = []
    for state in all_states(model):
        env = {cur[i]: state[i] for i in range(n)}
        if evaluate_closed(init_formula, env):
            out.append(state)
    return out


def successor_map(model: SymbolicModel) -> Dict[State, List[State]]:
    """Concrete transition relation as an adjacency map."""
    n = model.num_bits
    cur = list(range(1, n + 1))
    nxt = list(range(n + 1, 2 * n + 1))
    trans_formula = model.trans(cur, nxt)
    states = all_states(model)
    adjacency: Dict[State, List[State]] = {}
    for s in states:
        env = {cur[i]: s[i] for i in range(n)}
        succs = []
        for t in states:
            env.update({nxt[i]: t[i] for i in range(n)})
            if evaluate_closed(trans_formula, env):
                succs.append(t)
        adjacency[s] = succs
    return adjacency


def distances(model: SymbolicModel) -> Dict[State, int]:
    """BFS distance of every reachable state from the initial states."""
    adjacency = successor_map(model)
    frontier = initial_states(model)
    dist: Dict[State, int] = {s: 0 for s in frontier}
    depth = 0
    while frontier:
        depth += 1
        new_frontier: List[State] = []
        for s in frontier:
            for t in adjacency[s]:
                if t not in dist:
                    dist[t] = depth
                    new_frontier.append(t)
        frontier = new_frontier
    return dist


def eccentricity(model: SymbolicModel) -> int:
    """The paper's "state space diameter": max BFS distance from init.

    This is the d for which φ_n (equation (14)) is true exactly when n < d.
    """
    dist = distances(model)
    if not dist:
        raise ValueError("%s has no initial state" % model.name)
    return max(dist.values())


def num_reachable(model: SymbolicModel) -> int:
    return len(distances(model))
