"""The incremental branching frontier, paranoid trail guard, and hoisted
pickers: equivalence tests for the flat-array kernels.

The frontier contract: ``Trail.available_vars()`` (per-block counters
maintained under push/unassign) must return exactly what the recursive
quantifier-tree walk ``SearchEngine._available_vars()`` returns — same
variables, same (DFS) order — in *every* reachable search state, for every
engine, on prenex (TO) and tree (PO) prefixes alike. The picker contract:
the fused frontier picker (``make_picker`` with a trail, or the engine's
compiled one) returns the literal the list picker returns on that list.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import SearchEngine
from repro.core.engine.config import SolverConfig
from repro.core.engine.trail import Trail
from repro.core.heuristics import POLICIES, ScoreKeeper, make_picker, pick_literal
from repro.core.literals import EXISTS
from repro.core.prefix import Prefix
from repro.generators.random_qbf import random_qbf
from repro.prenexing.strategies import prenex
from tests.engines import ENGINE_LEGS


def _reference_available(prefix, value):
    """The pre-kernel recursive tree walk, reimplemented independently."""
    out = []

    def visit(block, pending_lt, pending_eq):
        pending_here = False
        for v in block.variables:
            if value[v] == 0:
                pending_here = True
                if not pending_lt:
                    out.append(v)
        for child in block.children:
            if child.level == block.level:
                visit(child, pending_lt, pending_eq or pending_here)
            else:
                visit(child, pending_lt or pending_eq or pending_here, False)

    visit(prefix.root, False, False)
    return out


# -- direct push/unassign driver on a bare Trail ------------------------------


#: counter values for random score states: few, so that ties are common,
#: and one tiny enough to vanish when a subtree maximum is added.
_SCORES = (0.0, 1e-30, 0.25, 1.0, 3.0, 7.5)


def _random_scores(rng, keeper):
    for lit in keeper.score:
        keeper.score[lit] = rng.choice(_SCORES)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_frontier_matches_tree_walk_under_random_stack_ops(seed):
    rng = random.Random(seed)
    phi = random_qbf(
        rng,
        prenex=False,
        depth=rng.randint(1, 4),
        branching=rng.randint(1, 3),
        block_size=rng.randint(1, 3),
        clauses_per_scope=1,
        clause_len=2,
    )
    prefix = phi.prefix
    nv = max(prefix.variables, default=0)
    trail = Trail(nv, prefix=prefix)
    keeper = ScoreKeeper(prefix)
    _random_scores(rng, keeper)
    pickers = [(make_picker(p, keeper), make_picker(p, keeper, trail)) for p in POLICIES]
    assigned = []  # stack of literals, mirroring real trail discipline
    for _ in range(rng.randint(5, 60)):
        unassigned = [v for v in prefix.variables if trail.value[v] == 0]
        if assigned and (not unassigned or rng.random() < 0.4):
            # pop a random-length suffix, exactly like a backtrack
            keep = rng.randrange(len(assigned))
            for lit in reversed(assigned[keep:]):
                trail.unassign(lit)
            del assigned[keep:]
        elif unassigned:
            # any variable, or (as a search would) all of an available
            # block, which leaves frontiers spanning several levels
            if rng.random() < 0.5:
                block = [rng.choice(unassigned)]
            else:
                block = prefix.block_of(rng.choice(trail.available_vars())).variables
            for v in block:
                if trail.value[v] == 0:
                    lit = v if rng.random() < 0.5 else -v
                    trail.push(lit, None)
                    assigned.append(lit)
        available = _reference_available(prefix, trail.value)
        assert trail.available_vars() == available
        for listed, fused in pickers:
            assert fused() == listed(available)


# -- in-search equivalence: every decision point of a real solve --------------


def _solve_checking_frontier(phi, engine, policy):
    """Solve, checking the frontier and the pickers before every decision."""
    config = SolverConfig(max_decisions=300, engine=engine, policy=policy)
    solver = SearchEngine(phi, config)
    listed = make_picker(policy, solver._keeper)
    fused = make_picker(policy, solver._keeper, solver.trail)
    decided = []
    inner = solver._decide

    def checked():
        available = solver._available_vars()
        assert solver.trail.available_vars() == available
        want = listed(available)
        assert fused() == want
        assert solver._frontier_pick() == want  # compiled on native levelsub
        decided.append(want)
        return inner()

    solver._decide = checked
    solver.solve()
    assert solver.stats.engine_fallback == ""
    assert len([lit for lit in decided if lit is not None]) == solver.stats.decisions
    # final state (post-backtracks) must agree too
    assert solver.trail.available_vars() == solver._available_vars()


@pytest.mark.parametrize("engine", ENGINE_LEGS)
@pytest.mark.parametrize("pipeline", ["po", "to"])
@pytest.mark.parametrize("seed", range(12))
def test_frontier_matches_walk_at_every_decision(seed, pipeline, engine):
    rng = random.Random(seed)
    phi = random_qbf(
        rng,
        prenex=False,
        depth=2,
        branching=2,
        block_size=rng.randint(1, 2),
        clauses_per_scope=2,
        clause_len=3,
    )
    if pipeline == "to":
        phi = prenex(phi)
    for policy in POLICIES:
        _solve_checking_frontier(phi, engine, policy)


# -- the paranoid double-assignment guard -------------------------------------


def test_paranoid_push_still_raises_on_double_assignment():
    prefix = Prefix.linear([(EXISTS, (1, 2))])
    trail = Trail(2, prefix=prefix, paranoid=True)
    trail.push(1, None)
    with pytest.raises(AssertionError):
        trail.push(1, None)
    with pytest.raises(AssertionError):
        trail.push(-1, None)


def test_release_push_skips_the_guard():
    prefix = Prefix.linear([(EXISTS, (1, 2))])
    trail = Trail(2, prefix=prefix, paranoid=False)
    trail.push(1, None)
    assert trail.lit_value(1) is True
    assert trail.push == trail._push_fast


def test_paranoid_config_flag_reaches_the_trail(monkeypatch):
    # the default config reads REPRO_PARANOID: clear any ambient setting
    monkeypatch.delenv("REPRO_PARANOID", raising=False)
    phi = random_qbf(random.Random(0), prenex=False, depth=1, branching=1)
    engine = SearchEngine(phi, SolverConfig(paranoid=True))
    assert engine.trail.push == engine.trail._push_checked
    engine = SearchEngine(phi, SolverConfig())
    assert engine.trail.push == engine.trail._push_fast
    monkeypatch.setenv("REPRO_PARANOID", "1")
    assert SolverConfig().paranoid is True
    monkeypatch.setenv("REPRO_PARANOID", "0")
    assert SolverConfig().paranoid is False


def test_paranoid_run_is_decision_identical():
    rng = random.Random(7)
    phi = random_qbf(rng, prenex=False, depth=2, branching=2,
                     clauses_per_scope=2, clause_len=3)
    cfg = SolverConfig(max_decisions=500)
    plain = SearchEngine(phi, cfg).solve()
    cfg_p = SolverConfig(max_decisions=500, paranoid=True)
    guarded = SearchEngine(phi, cfg_p).solve()
    assert plain.outcome == guarded.outcome
    assert plain.stats == guarded.stats


# -- hoisted pickers: identical literals, all four policies -------------------


def _legacy_pick(policy, keeper, available):
    """The pre-hoist pick_literal, lambdas rebuilt per call (reference)."""
    if not available:
        return None
    if policy == "naive":
        return min(available)
    if policy == "counter":
        key = lambda v: (max(keeper.score[v], keeper.score[-v]), -v)
    elif policy == "subtree":
        key = lambda v: (max(keeper.effective(v), keeper.effective(-v)), -v)
    elif policy == "levelsub":
        prefix = keeper.prefix
        key = lambda v: (
            -prefix.level(v),
            max(keeper.effective(v), keeper.effective(-v)),
            -v,
        )
    var = max(available, key=key)
    return var if keeper.score[var] >= keeper.score[-var] else -var


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_all_policies_pick_identical_literals(seed):
    rng = random.Random(seed)
    phi = random_qbf(
        rng,
        prenex=False,
        depth=rng.randint(1, 3),
        branching=rng.randint(1, 2),
        block_size=rng.randint(1, 3),
        clauses_per_scope=1,
        clause_len=2,
    )
    prefix = phi.prefix
    keeper = ScoreKeeper(prefix)
    # random score state, bumped through the public API
    for _ in range(rng.randint(0, 30)):
        keeper.on_learned(
            [v if rng.random() < 0.5 else -v
             for v in rng.sample(prefix.variables, rng.randint(1, len(prefix.variables)))]
        )
    pool = list(prefix.variables)
    rng.shuffle(pool)
    available = pool[: rng.randint(0, len(pool))]
    for policy in ("levelsub", "subtree", "counter", "naive"):
        expected = _legacy_pick(policy, keeper, available)
        assert make_picker(policy, keeper)(available) == expected
        assert pick_literal(policy, keeper, available) == expected
