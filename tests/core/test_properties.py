"""Hypothesis property tests on the kernel's core invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import (
    Clause,
    existential_reduce,
    resolve,
    universal_reduce,
)
from repro.core.engine.backend import Rec
from repro.core.expansion import evaluate
from repro.core.formula import QBF
from repro.core.heuristics import ScoreKeeper, make_picker
from repro.core.learning import TrailView, build_model_cube
from repro.core.literals import EXISTS, FORALL
from repro.core.prefix import Prefix
from repro.core.solver import SolverConfig, solve
from repro.generators.random_qbf import random_prenex_qbf, random_qbf
from repro.io import qtree
from repro.prenexing.miniscoping import miniscope
from repro.prenexing.strategies import STRATEGIES, prenex

# A compact strategy for random prefixes: alternating blocks over 1..n.
prefix_strategy = st.integers(min_value=1, max_value=4).flatmap(
    lambda blocks: st.tuples(
        st.just(blocks),
        st.integers(min_value=1, max_value=3),
        st.booleans(),
    )
)


def _make_prefix(spec):
    blocks, size, start_exists = spec
    quant = EXISTS if start_exists else FORALL
    out = []
    v = 1
    for _ in range(blocks):
        out.append((quant, tuple(range(v, v + size))))
        v += size
        quant = quant.dual
    return Prefix.linear(out)


def _random_lits(rng, prefix, max_len):
    pool = list(prefix.variables)
    rng.shuffle(pool)
    chosen = pool[: rng.randint(1, min(max_len, len(pool)))]
    return tuple(v if rng.random() < 0.5 else -v for v in chosen)


@given(prefix_strategy, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_universal_reduce_is_idempotent_and_shrinking(spec, seed):
    prefix = _make_prefix(spec)
    rng = random.Random(seed)
    lits = _random_lits(rng, prefix, 6)
    once = universal_reduce(lits, prefix)
    assert set(once) <= set(lits)
    assert universal_reduce(once, prefix) == once
    # No existential literal is ever deleted.
    for l in lits:
        if prefix.is_existential(l):
            assert l in once


@given(prefix_strategy, st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_existential_reduce_is_dual(spec, seed):
    prefix = _make_prefix(spec)
    rng = random.Random(seed)
    lits = _random_lits(rng, prefix, 6)
    once = existential_reduce(lits, prefix)
    assert set(once) <= set(lits)
    assert existential_reduce(once, prefix) == once
    for l in lits:
        if prefix.is_universal(l):
            assert l in once


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_resolution_never_contains_pivot(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    pivot = rng.randint(1, n)
    a = tuple(
        set(
            [pivot]
            + [rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), rng.randint(0, n - 1))]
        )
    )
    b = tuple(
        set(
            [-pivot]
            + [rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), rng.randint(0, n - 1))]
        )
    )
    try:
        Clause(a), Clause(b)
    except ValueError:
        return  # a or b had an internal tautology; not a valid input
    resolvent = resolve(a, b, pivot)
    if resolvent is not None:
        assert pivot not in resolvent and -pivot not in resolvent
        assert set(resolvent) <= (set(a) | set(b)) - {pivot, -pivot}


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_solver_agrees_with_oracle(seed):
    rng = random.Random(seed)
    phi = random_qbf(
        rng,
        prenex=bool(seed % 2),
        **(
            dict(num_blocks=rng.randint(2, 3), block_size=rng.randint(1, 2),
                 num_clauses=rng.randint(3, 10), clause_len=3)
            if seed % 2
            else dict(depth=2, branching=2, block_size=rng.randint(1, 2),
                      clauses_per_scope=2, clause_len=3)
        ),
    )
    expected = evaluate(phi, max_vars=None)
    assert solve(phi).value == expected
    assert solve(phi, SolverConfig(learn_clauses=False, learn_cubes=False)).value == expected


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(STRATEGIES))
@settings(max_examples=30, deadline=None)
def test_prenexing_preserves_value_and_extends_order(seed, strategy):
    rng = random.Random(seed)
    phi = random_qbf(rng, prenex=False, depth=2, branching=2, block_size=1,
                     clauses_per_scope=2, clause_len=3)
    flat = prenex(phi, strategy)
    assert flat.is_prenex
    for a in phi.prefix.variables:
        for b in phi.prefix.variables:
            if a != b and phi.prefix.prec(a, b):
                assert flat.prefix.prec(a, b)
    assert solve(flat).value == solve(phi).value


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_miniscope_preserves_value(seed):
    rng = random.Random(seed)
    phi = random_prenex_qbf(rng, num_blocks=rng.randint(2, 3), block_size=2,
                            num_clauses=rng.randint(3, 10), clause_len=3)
    tree = miniscope(phi)
    assert solve(tree).value == solve(phi).value


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_qtree_roundtrip(seed):
    rng = random.Random(seed)
    phi = random_qbf(rng)
    assert qtree.loads(qtree.dumps(phi)) == phi


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_certified_to_po_and_simple_agree(seed):
    """TO, PO and the Figure-1 reference solver agree on random non-prenex
    QBFs, and every determined engine outcome carries an independently
    checked resolution certificate — the TO proof validated against the
    original tree formula."""
    from repro.certify import (
        MemorySink,
        ProofLogger,
        certifying_config,
        check_certificate,
    )
    from repro.core.simple import q_dll
    from repro.core.solver import QdpllSolver

    rng = random.Random(seed)
    phi = random_qbf(rng, prenex=False, depth=2, branching=2,
                     block_size=rng.randint(1, 2), clauses_per_scope=2, clause_len=3)
    reference, _, _ = q_dll(phi)

    config = certifying_config()
    for variant in (phi, prenex(phi)):  # PO solves the tree, TO the prenexing
        sink = MemorySink()
        result = QdpllSolver(variant, config, proof=ProofLogger(sink)).solve()
        assert result.value == reference
        report = check_certificate(phi, sink)
        assert report.status == "verified", report
        assert report.outcome == ("true" if reference else "false")


@given(prefix_strategy)
@settings(max_examples=40, deadline=None)
def test_prec_is_a_strict_partial_order(spec):
    prefix = _make_prefix(spec)
    vs = prefix.variables
    for a in vs:
        assert not prefix.prec(a, a)
        for b in vs:
            if prefix.prec(a, b):
                assert not prefix.prec(b, a)
            for c in vs:
                if prefix.prec(a, b) and prefix.prec(b, c):
                    assert prefix.prec(a, c)


# -- the hot-path rewrites against their definitions, on tree prefixes -------


def _random_tree_prefix(rng):
    """A random quantifier forest over 1..n. Every block draws its own
    quantifier, so branch points also get children of their parent's
    quantifier (normalization merges only same-quantifier only-children)."""
    next_var = [1]

    def block(depth):
        size = rng.randint(1, 3)
        variables = tuple(range(next_var[0], next_var[0] + size))
        next_var[0] += size
        kids = rng.randint(0, 3) if depth < 3 else 0
        children = tuple(block(depth + 1) for _ in range(kids))
        return (rng.choice((EXISTS, FORALL)), variables, children)

    return Prefix.tree([block(0) for _ in range(rng.randint(1, 2))])


def _has_same_quantifier_branch_child(prefix):
    return any(
        len(b.children) > 1 and any(c.quant is b.quant for c in b.children)
        for b in prefix.blocks
    )


def test_tree_prefixes_include_same_quantifier_branch_children():
    hits = sum(
        _has_same_quantifier_branch_child(_random_tree_prefix(random.Random(seed)))
        for seed in range(200)
    )
    assert hits >= 20


def _shuffled_lits(rng, prefix):
    pool = list(prefix.variables)
    rng.shuffle(pool)
    chosen = pool[: rng.randint(0, len(pool))]
    return tuple(v if rng.random() < 0.5 else -v for v in chosen)


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=150, deadline=None)
def test_reductions_match_the_prec_definition_on_trees(seed):
    rng = random.Random(seed)
    prefix = _random_tree_prefix(rng)
    lits = _shuffled_lits(rng, prefix)
    exist = [l for l in lits if prefix.is_existential(l)]
    univ = [l for l in lits if prefix.is_universal(l)]
    # Lemma 3: a universal stays iff it precedes an existential of the clause.
    assert universal_reduce(lits, prefix) == tuple(
        l for l in lits if l in exist or any(prefix.prec(l, e) for e in exist)
    )
    # The dual: an existential stays iff it precedes a universal of the cube.
    assert existential_reduce(lits, prefix) == tuple(
        l for l in lits if l in univ or any(prefix.prec(l, u) for u in univ)
    )


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=150, deadline=None)
def test_model_cube_array_path_matches_callable_path(seed):
    rng = random.Random(seed)
    prefix = _random_tree_prefix(rng)
    variables = list(prefix.variables)
    assigned = [v for v in variables if rng.random() < 0.8] or variables[:1]
    rng.shuffle(assigned)
    truth = {v: rng.choice((v, -v)) for v in assigned}  # the true literal
    position = {v: i for i, v in enumerate(assigned)}
    clauses = []
    for _ in range(rng.randint(1, 12)):
        pool = rng.sample(variables, rng.randint(1, min(4, len(variables))))
        clause = [v if rng.random() < 0.5 else -v for v in pool]
        if not any(l == truth.get(abs(l)) for l in clause):
            v = rng.choice(assigned)
            clause = [l for l in clause if abs(l) != v] + [truth[v]]
        clauses.append(Clause(clause))

    def value(lit):
        t = truth.get(abs(lit))
        return None if t is None else t == lit

    # The engine's records: n_true counts the true literals and first is
    # the true literal of least trail position, by definition.
    records = []
    for clause in clauses:
        rec = Rec(clause, original=True)
        sats = [l for l in clause if value(l) is True]
        rec.n_true = len(sats)
        rec.first = min(sats, key=lambda l: position[abs(l)])
        records.append(rec)
    num_slots = max(variables) + 1
    lit_val = [0] * (2 * num_slots)
    pos = [-1] * num_slots
    for v, t in truth.items():
        lit_val[num_slots + t] = 1
        lit_val[num_slots - t] = -1
        pos[v] = position[v]
    common = dict(value=value, level_of=lambda v: 1, pos_of=position.__getitem__,
                  reason_of=lambda v: None, prefix=prefix)
    arrays = TrailView(lit_val=lit_val, base=num_slots, pos_arr=pos, **common)
    by_callables = build_model_cube(clauses, TrailView(**common))
    by_arrays = build_model_cube(records, arrays)
    assert by_arrays == by_callables
    assert list(by_arrays) == sorted(by_arrays, key=lambda l: (abs(l), l))
    assert all(value(l) is True for l in by_arrays)
    assert all(set(clause) & set(by_arrays) for clause in clauses)
    # An unsatisfied clause is refused on both paths.
    unsat = Rec(Clause([-truth[assigned[0]]]), original=True)
    for view, matrix in ((arrays, records + [unsat]),
                         (TrailView(**common), clauses + [unsat.constraint])):
        with pytest.raises(ValueError):
            build_model_cube(matrix, view)


def _brute_effective(keeper, prefix, lit):
    """Section VI by recursion: the literal's counter plus the largest
    score one alternation deeper in its scope (0 when there is none)."""

    def child_max(block):
        best = 0.0
        for child in block.children:
            best = max(best, subtree_max(child) if child.level > block.level
                       else child_max(child))
        return best

    def subtree_max(block):
        kid = child_max(block)
        return max([0.0] + [keeper.score[l] + kid
                            for v in block.variables for l in (v, -v)])

    return keeper.score[lit] + child_max(prefix.block_of(abs(lit)))


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=100, deadline=None)
def test_tree_pickers_match_brute_force_effective_ranking(seed):
    rng = random.Random(seed)
    prefix = _random_tree_prefix(rng)
    variables = list(prefix.variables)
    keeper = ScoreKeeper(prefix, decay_interval=rng.randint(1, 5))
    pickers = {p: make_picker(p, keeper) for p in ("levelsub", "subtree")}
    for _ in range(rng.randint(1, 6)):
        # bump (and now and then decay) through the public API; the pickers
        # run while the subtree maxima are stale
        for _ in range(rng.randint(0, 4)):
            keeper.on_learned([v if rng.random() < 0.5 else -v
                               for v in rng.sample(variables, rng.randint(1, len(variables)))])
        available = rng.sample(variables, rng.randint(0, len(variables)))
        got = {p: pick(available) for p, pick in pickers.items()}
        for v in variables:
            for lit in (v, -v):
                assert keeper.effective(lit) == _brute_effective(keeper, prefix, lit)
        if not available:
            assert got == {"levelsub": None, "subtree": None}
            continue

        def best(v):
            return max(keeper.effective(v), keeper.effective(-v))

        for policy, key in (
            ("levelsub", lambda v: (-prefix.level(v), best(v), -v)),
            ("subtree", lambda v: (best(v), -v)),
        ):
            var = max(available, key=key)
            assert got[policy] == (var if keeper.score[var] >= keeper.score[-var] else -var)
