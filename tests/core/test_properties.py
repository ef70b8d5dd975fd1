"""Hypothesis property tests on the kernel's core invariants."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.constraints import (
    Clause,
    dropped_blocks,
    existential_reduce,
    resolve,
    universal_reduce,
)
from repro.core.engine.backend import Rec
from repro.core.expansion import evaluate
from repro.core.formula import QBF
from repro.core.heuristics import ScoreKeeper, make_picker
from repro.core.learning import TrailView, build_model_cube
from repro.core.literals import EXISTS, FORALL, check_no_duplicate_vars
from repro.core.prefix import Prefix
from repro.core.solver import SolverConfig, solve
from repro.generators.random_qbf import random_prenex_qbf, random_qbf
from repro.io import qtree
from repro.prenexing.miniscoping import miniscope
from repro.prenexing.strategies import STRATEGIES, prenex
from tests.engines import BUILT_BACKENDS

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
    # The record path chooses the same set and returns it reduced.
    assert arrays.model_set == set(by_callables)
    assert by_arrays == existential_reduce(by_callables, prefix)
    assert list(by_callables) == sorted(by_callables, key=lambda l: (abs(l), l))
    assert all(value(l) is True for l in by_callables)
    assert all(set(clause) & set(by_callables) for clause in clauses)
    # An unsatisfied clause is refused on both paths.
    unsat = Rec(Clause([-truth[assigned[0]]]), original=True)
    for view, matrix in ((arrays, records + [unsat]),
                         (TrailView(**common), clauses + [unsat.constraint])):
        with pytest.raises(ValueError):
            build_model_cube(matrix, view)


def _brute_child_max(keeper, block):
    """Section VI by recursion: the largest score one alternation deeper
    in the block's scope (0 when there is none)."""
    best = 0.0
    for child in block.children:
        best = max(best, _brute_subtree_max(keeper, child) if child.level > block.level
                   else _brute_child_max(keeper, child))
    return best


def _brute_subtree_max(keeper, block):
    kid = _brute_child_max(keeper, block)
    return max([0.0] + [keeper.score[l] + kid
                        for v in block.variables for l in (v, -v)])


def _brute_effective(keeper, prefix, lit):
    """The literal's counter plus its block's deeper-subtree maximum."""
    return keeper.score[lit] + _brute_child_max(keeper, prefix.block_of(abs(lit)))


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


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=150, deadline=None)
def test_subtree_maxima_match_the_definition_under_every_score_write(seed):
    """The per-block counter maxima stay exact under bumps, decays, the
    matrix bump and direct writes that lower a counter, so the block-only
    fold yields the Section VI maxima bit for bit."""
    rng = random.Random(seed)
    prefix = _random_tree_prefix(rng)
    variables = list(prefix.variables)
    keeper = ScoreKeeper(prefix, decay_interval=rng.randint(1, 4))
    keeper.bump_initial([[v if rng.random() < 0.5 else -v for v in rng.sample(variables, 2)]
                         for _ in range(rng.randint(0, 4))] if len(variables) > 1 else [])
    for _ in range(rng.randint(1, 12)):
        op = rng.random()
        if op < 0.5:
            keeper.on_learned([v if rng.random() < 0.5 else -v
                               for v in rng.sample(variables, rng.randint(1, len(variables)))])
        else:
            v = rng.choice(variables)
            keeper.score[v if op < 0.75 else -v] = rng.choice((0.0, 1e-30, 0.5, 2.0, 9.0))
        keeper.effective(variables[0])  # refresh the maxima
        for block in prefix.blocks:
            assert keeper._child_max[block.index] == _brute_child_max(keeper, block)
            assert keeper._subtree_max[block.index] == _brute_subtree_max(keeper, block)


def _lits_of_blocks(prefix, blocks):
    return {l for b in blocks for v in prefix.blocks[b].variables for l in (v, -v)}


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=150, deadline=None)
def test_block_table_names_every_literals_block_and_the_dropped_ones(seed):
    rng = random.Random(seed)
    prefix = _random_tree_prefix(rng)
    tab = prefix.tables()
    for v in prefix.variables:
        assert tab.lit_block[v] == tab.lit_block[-v] == prefix.block_of(v).index
    lits = _shuffled_lits(rng, prefix)
    blocks = {prefix.block_of(abs(l)).index for l in lits}
    for deletable_exist, reduce in ((False, universal_reduce), (True, existential_reduce)):
        dropped = dropped_blocks(blocks, tab, deletable_exist)
        assert set(reduce(lits, prefix)) == set(lits) - _lits_of_blocks(prefix, dropped)


def _old_check_no_duplicate_vars(lits):
    """The per-literal validation the C-speed one replaced, verbatim."""
    out = sorted(set(lits), key=lambda l: (abs(l), l))
    seen = set()
    for lit in out:
        if lit == 0:
            raise ValueError("0 is not a literal")
        v = abs(lit)
        if v in seen:
            raise ValueError("variable %d occurs twice in %r" % (v, out))
        seen.add(v)
    return tuple(out)


@given(st.lists(st.integers(min_value=-6, max_value=6), max_size=10), st.booleans())
@settings(max_examples=400, deadline=None)
def test_duplicate_check_matches_the_literal_walk(lits, as_tuple):
    arg = tuple(lits) if as_tuple else lits
    try:
        want = _old_check_no_duplicate_vars(lits)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            check_no_duplicate_vars(arg)
        assert str(caught.value) == str(exc)
        return
    got = check_no_duplicate_vars(arg)
    assert type(got) is tuple and got == want
    # A canonical tuple comes back as itself; anything else as a new tuple.
    assert (got is arg) == (as_tuple and arg == want)
    assert check_no_duplicate_vars(want) is want


def _reference_model_cube(engine):
    """The callable-view reference over the engine's current trail."""
    trail = engine.trail
    view = TrailView(value=trail.lit_value, level_of=trail.level.__getitem__,
                     pos_of=trail.pos.__getitem__, reason_of=lambda v: None,
                     prefix=engine.prefix)
    return build_model_cube([rec.lits for rec in engine.backend.orig_clauses], view)


def _check_model_cubes(engine, seed):
    """At every solution no learned cube covers, the counters engine's
    record-path cube is the reference's cube existentially reduced, and a
    certificate logs the reference's full cube, on a random tree formula
    and on its prenexing; the keeper's maxima end every solve exact.
    Returns how many record-path cubes the reduction shortened."""
    from unittest import mock

    from repro.certify import MemorySink, ProofLogger, certifying_config
    from repro.core.engine import search
    from repro.core.solver import QdpllSolver

    rng = random.Random(seed)
    # Deep trees with long clauses are often true with universals in their
    # model cubes, so the reduction keeps some literals and drops others.
    phi = random_qbf(rng, prenex=False, depth=4, branching=2,
                     block_size=rng.randint(2, 3), clauses_per_scope=2, clause_len=5)
    refs, built, logged = [], [], []
    handle = search.SearchEngine._handle_solution
    build = search.build_model_cube
    begin = ProofLogger.begin_initial_cube

    def traced_handle(self, rec):
        if rec is None:
            refs.append(_reference_model_cube(self))
        return handle(self, rec)

    def traced_build(clauses, view):
        built.append(build(clauses, view))
        return built[-1]

    def traced_begin(self, lits):
        logged.append(lits)
        return begin(self, lits)

    shortened = 0
    for variant in (phi, prenex(phi, rng.choice(STRATEGIES))):
        for certified in (False, True):
            config = SolverConfig(engine=engine)
            refs.clear(), built.clear(), logged.clear()
            with mock.patch.object(search.SearchEngine, "_handle_solution", traced_handle), \
                    mock.patch.object(search, "build_model_cube", traced_build), \
                    mock.patch.object(ProofLogger, "begin_initial_cube", traced_begin):
                if certified:
                    solver = QdpllSolver(variant, certifying_config(config),
                                         proof=ProofLogger(MemorySink()))
                else:
                    solver = QdpllSolver(variant, config)
                solver.solve()
            if engine == "counters":
                assert built == [existential_reduce(c, variant.prefix) for c in refs]
                shortened += sum(0 < len(b) < len(c) for b, c in zip(built, refs))
            else:
                assert built == []
            assert logged == (refs if certified else [])
            keeper = solver._keeper
            keeper._recompute()
            for block in variant.prefix.blocks:
                assert keeper._subtree_max[block.index] == _brute_subtree_max(keeper, block)
    return shortened


@pytest.mark.parametrize("engine", BUILT_BACKENDS)
@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=40, deadline=None)
def test_model_cubes_match_the_reference_at_every_solution(engine, seed):
    _check_model_cubes(engine, seed)


def test_the_model_cube_property_sees_partial_reductions():
    assert sum(_check_model_cubes("counters", seed) for seed in range(20)) >= 20
