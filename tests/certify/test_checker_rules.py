"""The checker's step rules against brute-force references.

The checker decides an initial cube with clause bitmasks, a reduction with
set operations over its own prefix arrays, and a resolution with set
operations. These properties replay random steps on random formulas and
require the exact report, status and error text, that references kept here
give: the per-clause sweep for initial cubes, ``Prefix.prec`` over every
dropped/anchor pair for reductions, and the literal-by-literal merge for
resolution.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.certify import INCOMPLETE, INVALID, check_certificate
from repro.certify.store import INITIAL_CUBE, INPUT_CLAUSE, REDUCTION, RESOLUTION
from repro.core.literals import EXISTS, FORALL
from repro.generators.random_qbf import random_qbf
from repro.prenexing.strategies import prenex

_HEADER = {"type": "header", "format": "repro-cert", "version": 1}


# -- references ---------------------------------------------------------------


def _canon(lits):
    return tuple(sorted(set(int(l) for l in lits), key=lambda l: (abs(l), l)))


def _cube_error(lits, formula):
    """The first defect of an initial cube, or None."""
    prefix = formula.prefix
    seen = {}
    for l in lits:
        v = abs(l)
        if v not in prefix:
            return "literal %d is not bound by the prefix" % l
        if seen.get(v, l) != l:
            return "contradictory literals on variable %d" % v
        seen[v] = l
    cube = set(lits)
    for index, clause in enumerate(formula.clauses):
        if cube.isdisjoint(clause.lits):
            return "matrix clause %d is not satisfied by the cube" % index
    return None


def _reduction_error(before, after, prefix, is_cube):
    """The first illegal deletion from ``before`` to ``after``, or None.
    Dropped literals are visited in the order of the checker's set
    difference, which decides which defect the error names."""
    before_set = set(before)
    after_set = set(after)
    extra = after_set - before_set
    if extra:
        return "reduction invents literals %s" % sorted(extra)
    if is_cube:
        kept, kept_kind, drop_kind, shape = FORALL, "universal", "existential", "cube"
    else:
        kept, kept_kind, drop_kind, shape = EXISTS, "existential", "universal", "clause"
    anchors = [a for a in before if prefix.quant(a) is kept]
    for l in before_set - after_set:
        if prefix.quant(l) is kept:
            return "reduction deleted %s %d from a %s" % (kept_kind, l, shape)
        if any(prefix.prec(l, a) for a in anchors):
            return "%s %d is blocked by a deeper %s" % (drop_kind, l, kept_kind)
    return None


def _resolve(a, b, pivot, prefix, is_cube):
    """``(error, resolvent)`` of one resolution step."""
    if pivot not in prefix:
        return "pivot %d is not a bound variable" % pivot, None
    if is_cube and not prefix.is_universal(pivot):
        return "cube resolution pivot %d is not universal" % pivot, None
    if not is_cube and not prefix.is_existential(pivot):
        return "clause resolution pivot %d is not existential" % pivot, None
    a_signs = {l for l in a if abs(l) == pivot}
    b_signs = {l for l in b if abs(l) == pivot}
    if len(a_signs) != 1 or len(b_signs) != 1 or a_signs == b_signs:
        return "pivot %d does not occur with opposite signs in the antecedents" % pivot, None
    merged = {abs(l): l for l in a if abs(l) != pivot}
    for l in b:
        v = abs(l)
        if v == pivot:
            continue
        if merged.get(v, l) != l:
            return "tautological resolvent (variable %d)" % v, None
        merged[v] = l
    return None, _canon(merged.values())


def _expect(steps, error):
    """The report of a certificate whose last step fails with ``error``, or
    that is legal throughout (no conclusion) when ``error`` is None."""
    if error is None:
        return (INCOMPLETE, None, len(steps), "no conclusion step")
    last = steps[-1]
    where = "step %d (%s)" % (len(steps), last["type"])
    return (INVALID, None, len(steps), "%s: %s" % (where, error))


def _report(formula, steps):
    report = check_certificate(formula, steps)
    return (report.status, report.outcome, report.steps, report.error)


# -- random inputs ------------------------------------------------------------


def _formula(rng):
    phi = random_qbf(
        rng,
        prenex=False,
        depth=rng.randint(1, 3),
        branching=rng.randint(1, 2),
        block_size=rng.randint(1, 3),
        clauses_per_scope=rng.randint(1, 2),
        clause_len=rng.randint(2, 3),
    )
    return prenex(phi) if rng.random() < 0.3 else phi


def _model_cube(rng, formula):
    """One true literal per clause under a random assignment: a covering,
    consistent cube unless some clause has no true literal."""
    value = {v: rng.choice((v, -v)) for v in formula.prefix.variables}
    cube = set()
    for clause in formula.clauses:
        true = [l for l in clause.lits if value[abs(l)] == l]
        if true:
            cube.add(rng.choice(true))
    return sorted(cube)


def _spoil_cube(rng, formula, cube):
    """Drop, contradict or add unbound literals, at random."""
    cube = list(cube)
    top = max(formula.prefix.variables)
    if cube and rng.random() < 0.3:
        cube.remove(rng.choice(cube))
    if cube and rng.random() < 0.2:
        cube.append(-rng.choice(cube))
    if rng.random() < 0.2:
        cube.append(rng.choice((1, -1)) * (top + rng.randint(1, 3)))
    rng.shuffle(cube)
    return cube


def _random_after(rng, formula, before):
    """A random subset of ``before``, sometimes with an invented literal."""
    after = [l for l in before if rng.random() < 0.6]
    if rng.random() < 0.1:
        variables = formula.prefix.variables
        after.append(rng.choice(variables) * rng.choice((1, -1)))
    rng.shuffle(after)
    return after


# -- properties ---------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_initial_cubes_match_the_clause_sweep(seed):
    rng = random.Random(seed)
    formula = _formula(rng)
    for _ in range(8):
        lits = _model_cube(rng, formula)
        if rng.random() < 0.7:
            lits = _spoil_cube(rng, formula, lits)
        steps = [_HEADER, {"type": INITIAL_CUBE, "id": 1, "lits": lits}]
        want = _expect(steps, _cube_error(_canon(lits), formula))
        assert _report(formula, steps) == want


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_reductions_match_prec_over_every_pair(seed):
    rng = random.Random(seed)
    formula = _formula(rng)
    prefix = formula.prefix
    for _ in range(8):
        # A clause: the input step itself reduces a matrix clause.
        index = rng.randrange(len(formula.clauses))
        original = _canon(formula.clauses[index].lits)
        after = _random_after(rng, formula, original)
        steps = [_HEADER, {"type": INPUT_CLAUSE, "id": 1, "clause": index, "lits": after}]
        want = _expect(steps, _reduction_error(original, _canon(after), prefix, False))
        assert _report(formula, steps) == want
        # A cube: a standalone reduction of a covering initial cube.
        cube = _canon(_model_cube(rng, formula))
        if _cube_error(cube, formula) is not None:
            continue
        after = _random_after(rng, formula, cube)
        steps = [
            _HEADER,
            {"type": INITIAL_CUBE, "id": 1, "lits": list(cube)},
            {"type": REDUCTION, "id": 2, "kind": "cube", "ant": [1], "lits": after},
        ]
        want = _expect(steps, _reduction_error(cube, _canon(after), prefix, True))
        assert _report(formula, steps) == want


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_resolutions_match_the_literal_merge(seed):
    rng = random.Random(seed)
    formula = _formula(rng)
    prefix = formula.prefix
    variables = prefix.variables
    for _ in range(8):
        is_cube = rng.random() < 0.5
        if is_cube:
            a, b = (_canon(_model_cube(rng, formula)) for _ in range(2))
            if _cube_error(a, formula) or _cube_error(b, formula):
                continue
            premises = [
                {"type": INITIAL_CUBE, "id": 1, "lits": list(a)},
                {"type": INITIAL_CUBE, "id": 2, "lits": list(b)},
            ]
        else:
            i, j = (rng.randrange(len(formula.clauses)) for _ in range(2))
            a, b = (_canon(formula.clauses[k].lits) for k in (i, j))
            premises = [
                {"type": INPUT_CLAUSE, "id": 1, "clause": i, "lits": list(a)},
                {"type": INPUT_CLAUSE, "id": 2, "clause": j, "lits": list(b)},
            ]
        shared = sorted({abs(l) for l in a} | {abs(l) for l in b})
        pivot = rng.choice(shared) if rng.random() < 0.85 else rng.choice(variables) + (
            max(variables) if rng.random() < 0.3 else 0
        )
        error, resolvent = _resolve(a, b, pivot, prefix, is_cube)
        if error is None:
            lits = _random_after(rng, formula, resolvent) if rng.random() < 0.5 else list(resolvent)
            error = _reduction_error(resolvent, _canon(lits), prefix, is_cube)
        else:
            lits = []
        steps = [_HEADER] + premises + [{
            "type": RESOLUTION, "id": 3, "kind": "cube" if is_cube else "clause",
            "ant": [1, 2], "pivot": pivot, "lits": lits,
        }]
        assert _report(formula, steps) == _expect(steps, error)
