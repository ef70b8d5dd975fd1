"""Hypothesis property suite: the paradigms agree on random QBFs.

The expansion engine implements the semantics directly (iterated cofactor
expansion over the prefix's partial order), so verdict agreement with the
search engines on random instances — prenex and tree prefixes, every
built propagation backend, the TO and PO pipelines — is the strongest cheap
evidence that the Solver protocol refactor changed plumbing, not meaning.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.engine.config import SolverConfig
from repro.core.expand import expand_solve
from repro.core.expansion import evaluate
from repro.core.paradigm import solve_formula
from repro.core.result import Outcome
from repro.core.solver import solve
from repro.generators.random_qbf import random_prenex_qbf, random_tree_qbf
from repro.prenexing.strategies import prenex
from tests.engines import BUILT_BACKENDS

seeds = st.integers(min_value=0, max_value=10_000_000)


def _truth(phi) -> Outcome:
    return Outcome.TRUE if evaluate(phi) else Outcome.FALSE


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_expansion_agrees_with_search_on_prenex_qbfs(seed):
    phi = random_prenex_qbf(random.Random(seed))
    truth = _truth(phi)
    assert expand_solve(phi).outcome is truth
    for engine in BUILT_BACKENDS:
        config = SolverConfig(engine=engine, paradigm="search")
        assert solve(phi, config).outcome is truth, engine


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_expansion_agrees_with_search_on_tree_qbfs(seed):
    # PO pipeline: both paradigms work the tree prefix directly; TO
    # pipeline: both work the prenexed formula. All four verdicts and the
    # oracle must coincide.
    phi = random_tree_qbf(random.Random(seed))
    flat = prenex(phi, "eu_au")
    truth = _truth(phi)
    for formula in (phi, flat):
        assert expand_solve(formula).outcome is truth
        for engine in BUILT_BACKENDS:
            config = SolverConfig(engine=engine, paradigm="search")
            assert solve(formula, config).outcome is truth, engine


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_reference_qdll_agrees_too(seed):
    phi = random_prenex_qbf(random.Random(seed))
    result = solve_formula(phi, SolverConfig(paradigm="qdll"))
    assert result.outcome is _truth(phi)
