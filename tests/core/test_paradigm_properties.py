"""Hypothesis property suite: the search engine agrees with the references.

The expansion oracle (:func:`repro.core.expansion.evaluate`) implements the
semantics directly, by cofactor expansion over the prefix's partial order,
and the Figure-1 Q-DLL (:func:`repro.core.simple.q_dll`) transcribes the
paper's pseudo-code. Verdict agreement with both on random instances —
prenex and tree prefixes, every built propagation backend, the TO and PO
pipelines — is the strongest cheap evidence that the search engine decides
what the paper's semantics says.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.engine.config import SolverConfig
from repro.core.expansion import evaluate
from repro.core.result import Outcome
from repro.core.simple import q_dll
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
    for engine in BUILT_BACKENDS:
        assert solve(phi, SolverConfig(engine=engine)).outcome is truth, engine


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_expansion_agrees_with_search_on_tree_qbfs(seed):
    # PO pipeline: search works the tree prefix directly; TO pipeline: it
    # works the prenexed formula. Every verdict and the oracle must coincide.
    phi = random_tree_qbf(random.Random(seed))
    flat = prenex(phi, "eu_au")
    truth = _truth(phi)
    for formula in (phi, flat):
        for engine in BUILT_BACKENDS:
            config = SolverConfig(engine=engine)
            assert solve(formula, config).outcome is truth, engine


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_reference_qdll_agrees_too(seed):
    phi = random_prenex_qbf(random.Random(seed))
    value, _, _ = q_dll(phi)
    assert (Outcome.TRUE if value else Outcome.FALSE) is _truth(phi)
