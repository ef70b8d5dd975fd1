"""Kernel throughput on the pinned Figure-6 counter series.

The pytest face of ``repro bench`` (see :mod:`repro.bench`): runs the full
series under every available propagation backend with the pure-literal
rule on and off, asserts the decision-for-decision engine contract, and
pins the series' decision counts to the pre-kernel anchor. The report itself is
``repro bench``'s to write (the committed copy is the root
``BENCH_kernels.json``). Wall-clock and throughput are never asserted —
only the platform-independent decision columns gate.
"""

from repro.bench import FULL_SERIES, run_bench, run_series

#: Decision totals of the full series, fixed since the PR-3 layered engine
#: (pre-kernel) and reproduced literally by the flat-array kernels. The
#: series is pinned-seed and decision-budgeted, so these are exact on every
#: host. Update them *deliberately* when a PR intends to change the search
#: (heuristic or propagation-order changes) — never to quiet a failure.
PINNED_DECISIONS = {True: 13103, False: 35669}


def test_kernel_bench(benchmark):
    kwargs = dict(engine="counters", pure=True, **FULL_SERIES)
    benchmark.pedantic(lambda: run_series(**kwargs), rounds=1, iterations=1)

    report = run_bench()  # raises EngineDivergence on any identity break
    assert report["decision_identity_ok"]
    for config in report["configs"]:
        pure = config["pure_literals"]
        assert config["decisions"] == PINNED_DECISIONS[pure], (
            config["key"], config["decisions"], PINNED_DECISIONS[pure],
        )
