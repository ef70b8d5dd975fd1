"""Compare two sets of end-to-end benchmark runs, metric by metric.

    python benchmarks/e2e/compare.py BASE.json CANDIDATE.json

Both files are ``run.py -o`` outputs (usually ``run.py --repeat N``). For
every workload and every end-to-end metric of BENCHMARK.json it prints the
median and quartiles of both sides and a verdict against the metric's
bound, the share of the base median by which the candidate may be worse:

``ok``          the candidate's median is within the bound of the base's;
``worse``       it is worse by more than the bound;
``unresolved``  a side's quartile spread exceeds the bound, so the
                difference is not told apart from noise — unless every
                candidate run beats every base run, which is ``ok``.

``setup_s`` may also worsen by ABSOLUTE_FLOOR seconds, whichever allows
more. Quartiles and spreads are ``statistics.quantiles(values, n=4)`` and
(Q3 - Q1) / median. Exits 1 when a metric is ``worse`` or a candidate run
was incorrect, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: seconds by which a metric may always worsen: a set-up of a tenth of a
#: second moves by more than its bound when the host stalls the process.
ABSOLUTE_FLOOR = {"setup_s": 0.2}


def load_runs(path: str) -> Tuple[Dict[str, Dict[str, List[float]]], List[str]]:
    """workload -> metric -> values over the untraced runs; incorrect runs."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    values: Dict[str, Dict[str, List[float]]] = {}
    incorrect = []
    for run in runs:
        if run["trace"]:
            continue
        workload = run["detail"]["workload"]
        if not run["result"]["correct"]:
            incorrect.append("%s (repeat %s)" % (workload, run["repeat"]))
        for name, entry in run["result"]["metrics"].items():
            values.setdefault(workload, {}).setdefault(name, []).append(entry["value"])
    return values, incorrect


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def effective_bound(base: List[float], bound: float, floor: float) -> float:
    """``bound``, widened to ``floor`` in the metric's own unit."""
    mb = abs(statistics.median(base))
    return max(bound, floor / mb) if mb else bound


def verdict(base: List[float], cand: List[float], better: str, bound: float) -> str:
    mb, mc = statistics.median(base), statistics.median(cand)
    if better == "lower":
        worse_by = (mc - mb) / abs(mb) if mb else 0.0
        always_better = max(cand) < min(base)
    else:
        worse_by = (mb - mc) / abs(mb) if mb else 0.0
        always_better = min(cand) > max(base)
    if max(spread(base), spread(cand)) > bound:
        return "ok" if always_better else "unresolved"
    return "worse" if worse_by > bound else "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    base, _ = load_runs(argv[0])
    cand, incorrect = load_runs(argv[1])
    regressions = 0
    print("%-15s %-15s %-10s %-32s %-32s %s" % (
        "workload", "metric", "verdict", "base median [q1, q3]", "candidate median [q1, q3]",
        "change"))
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in cand:
            print("%-15s (missing on one side)" % workload)
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = base[workload].get(name), cand[workload].get(name)
            if not a or not b:
                print("%-15s %-15s missing" % (workload, name))
                continue
            bound = effective_bound(a, metric["bound"], ABSOLUTE_FLOOR.get(name, 0.0))
            result = verdict(a, b, metric["better"], bound)
            regressions += result == "worse"
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            print("%-15s %-15s %-10s %-32s %-32s %+.1f%% (bound %.0f%%)" % (
                workload, name, result,
                "%.4g [%.4g, %.4g]" % (qa[1], qa[0], qa[2]),
                "%.4g [%.4g, %.4g]" % (qb[1], qb[0], qb[2]),
                100 * change, 100 * bound))
    for run in incorrect:
        print("INCORRECT candidate run: %s" % run)
    return 1 if regressions or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
