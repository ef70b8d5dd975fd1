"""Table I machinery: the paper's pairwise TO-vs-PO comparison counters.

Table I reports, per suite and prenexing strategy, how often QUBE(TO) is
slower (">") or faster ("<") than QUBE(PO) by more than 1 s, how often they
tie ("=±1s"), the one-sided and double timeout counts, and the ≥10x
columns. The columns overlap: a one-sided timeout also counts as ">" (TO
timed out) or "<" (PO timed out), and a double timeout counts both as a
tie and in the double-timeout column. The reproduction maps CPU seconds
to decisions:

* "more than 1 second" → a difference of more than ``tie_margin`` decisions;
* "timeout"            → budget exhaustion (``Outcome.UNKNOWN``);
* "one order of magnitude" → a ≥10x decision ratio between completed runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.evalx.runner import Measurement, SolverDisagreement, check_agreement


@dataclass
class Table1Row:
    """One row of Table I (a suite/strategy combination)."""

    suite: str
    strategy: str
    #: QUBE(TO) slower than QUBE(PO) by more than the tie margin.
    to_slower: int = 0
    #: QUBE(TO) faster by more than the tie margin.
    to_faster: int = 0
    #: within the margin, or both timed out (also counted in ``both_timeout``).
    ties: int = 0
    #: TO timed out, PO did not.
    to_timeout_only: int = 0
    #: PO timed out, TO did not.
    po_timeout_only: int = 0
    #: both exceeded the budget.
    both_timeout: int = 0
    #: both completed and TO spent ≥ 10x the PO decisions.
    to_slower_10x: int = 0
    #: both completed and PO spent ≥ 10x the TO decisions.
    po_slower_10x: int = 0
    #: completed runs whose outcomes disagreed — recorded as data (the
    #: batch harness's policy) rather than aborting the aggregation; such
    #: pairs are excluded from every cost column.
    disagreements: int = 0
    total: int = 0

    @property
    def columns(self) -> Tuple[int, ...]:
        """The eight Table I columns in paper order: > < =±1s ⊲ ⊳ ⊲⊳ >10x 10x<."""
        return (
            self.to_slower,
            self.to_faster,
            self.ties,
            self.to_timeout_only,
            self.po_timeout_only,
            self.both_timeout,
            self.to_slower_10x,
            self.po_slower_10x,
        )


def classify_pair(
    row: Table1Row,
    to_run: Measurement,
    po_run: Measurement,
    tie_margin: int,
) -> None:
    """Fold one instance's (TO, PO) measurement pair into a row.

    A pair whose completed outcomes disagree is counted in
    ``row.disagreements`` and otherwise skipped: its costs are meaningless
    (at least one side is wrong), but one bad instance must not abort a
    whole sweep's aggregation.
    """
    try:
        check_agreement(to_run, po_run)
    except SolverDisagreement:
        row.disagreements += 1
        row.total += 1
        return
    row.total += 1
    if to_run.timed_out and po_run.timed_out:
        row.both_timeout += 1
        row.ties += 1  # the paper counts double timeouts inside "=±1s"
        return
    if to_run.timed_out:
        row.to_timeout_only += 1
        row.to_slower += 1
        # A timeout against a completed run is at least 10x if the budget
        # dwarfs the winner's cost (the paper's note that the >10x column
        # "includes also the instances solved by only one system" applies
        # to its FPV discussion; we follow the same convention).
        if to_run.cost >= 10 * max(po_run.cost, 1):
            row.to_slower_10x += 1
        return
    if po_run.timed_out:
        row.po_timeout_only += 1
        row.to_faster += 1
        if po_run.cost >= 10 * max(to_run.cost, 1):
            row.po_slower_10x += 1
        return
    delta = to_run.cost - po_run.cost
    if delta > tie_margin:
        row.to_slower += 1
    elif -delta > tie_margin:
        row.to_faster += 1
    else:
        row.ties += 1
    if to_run.cost >= 10 * max(po_run.cost, 1):
        row.to_slower_10x += 1
    elif po_run.cost >= 10 * max(to_run.cost, 1):
        row.po_slower_10x += 1


def build_row(
    suite: str,
    strategy: str,
    pairs: Iterable[Tuple[Measurement, Measurement]],
    tie_margin: int = 50,
) -> Table1Row:
    """Aggregate (TO, PO) measurement pairs into one Table I row."""
    row = Table1Row(suite=suite, strategy=strategy)
    for to_run, po_run in pairs:
        classify_pair(row, to_run, po_run, tie_margin)
    return row


HEADER = ("suite", "strategy", ">", "<", "=", "TO-to", "TO-po", "TO-both", ">10x", "10x<")


def render_table(rows: Sequence[Table1Row]) -> str:
    """ASCII rendering in the paper's column order."""
    grid: List[Sequence[str]] = [HEADER]
    for row in rows:
        grid.append(
            (row.suite, row.strategy) + tuple(str(c) for c in row.columns)
        )
    widths = [max(len(line[i]) for line in grid) for i in range(len(HEADER))]
    out = []
    for line in grid:
        out.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line)))
    return "\n".join(out)
