"""Portfolio racing: QUBE(TO) against QUBE(PO), first verdict wins.

The paper's structural thesis cuts both ways — some families reward the
partial order, some the total order. The portfolio runs both search lanes
on one instance under the fault-isolated process pool and takes the first
determinate verdict, cancelling the sibling; a TO/PO disagreement is
triaged by the certificate checker (see :mod:`repro.portfolio.race`).
"""

from repro.portfolio.race import ENTRANTS, PortfolioResult, entrant_task, race

__all__ = ["ENTRANTS", "PortfolioResult", "entrant_task", "race"]
