"""QBFEVAL'06-style "fixed" (structured) prenex instances — Section VII-D.

The 2006 evaluation splits instances into a *probabilistic* class (some
generator parameter is a random variable — covered by
:mod:`repro.generators.random_qbf`) and a *fixed* class (fully structured).
Neither archive ships with the paper, so this module generates structured
prenex families with the property the Figure-7 experiment depends on: after
Section VII-D scope minimization, a sizeable fraction of instances exhibits
genuine quantifier-tree structure (footnote 9's PO/TO ratio above 20%),
while others do not — the paper reports that only a minority of the 2887
evaluation instances passed the filter.

Families:

* ``interleaved`` — k independent alternating games over disjoint variables
  whose prefixes are interleaved into one total order (a composition of
  unrelated verification sub-problems; miniscoping recovers the k branches);
* ``chained``    — one global game whose clauses chain all variable groups
  together (miniscoping recovers nothing: the control family).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.formula import QBF
from repro.core.literals import Quant
from repro.core.prefix import Prefix
from repro.generators.random_qbf import random_prenex_qbf


@dataclass(frozen=True)
class FixedParams:
    """One structured prenex instance description."""

    family: str = "interleaved"  # "interleaved" or "chained"
    groups: int = 2
    blocks_per_group: int = 3
    block_size: int = 1
    clauses_per_group: int = 8
    clause_len: int = 3
    seed: int = 0

    @property
    def label(self) -> str:
        return "fixed-%s-g%d-b%d-s%d" % (
            self.family,
            self.groups,
            self.blocks_per_group,
            self.seed,
        )


def generate_fixed(params: FixedParams) -> QBF:
    """Generate one structured prenex instance."""
    if params.family == "interleaved":
        return _interleaved(params)
    if params.family == "chained":
        return _chained(params)
    raise ValueError("unknown fixed family %r" % (params.family,))


def _interleaved(params: FixedParams) -> QBF:
    """Independent sub-games with interleaved prenex prefixes."""
    rng = random.Random(params.seed)
    games: List[QBF] = []
    offset = 0
    for _ in range(params.groups):
        game = random_prenex_qbf(
            rng,
            num_blocks=params.blocks_per_group,
            block_size=params.block_size,
            num_clauses=params.clauses_per_group,
            clause_len=params.clause_len,
        )
        games.append(game.renamed({v: v + offset for v in game.prefix.variables}))
        offset += game.num_vars
    # Interleave the prefixes level by level: block i of every game lands in
    # the same slot, which forces a total order across unrelated games —
    # exactly what application pipelines produce when they prenex mindlessly.
    blocks: List[Tuple[Quant, Tuple[int, ...]]] = []
    for i in range(params.blocks_per_group):
        for game in games:
            quant, variables = game.prefix.linear_blocks()[i]
            blocks.append((quant, variables))
    clauses = [c.lits for game in games for c in game.clauses]
    return QBF(Prefix.linear(blocks), clauses)


def _chained(params: FixedParams) -> QBF:
    """One connected game: the control family (no hidden structure)."""
    rng = random.Random(params.seed)
    phi = random_prenex_qbf(
        rng,
        num_blocks=params.blocks_per_group,
        block_size=params.block_size * params.groups,
        num_clauses=params.clauses_per_group * params.groups,
        clause_len=params.clause_len,
    )
    return phi
