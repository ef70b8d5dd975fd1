"""Formal Property Verification (FPV) instances — the Section VII-B suite.

The paper's FPV suite (905 QBFs) encodes model checking of early
requirements on Web-service compositions [9], [29]. The benchmark files are
not public, so this module generates the same *kind* of formula: a
requirements-vs-environment check over a small synthetic composition.

Shape of one instance (matching the published encodings' signature):

* a top existential block of *configuration* variables — the choices the
  composition designer controls;
* per requirement ``j`` (the paper's instances bundle several independent
  checks per model), a branch that alternates ``∀ env ∃ run`` for ``levels``
  rounds — the environment moves, the composition responds, as in a bounded
  unrolling of the service protocol;
* clauses anchored at each response block: every clause forces run
  variables as a function of one adversary-controlled variable of the
  branch (environment input) plus branch/configuration context. Clause
  count per block is ``ratio * run_bits``, the knob that moves instances
  across the easy-true / hard / easy-false spectrum.

Since requirements interact only through the configuration block, the
natural form is a wide quantifier tree of deep branches — the structure
QUBE(PO) exploits and prenexing destroys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.formula import QBF
from repro.core.literals import EXISTS, FORALL
from repro.core.prefix import Prefix, Spec


@dataclass(frozen=True)
class FpvParams:
    """One FPV instance description."""

    #: shared configuration bits (top existential block).
    config_bits: int = 3
    #: number of independent requirements (branches of the tree).
    requirements: int = 3
    #: ∀env ∃run rounds per requirement.
    levels: int = 3
    #: environment inputs per round (universal block).
    env_bits: int = 2
    #: execution-trace bits per round (inner existential block).
    run_bits: int = 4
    #: clauses per response block, as a multiple of ``run_bits``.
    ratio: float = 2.5
    #: literals per clause.
    clause_len: int = 4
    seed: int = 0

    @property
    def label(self) -> str:
        return "fpv-c%d-r%d-l%d-e%d-x%d-q%.1f-s%d" % (
            self.config_bits,
            self.requirements,
            self.levels,
            self.env_bits,
            self.run_bits,
            self.ratio,
            self.seed,
        )


def generate_fpv(params: FpvParams) -> QBF:
    """Generate one non-prenex FPV instance."""
    rng = random.Random(params.seed)
    next_var = [1]

    def fresh(n: int) -> List[int]:
        vs = list(range(next_var[0], next_var[0] + n))
        next_var[0] += n
        return vs

    config = fresh(params.config_bits)
    clauses: List[Tuple[int, ...]] = []

    def round_spec(level: int, visible: List[int], universals: List[int]) -> Spec:
        env = fresh(params.env_bits)
        run = fresh(params.run_bits)
        here_visible = visible + env + run
        here_universals = universals + env
        for _ in range(int(params.ratio * params.run_bits)):
            # One adversary input + two response bits anchor each clause;
            # context literals come from everything visible on the branch.
            chosen = [rng.choice(here_universals)]
            chosen += rng.sample(run, min(2, len(run)))
            pool = [v for v in here_visible if v not in chosen]
            chosen += rng.sample(pool, min(params.clause_len - len(chosen), len(pool)))
            clauses.append(
                tuple(v if rng.random() < 0.5 else -v for v in dict.fromkeys(chosen))
            )
        children: Tuple[Spec, ...] = ()
        if level < params.levels:
            children = (round_spec(level + 1, here_visible, here_universals),)
        return (FORALL, tuple(env), ((EXISTS, tuple(run), children),))

    branches = [round_spec(1, config, []) for _ in range(params.requirements)]
    prefix = Prefix.tree([(EXISTS, tuple(config), tuple(branches))])
    return QBF(prefix, clauses)
