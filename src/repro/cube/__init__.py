"""Cube-and-conquer: parallel search inside one QBF instance.

The quantifier structure that lets the engine branch on any top (level-1)
variable is also a sound work-splitting recipe: cofactoring on top
variables decomposes one instance into independent subproblems whose
verdicts fold back up the quantifier tree (existential split: any TRUE
branch wins; universal split: any FALSE branch wins). This package turns
that observation into a parallel solver:

* :mod:`repro.cube.splitter` — the split tree, cofactoring with an
  original-clause index map, and the verdict fold;
* :mod:`repro.cube.merge` — lifting per-cube proof fragments and stitching
  them into one certificate the independent checker accepts against the
  original formula;
* :mod:`repro.cube.coordinator` — the process pool, dynamic re-splitting
  by checkpoint, early cancellation, and :func:`run_cube`;
* :mod:`repro.cube.bench` — the speedup benchmark (``repro cube bench``).
"""

from repro.cube.coordinator import (
    DEFAULT_LEAF_DECISIONS,
    CubeJob,
    CubeReport,
    run_cube,
    solve_cube_job,
)
from repro.cube.merge import LeafFragment, MergeReport, merge_certificates
from repro.cube.splitter import (
    ClauseMap,
    SplitNode,
    build_split,
    choose_split_var,
    cofactor,
    fold_outcomes,
    rank_split_vars,
    split_leaf,
)

__all__ = [
    "ClauseMap",
    "CubeJob",
    "CubeReport",
    "DEFAULT_LEAF_DECISIONS",
    "LeafFragment",
    "MergeReport",
    "SplitNode",
    "build_split",
    "choose_split_var",
    "cofactor",
    "fold_outcomes",
    "merge_certificates",
    "rank_split_vars",
    "run_cube",
    "solve_cube_job",
    "split_leaf",
]
