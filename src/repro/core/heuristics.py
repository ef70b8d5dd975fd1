"""Branching heuristics (Section VI of the paper).

Both QUBE variants keep a per-literal *counter* of the number of constraints
(matrix clauses plus learned nogoods/goods) the literal occurs in, bumped on
learning and periodically decayed — the VSIDS-flavoured scheme the paper
attributes to ZCHAFF.

* ``QUBE(TO)`` sorts literals by (prefix level, counter, id). In a prenex
  formula only the outermost unfinished block is branchable, so the level
  key simply restricts the choice to that block.
* ``QUBE(PO)`` cannot sort by level (the prefix is a partial order). The
  paper's solution: the *score* of a literal is its counter plus the maximum
  score of the literals one alternation deeper in its scope. This guarantees
  that ``|l| ≺ |l'|`` implies ``score(l) > score(l')`` (so outer variables
  are branched first) while reducing to plain VSIDS on SAT instances.

Both are implemented by :class:`ScoreKeeper` + a pick policy; the engine asks
for the best literal among *available* variables (those whose ``≺``
predecessors are all assigned), so every policy is sound for every prefix —
the policies differ only in ranking.

Storage layout: the counters live in two flat lists indexed by variable
(``score_pos[v]`` for literal ``v``, ``score_neg[v]`` for ``-v``), and the
per-block maxima in three lists indexed by block DFS index: each block's
largest counter (kept current as counters change) and its subtree maxima.
The arithmetic is unchanged from the dict-backed original — bump adds the
same 1.0, decay multiplies every counter by the same factor, and
``_recompute`` yields the same ``max(score + kid)`` per block — so
decisions are bit-identical; only the cost changed. ``keeper.score``
remains available as a signed-literal view (:class:`_ScoreView`) for tests;
hot paths read the arrays directly.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.prefix import Prefix

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine.trail import Trail

#: pick policy names accepted by the solver configuration.
POLICIES = ("levelsub", "subtree", "counter", "naive")


class _ScoreView:
    """Signed-literal facade over the flat score arrays.

    Supports indexing by signed literal and iteration over the signed
    literals of the prefix (insertion order of the historical dict:
    ``v, -v`` per variable, ascending).
    """

    __slots__ = ("_keeper",)

    def __init__(self, keeper: "ScoreKeeper"):
        self._keeper = keeper

    def __getitem__(self, lit: int) -> float:
        k = self._keeper
        return k.score_pos[lit] if lit > 0 else k.score_neg[-lit]

    def __setitem__(self, lit: int, value: float) -> None:
        k = self._keeper
        v = lit if lit > 0 else -lit
        if lit > 0:
            k.score_pos[v] = value
        else:
            k.score_neg[v] = value
        # The write may lower the block's largest counter: refold it.
        b = k._block_index[v]
        k._block_max[b] = max(
            max(k.score_pos[u], k.score_neg[u]) for u in k.prefix.tables().block_vars[b]
        )
        k._dirty = True

    def __iter__(self) -> Iterator[int]:
        for v in self._keeper.prefix.variables:
            yield v
            yield -v


class ScoreKeeper:
    """Literal activity counters with periodic decay and subtree maxima.

    ``_block_max[b]`` is the largest counter of block ``b``'s literals,
    kept exact as counters change: a bump (of the matrix or of a learned
    constraint) only raises a counter, so it raises the block's maximum to
    the bumped counter at most; decay halves every counter, and since
    rounding is monotone ``fl(max(s) * 0.5) == max(fl(s * 0.5))``, it
    halves the maxima too. A write through ``score`` refolds its block.
    """

    #: decay factor applied every :attr:`decay_interval` learned constraints
    #: ("halving the old score", Section VI).
    DECAY = 0.5

    def __init__(self, prefix: Prefix, decay_interval: int = 64):
        self.prefix = prefix
        tab = prefix.tables()
        self.score_pos: List[float] = [0.0] * tab.num_slots
        self.score_neg: List[float] = [0.0] * tab.num_slots
        self._is_exist = tab.is_exist
        self._level = tab.level
        self._block_index = tab.block_index
        n_blocks = len(tab.block_vars)
        self._block_max: List[float] = [0.0] * n_blocks
        self._subtree_max: List[float] = [0.0] * n_blocks
        self._child_max: List[float] = [0.0] * n_blocks
        #: bottom-up fold order: (block, children one alternation deeper,
        #: same-level children), children before parents.
        self._fold: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = [
            (
                block.index,
                tuple(c.index for c in block.children if c.level > block.level),
                tuple(c.index for c in block.children if c.level == block.level),
            )
            for block in reversed(prefix.blocks)
        ]
        self.decay_interval = decay_interval
        self._since_decay = 0
        self._dirty = True

    @property
    def score(self) -> _ScoreView:
        """A signed-literal view of the counters, made per access so the
        keeper holds no reference to itself."""
        return _ScoreView(self)

    def _bump(self, lits: Iterable[int]) -> None:
        """Count each literal once, raising its block's maximum.

        Section VI: an existential literal counts the constraints it occurs
        in; a universal literal counts the constraints its *complement*
        occurs in (the universal player branches to falsify).
        """
        is_exist = self._is_exist
        score_pos = self.score_pos
        score_neg = self.score_neg
        block_index = self._block_index
        block_max = self._block_max
        for lit in lits:
            if lit > 0:
                v = lit
                if is_exist[v]:
                    s = score_pos[v] = score_pos[v] + 1.0
                else:
                    s = score_neg[v] = score_neg[v] + 1.0
            else:
                v = -lit
                if is_exist[v]:
                    s = score_neg[v] = score_neg[v] + 1.0
                else:
                    s = score_pos[v] = score_pos[v] + 1.0
            b = block_index[v]
            if s > block_max[b]:
                block_max[b] = s

    def bump_initial(self, clauses: Iterable[Sequence[int]]) -> None:
        """Initialize counters from matrix occurrences."""
        self._bump(chain.from_iterable(clauses))
        self._dirty = True

    def on_learned(self, lits: Sequence[int]) -> None:
        """Bump the literals of a freshly learned constraint and maybe decay."""
        self._bump(lits)
        self._since_decay += 1
        if self._since_decay >= self.decay_interval:
            self._since_decay = 0
            decay = self.DECAY
            # In-place (the arrays are captured by picker closures and must
            # never be rebound). Unused slots stay 0.0, same as before.
            score_pos = self.score_pos
            score_neg = self.score_neg
            for i in range(len(score_pos)):
                score_pos[i] *= decay
                score_neg[i] *= decay
            block_max = self._block_max
            for b in range(len(block_max)):
                block_max[b] *= decay
        self._dirty = True

    # -- PO subtree scores ---------------------------------------------------

    def _recompute(self) -> None:
        """Bottom-up pass computing, per block, the max augmented score.

        ``subtree_max(b)`` is the maximum over literals ``l`` of block ``b``
        of ``score(l) + child_max(b)``, where ``child_max(b)`` is the largest
        ``subtree_max`` among the children of ``b`` (0 for leaves). This is
        precisely the Section VI definition, evaluated per block since all
        variables of a block share the same children. Rounding is monotone,
        so the maximum of ``fl(score + kid)`` over the block is
        ``fl(block_max + kid)``: the pass folds blocks only, never
        variables. (Every block binds a variable: the prefix splices empty
        ones out.)
        """
        subtree_max = self._subtree_max
        child_max = self._child_max
        block_max = self._block_max
        for b, deeper, same in self._fold:
            kid = 0.0
            for c in deeper:
                # One alternation deeper: the child's own literals are the
                # "prefix level k+1" literals of the definition.
                if subtree_max[c] > kid:
                    kid = subtree_max[c]
            for c in same:
                # Same-level child (branch point without alternation): only
                # its strictly deeper descendants count.
                if child_max[c] > kid:
                    kid = child_max[c]
            child_max[b] = kid
            subtree_max[b] = block_max[b] + kid
        self._dirty = False

    def effective(self, lit: int) -> float:
        """The PO score of ``lit``: counter plus deeper-subtree maximum."""
        if self._dirty:
            self._recompute()
        v = lit if lit > 0 else -lit
        s = self.score_pos[v] if lit > 0 else self.score_neg[v]
        return s + self._child_max[self._block_index[v]]


def make_picker(
    policy: str,
    keeper: ScoreKeeper,
    trail: Optional["Trail"] = None,
) -> Callable[..., Optional[int]]:
    """Build the branching function for ``policy`` once, at solver init.

    The policies rank available variables:

    ``levelsub`` — rank by (prefix level, subtree score): Section VI's
    requirement that the queue account for "both their position in the
    prefix and their score", taking the position key literally. The
    reproduction's default: it keeps branching freedom across incomparable
    same-level blocks while never diving below an unfinished shallower
    block, which our backjumping engine rewards (see the heuristic ablation
    bench); ``subtree`` — the pure Section VI score formula (counter plus
    deeper-subtree maximum), whose ≺-monotonicity is the only ordering
    constraint; ``counter`` — raw counters, ignoring the tree (ablation);
    ``naive`` — smallest variable id, positive phase (ablation).

    Every key ends in ``-v``, a strict tiebreak, so the result never depends
    on the order of the candidates. Without ``trail`` the returned function
    maps an available list to a literal, or None when the list is empty.
    With ``trail`` it takes no argument: it walks the trail's open blocks
    (those :meth:`~repro.core.engine.trail.Trail.available_vars` lists) and
    ranks their unassigned variables in place, without building the list,
    and returns the literal the list form returns on
    ``trail.available_vars()`` — what the search engine decides with.
    """
    if policy not in POLICIES:
        raise ValueError("unknown branching policy %r" % policy)
    if trail is not None:
        return _frontier_picker(policy, keeper, trail)
    if policy == "naive":
        def pick_naive(available: Sequence[int]) -> Optional[int]:
            if not available:
                return None
            return min(available)

        return pick_naive

    score_pos = keeper.score_pos
    score_neg = keeper.score_neg
    # The tree policies rank by max(effective(v), effective(-v)), read off
    # subtree maxima refreshed once per pick: both effective scores add the
    # same child_max term, and rounding is monotone, so
    # fl(max(a, b) + c) == max(fl(a + c), fl(b + c)) bit for bit.
    child_max = keeper._child_max
    block_index = keeper._block_index
    if policy == "counter":
        def key(v: int) -> Tuple:
            a = score_pos[v]
            b = score_neg[v]
            return (a if a >= b else b, -v)
    elif policy == "subtree":
        def key(v: int) -> Tuple:
            a = score_pos[v]
            b = score_neg[v]
            return ((a if a >= b else b) + child_max[block_index[v]], -v)
    else:
        level = keeper._level

        def key(v: int) -> Tuple:
            a = score_pos[v]
            b = score_neg[v]
            return (-level[v], (a if a >= b else b) + child_max[block_index[v]], -v)
    tree = policy != "counter"

    def pick(available: Sequence[int]) -> Optional[int]:
        if not available:
            return None
        if tree and keeper._dirty:
            keeper._recompute()
        var = max(available, key=key)
        return var if score_pos[var] >= score_neg[var] else -var

    return pick


def _frontier_picker(
    policy: str, keeper: ScoreKeeper, trail: "Trail"
) -> Callable[[], Optional[int]]:
    """The fused form of :func:`make_picker`: frontier scan plus ranking.

    A block is open when it still has an unassigned variable and no
    unassigned ``≺``-predecessor block (the trail's frontier counters).
    Every ranked policy is one loop over per-block keys: ``levelsub`` ranks
    by (lower block level, higher score, lower id), ``subtree`` is the same
    with every level 0, and ``counter`` also adds a zero ``child_max``
    (``x + 0.0 == x`` for the nonnegative scores), so each computes the
    same float its list key compares. Under ``levelsub`` a block deeper
    than the best so far cannot win and is skipped whole.
    """
    value = trail.value
    block_vars = trail.block_vars
    block_unassigned = trail.block_unassigned
    block_blockers = trail.block_blockers
    n_blocks = len(block_vars)

    if policy == "naive":
        def pick_naive() -> Optional[int]:
            best = 0
            for bi in range(n_blocks):
                if block_unassigned[bi] and not block_blockers[bi]:
                    for v in block_vars[bi]:
                        if not value[v] and (not best or v < best):
                            best = v
            return best or None

        return pick_naive

    score_pos = keeper.score_pos
    score_neg = keeper.score_neg
    if policy == "levelsub":
        levels = [block.level for block in keeper.prefix.blocks]
    else:
        levels = [0] * n_blocks
    tree = policy != "counter"
    child_max = keeper._child_max if tree else [0.0] * n_blocks

    def pick() -> Optional[int]:
        if tree and keeper._dirty:
            keeper._recompute()
        best = 0
        best_level = 0
        best_score = 0.0
        for bi in range(n_blocks):
            if not block_unassigned[bi] or block_blockers[bi]:
                continue
            lv = levels[bi]
            if best:
                if lv > best_level:
                    continue
                if lv < best_level:
                    best = 0
            best_level = lv
            cm = child_max[bi]
            for v in block_vars[bi]:
                if not value[v]:
                    a = score_pos[v]
                    b = score_neg[v]
                    s = (a if a >= b else b) + cm
                    if not best or s > best_score or (s == best_score and v < best):
                        best = v
                        best_score = s
        if not best:
            return None
        return best if score_pos[best] >= score_neg[best] else -best

    return pick


def pick_literal(
    policy: str,
    keeper: ScoreKeeper,
    available: Sequence[int],
) -> Optional[int]:
    """One-shot convenience wrapper over :func:`make_picker`.

    Kept for tests and exploratory code; the engine builds its picker once
    at init instead. Returns a literal, or None when ``available`` is empty.
    """
    if not available:
        return None
    return make_picker(policy, keeper)(available)
