"""Partially ordered quantifier prefixes (Section II and VI of the paper).

A (possibly non-prenex) QBF is represented in the paper as a pair
``⟨prefix, matrix⟩`` where the prefix is a partially ordered set of
quantified variables: ``z ≺ z'`` holds when ``z'`` is quantified in the
scope of ``z`` *with a quantifier alternation in between* (Section II,
conditions (a) and (b)). This module implements that order as a quantifier
tree of :class:`Block` nodes, each binding a set of variables under one
quantifier.

Normalization applies two semantics-preserving rewrites:

* empty blocks (possible after variable removal) are spliced out;
* a block that is the *only* child of a same-quantifier parent is merged
  into it — the paper's ``Q1 z1 Q2 z2 ϕ ↦ Q2 z2 Q1 z1 ϕ`` commutation.
  Merging across branch points would widen scopes and forge spurious order
  pairs, so it is deliberately not performed; the tree may therefore contain
  same-quantifier parent/child pairs at branch points, which simply carry no
  order between their variables.

Order queries are O(1) via two per-block quantities computed in one DFS:

* a plain discovery/finish interval (``din``/``dout``) giving the ancestor
  relation, and
* the *alternation level* (the paper's prefix level): 1 for top blocks,
  incremented on each quantifier alternation down the tree.

Then ``z ≺ z'`` iff ``block(z)`` is a proper ancestor of ``block(z')`` and
``level(z') > level(z)`` — on trees with no same-quantifier branch-point
children this is exactly the paper's equation (13) test
``d(z) < d(z') ≤ f(z)``, whose stamps are also exposed (:meth:`Prefix.d`,
:meth:`Prefix.f`) and match the Section VI worked example.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.literals import EXISTS, FORALL, Quant, var_of

#: A prefix *spec* is the user-facing nested-tuple description of a tree:
#: ``(quant, vars)`` or ``(quant, vars, [child_spec, ...])``.  The top level
#: is a list of specs (a forest — e.g. ``(∃x ϕ ∧ ∀y ψ)`` has two roots).
Spec = Union[
    Tuple[Quant, Sequence[int]],
    Tuple[Quant, Sequence[int], Sequence["Spec"]],
]


class Block:
    """One quantifier block of the tree.

    Attributes:
        quant: the quantifier binding every variable of the block, or
            ``None`` for the virtual root only.
        variables: tuple of variables bound here (mutually unordered).
        children: child blocks.
        parent: parent block (the virtual root for top-level blocks).
        level: the paper's *prefix level* of the block's variables (length
            of the longest ``≺`` chain ending at them); 1 for top blocks.
        din, dout: plain DFS discovery interval for O(1) ancestor tests.
        d, f: the paper's Section VI stamps (counter bumped once per
            quantifier alternation); they satisfy equation (13) on trees
            without same-quantifier branch-point children.
        index: position of the block in the prefix's DFS block list.
    """

    __slots__ = (
        "quant",
        "variables",
        "children",
        "parent",
        "level",
        "din",
        "dout",
        "d",
        "f",
        "index",
    )

    def __init__(self, quant: Optional[Quant], variables: Tuple[int, ...]):
        self.quant = quant
        self.variables = variables
        self.children: List["Block"] = []
        self.parent: Optional["Block"] = None
        self.level = 0
        self.din = 0
        self.dout = 0
        self.d = 0
        self.f = 0
        self.index = -1

    @property
    def is_root(self) -> bool:
        """True for the virtual root block (which binds no variables)."""
        return self.quant is None

    def is_ancestor_of(self, other: "Block") -> bool:
        """Proper ancestor test via DFS intervals."""
        return self is not other and self.din <= other.din <= self.dout

    def ancestors(self) -> Iterator["Block"]:
        """Yield proper ancestor blocks, innermost first, root excluded."""
        node = self.parent
        while node is not None and not node.is_root:
            yield node
            node = node.parent

    def subtree(self) -> Iterator["Block"]:
        """Yield this block and every descendant, in DFS order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        q = self.quant.symbol if self.quant is not None else "·"
        return "%s%s" % (q, list(self.variables))


class PrefixTables:
    """Flat, positionally indexed lookup tables over one :class:`Prefix`.

    The solver's hot loops (propagation, reduction, branching) pay for every
    ``block_of`` dict probe and ``Block`` attribute hop millions of times per
    run, so the per-variable quantities they need are precomputed here once
    as plain lists indexed by variable (slots for unbound variables stay at
    their zero defaults and must never be consulted):

    * ``level[v]``/``is_exist[v]``/``din[v]``/``dout[v]`` — the variable's
      block's alternation level, quantifier, and DFS interval. The order
      test ``a ≺ b`` becomes three comparisons on these arrays:
      ``level[a] < level[b] and din[a] <= din[b] <= dout[a]``.
    * ``block_index[v]`` — index of the binding block in DFS order.
    * ``lit_block[l]`` — the same index for a literal of either sign. The
      list holds ``2 * num_slots - 1`` slots: positive literals index from
      the front and negative ones from the back, by Python's own negative
      indexing, so ``map(lit_block.__getitem__, lits)`` finds the blocks of
      a constraint in one C-level pass with no per-literal offset.

    Per-block tables, indexed by block: ``block_level``/``block_exist``/
    ``block_din``/``block_dout`` carry the block's alternation level,
    quantifier and DFS interval, so the reductions test ``≺`` once per pair
    of blocks. The incremental branching frontier
    (:meth:`repro.core.engine.trail.Trail.available_vars`) reads:

    * ``block_vars[bi]`` — the block's variable tuple, DFS block order.
    * ``init_blockers[bi]`` — how many proper ancestors sit at a strictly
      lower alternation level (every one of them holds unassigned variables
      in the empty assignment, so this is the initial blocker count).
    * ``deeper_descendants[bi]`` — indices of descendant blocks at a
      strictly greater level: exactly the blocks whose frontier membership
      this block gates.
    """

    __slots__ = (
        "num_slots",
        "level",
        "is_exist",
        "din",
        "dout",
        "block_index",
        "lit_block",
        "block_level",
        "block_exist",
        "block_din",
        "block_dout",
        "block_vars",
        "init_blockers",
        "deeper_descendants",
    )

    def __init__(self, prefix: "Prefix"):
        nv = max(prefix.variables, default=0)
        self.num_slots = nv + 1
        self.level: List[int] = [0] * self.num_slots
        self.is_exist: List[bool] = [False] * self.num_slots
        self.din: List[int] = [0] * self.num_slots
        self.dout: List[int] = [0] * self.num_slots
        self.block_index: List[int] = [0] * self.num_slots
        blocks = prefix.blocks
        self.block_vars: Tuple[Tuple[int, ...], ...] = tuple(b.variables for b in blocks)
        for block in blocks:
            is_exist = block.quant is EXISTS
            for v in block.variables:
                self.level[v] = block.level
                self.is_exist[v] = is_exist
                self.din[v] = block.din
                self.dout[v] = block.dout
                self.block_index[v] = block.index
        # Layout [unused, 1..nv, -nv..-1]: the reversed copy puts the
        # entry for -v at index -v.
        self.lit_block: List[int] = self.block_index + self.block_index[:0:-1]
        self.block_level: List[int] = [b.level for b in blocks]
        self.block_exist: List[bool] = [b.quant is EXISTS for b in blocks]
        self.block_din: List[int] = [b.din for b in blocks]
        self.block_dout: List[int] = [b.dout for b in blocks]
        deeper: List[List[int]] = [[] for _ in blocks]
        init_blockers = []
        for block in blocks:
            n = 0
            for anc in block.ancestors():
                if anc.level < block.level:
                    n += 1
                    deeper[anc.index].append(block.index)
            init_blockers.append(n)
        self.init_blockers: Tuple[int, ...] = tuple(init_blockers)
        self.deeper_descendants: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(d) for d in deeper
        )


class Prefix:
    """An immutable partially ordered quantifier prefix.

    Construct with :meth:`linear` (prenex), :meth:`tree` (arbitrary forest
    spec), or :meth:`exists_only` (plain SAT). All constructors normalize
    the tree and precompute the stamps and levels used by the solver.
    """

    def __init__(self, roots: Sequence[Spec]):
        self._root = Block(None, ())
        for spec in roots:
            child = _build(spec)
            child.parent = self._root
            self._root.children.append(child)
        _normalize(self._root)
        self._blocks: List[Block] = []
        self._stamp_tree()
        self._block_of: Dict[int, Block] = {}
        for block in self._blocks:
            for v in block.variables:
                if v in self._block_of:
                    raise ValueError("variable %d bound more than once" % v)
                if v <= 0:
                    raise ValueError("variables must be positive, got %d" % v)
                self._block_of[v] = block
        self._variables = tuple(sorted(self._block_of))
        self._tables: Optional[PrefixTables] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def linear(cls, blocks: Sequence[Tuple[Quant, Sequence[int]]]) -> "Prefix":
        """Build a prenex (totally ordered) prefix, outermost to innermost.

        Example: ``Prefix.linear([(EXISTS, [1]), (FORALL, [2, 3])])`` is
        ``∃x1 ∀x2 x3``.
        """
        spec: Optional[Spec] = None
        for quant, variables in reversed(list(blocks)):
            if spec is None:
                spec = (quant, tuple(variables), ())
            else:
                spec = (quant, tuple(variables), (spec,))
        return cls([] if spec is None else [spec])

    @classmethod
    def tree(cls, roots: Sequence[Spec]) -> "Prefix":
        """Build a prefix from a forest of nested ``(quant, vars, children)``."""
        return cls(roots)

    @classmethod
    def exists_only(cls, variables: Sequence[int]) -> "Prefix":
        """Build the prefix of a plain SAT problem (all existential)."""
        return cls.linear([(EXISTS, tuple(variables))] if variables else [])

    # -- internals ---------------------------------------------------------

    def _stamp_tree(self) -> None:
        """One DFS computing din/dout, alternation levels and paper stamps."""

        def visit(node: Block, plain: int, alt: int, level: int, context: Optional[Quant]):
            if not node.is_root:
                plain += 1
                node.din = plain
                if context is None or node.quant is not context:
                    alt += 1
                    level += 1
                node.d = alt
                node.level = level
                node.index = len(self._blocks)
                self._blocks.append(node)
                context = node.quant
            for child in node.children:
                plain, alt = visit(child, plain, alt, level, context)
            node.dout = plain
            node.f = alt
            return plain, alt

        plain = 0
        alt = 0
        for child in self._root.children:
            # Forest roots restart the alternation context so unrelated top
            # blocks never share a discovery stamp.
            plain, alt = visit(child, plain, alt, 0, None)
        self._root.din = 0
        self._root.dout = plain
        self._root.level = 0

    # -- queries -----------------------------------------------------------

    @property
    def root(self) -> Block:
        """The virtual root block (binds no variables)."""
        return self._root

    @property
    def blocks(self) -> Tuple[Block, ...]:
        """All real blocks in DFS order."""
        return tuple(self._blocks)

    def tables(self) -> PrefixTables:
        """The flat lookup tables for this prefix, built once on first use.

        The prefix is immutable, so the cache can never go stale; hot loops
        grab the arrays they need from here at setup time and index them
        directly thereafter.
        """
        if self._tables is None:
            self._tables = PrefixTables(self)
        return self._tables

    @property
    def variables(self) -> Tuple[int, ...]:
        """Every bound variable, ascending."""
        return self._variables

    @property
    def num_vars(self) -> int:
        return len(self._variables)

    def block_of(self, var: int) -> Block:
        """Return the block binding ``var``."""
        return self._block_of[var]

    def quant(self, var_or_lit: int) -> Quant:
        """Quantifier of the variable of ``var_or_lit``."""
        return self._block_of[var_of(var_or_lit)].quant

    def is_existential(self, lit: int) -> bool:
        return self.quant(lit) is EXISTS

    def is_universal(self, lit: int) -> bool:
        return self.quant(lit) is FORALL

    def level(self, var_or_lit: int) -> int:
        """The paper's *prefix level* of the variable (1 = top)."""
        return self._block_of[var_of(var_or_lit)].level

    @property
    def prefix_level(self) -> int:
        """Prefix level of the whole QBF (0 for an empty prefix)."""
        return max((b.level for b in self._blocks), default=0)

    def d(self, var_or_lit: int) -> int:
        """Paper Section VI discovery stamp of the variable's block."""
        return self._block_of[var_of(var_or_lit)].d

    def f(self, var_or_lit: int) -> int:
        """Paper Section VI finish stamp of the variable's block."""
        return self._block_of[var_of(var_or_lit)].f

    def prec(self, a: int, b: int) -> bool:
        """The partial order test ``|a| ≺ |b|``.

        Equivalent to the paper's equation (13); implemented as "proper
        ancestor and strictly deeper alternation level", which stays correct
        on trees with same-quantifier branch-point children.
        """
        ba = self._block_of[var_of(a)]
        bb = self._block_of[var_of(b)]
        return ba.level < bb.level and ba.is_ancestor_of(bb)

    def same_block(self, a: int, b: int) -> bool:
        return self._block_of[var_of(a)] is self._block_of[var_of(b)]

    def top_variables(self) -> Tuple[int, ...]:
        """Variables of prefix level 1 (the paper's *top* variables)."""
        return tuple(sorted(v for v in self._variables if self.level(v) == 1))

    @property
    def is_prenex(self) -> bool:
        """True when the prefix is a total order (classical prenex form)."""
        node = self._root
        while node.children:
            if len(node.children) > 1:
                return False
            node = node.children[0]
        return True

    def linear_blocks(self) -> List[Tuple[Quant, Tuple[int, ...]]]:
        """The total order as a list of blocks; requires :attr:`is_prenex`."""
        if not self.is_prenex:
            raise ValueError("prefix is not prenex")
        out: List[Tuple[Quant, Tuple[int, ...]]] = []
        node = self._root
        while node.children:
            node = node.children[0]
            out.append((node.quant, node.variables))
        return out

    def to_spec(self) -> List[Spec]:
        """Nested-tuple forest describing this (normalized) prefix."""

        def conv(block: Block) -> Spec:
            return (block.quant, block.variables, tuple(conv(c) for c in block.children))

        return [conv(c) for c in self._root.children]

    def restrict(self, remove: Iterable[int]) -> "Prefix":
        """A new prefix with the given variables deleted (cofactor support).

        This implements point 2 of the paper's definition of ``ψ_l``: all
        order pairs involving a removed variable disappear; emptied blocks
        are spliced out and the tree re-normalized.
        """
        gone = {var_of(v) for v in remove}

        def conv(block: Block) -> Spec:
            kept = tuple(v for v in block.variables if v not in gone)
            return (block.quant, kept, tuple(conv(c) for c in block.children))

        return Prefix([conv(c) for c in self._root.children])

    # -- dunder ------------------------------------------------------------

    def __contains__(self, var: int) -> bool:
        return var in self._block_of

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return _shape(self._root) == _shape(other._root)

    def __hash__(self) -> int:
        return hash(_shape(self._root))

    def __repr__(self) -> str:
        def render(block: Block) -> str:
            body = "%s{%s}" % (block.quant.symbol, ",".join(map(str, block.variables)))
            if not block.children:
                return body
            return body + "(" + " ".join(render(c) for c in block.children) + ")"

        return "Prefix[" + " ".join(render(c) for c in self._root.children) + "]"


def _build(spec: Spec) -> Block:
    """Turn one nested-tuple spec into a raw (unnormalized) block tree."""
    if len(spec) == 2:
        quant, variables = spec  # type: ignore[misc]
        children: Sequence[Spec] = ()
    else:
        quant, variables, children = spec  # type: ignore[misc]
    if not isinstance(quant, Quant):
        raise TypeError("spec quantifier must be a Quant, got %r" % (quant,))
    block = Block(quant, tuple(variables))
    for child_spec in children:
        child = _build(child_spec)
        child.parent = block
        block.children.append(child)
    return block


def _normalize(root: Block) -> None:
    """Splice empty blocks; merge same-quantifier only-child chains.

    Both rewrites preserve every variable's scope. Merging a child at a
    *branch point* would lift its variables above sibling subtrees (forging
    order pairs), so only-child merges are the only ones performed.
    """

    def pass_once(node: Block) -> bool:
        changed = False
        new_children: List[Block] = []
        for child in node.children:
            if pass_once(child):
                changed = True
            if not child.variables:
                # An empty block binds nothing; splicing its children up
                # changes no variable's scope.
                for grand in child.children:
                    grand.parent = node
                    new_children.append(grand)
                changed = True
            else:
                new_children.append(child)
        node.children = new_children
        # Chain merge: absorb a same-quantifier only child. The child's
        # variables end up scoping over exactly the same subtree as before.
        while (
            not node.is_root
            and len(node.children) == 1
            and node.children[0].quant is node.quant
        ):
            child = node.children[0]
            node.variables = node.variables + child.variables
            node.children = child.children
            for grand in node.children:
                grand.parent = node
            changed = True
        return changed

    while pass_once(root):
        pass


def _shape(block: Block) -> tuple:
    """Canonical hashable form of a tree, for equality: children unordered."""
    kids = tuple(sorted(_shape(c) for c in block.children))
    quant = block.quant.value if block.quant is not None else "."
    return (quant, tuple(sorted(block.variables)), kids)
