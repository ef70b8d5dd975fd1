"""A text format for *non-prenex* QBFs with tree prefixes.

No standard CNF-matrix exchange format supports partial-order prefixes
(QDIMACS is prenex-only; QCIR carries full circuits), so the library defines
"QTREE", a minimal QDIMACS extension::

    c comments, as in DIMACS
    p qtree <num-vars> <num-clauses>
    t (e 1 (a 2 (e 3 4)) (a 5 (e 6)))
    1 -2 3 0
    ...

The single ``t`` line holds the quantifier forest as an s-expression:
``(e v1 v2 ... child child ...)`` — a block's children follow its variable
list. Clauses are plain DIMACS. Variables in clauses but not in the tree
are bound existentially outermost, as in QDIMACS.
"""

from __future__ import annotations

import io
from typing import Iterable, List, TextIO, Tuple, Union

from repro.core.formula import QBF
from repro.core.literals import EXISTS, FORALL
from repro.core.prefix import Prefix, Spec


class QtreeError(ValueError):
    """Raised on malformed QTREE input."""


def _spec_to_sexp(spec: Spec) -> str:
    quant, variables, children = spec[0], spec[1], spec[2] if len(spec) > 2 else ()
    tag = "e" if quant is EXISTS else "a"
    parts = [tag] + [str(v) for v in variables]
    parts.extend(_spec_to_sexp(c) for c in children)
    return "(" + " ".join(parts) + ")"


def dumps(formula: QBF, comments: Iterable[str] = ()) -> str:
    """Serialize any QBF (prenex or not) to QTREE text."""
    out = io.StringIO()
    for comment in comments:
        out.write("c %s\n" % comment)
    num_vars = max(formula.prefix.variables, default=0)
    out.write("p qtree %d %d\n" % (num_vars, formula.num_clauses))
    sexp = " ".join(_spec_to_sexp(s) for s in formula.prefix.to_spec())
    out.write("t %s\n" % sexp)
    for clause in formula.clauses:
        out.write("%s 0\n" % " ".join(map(str, clause.lits)))
    return out.getvalue()


def dump(formula: QBF, fp: Union[str, TextIO], comments: Iterable[str] = ()) -> None:
    text = dumps(formula, comments)
    if isinstance(fp, str):
        with open(fp, "w") as handle:
            handle.write(text)
    else:
        fp.write(text)


def _tokenize(text: str) -> List[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_forest(tokens: List[str]) -> List[Spec]:
    pos = [0]

    def parse_node() -> Spec:
        if tokens[pos[0]] != "(":
            raise QtreeError("expected '(' at token %d" % pos[0])
        pos[0] += 1
        tag = tokens[pos[0]]
        if tag not in ("e", "a"):
            raise QtreeError("expected quantifier tag 'e' or 'a', got %r" % tag)
        pos[0] += 1
        quant = EXISTS if tag == "e" else FORALL
        variables: List[int] = []
        children: List[Spec] = []
        while pos[0] < len(tokens) and tokens[pos[0]] != ")":
            tok = tokens[pos[0]]
            if tok == "(":
                children.append(parse_node())
            else:
                try:
                    variables.append(int(tok))
                except ValueError as exc:
                    raise QtreeError("bad token %r in tree" % tok) from exc
                pos[0] += 1
        if pos[0] >= len(tokens):
            raise QtreeError("unbalanced parentheses in tree line")
        pos[0] += 1  # consume ')'
        return (quant, tuple(variables), tuple(children))

    forest: List[Spec] = []
    while pos[0] < len(tokens):
        forest.append(parse_node())
    return forest


def loads(text: str) -> QBF:
    """Parse QTREE text into a QBF."""
    tree_line = None
    clauses: List[Tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("p"):
            continue
        if line.startswith("t"):
            if tree_line is not None:
                raise QtreeError("line %d: second tree line" % lineno)
            tree_line = line[1:].strip()
            continue
        try:
            nums = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise QtreeError("line %d: %s" % (lineno, exc)) from exc
        if not nums or nums[-1] != 0:
            raise QtreeError("line %d: clause must end with 0" % lineno)
        clauses.append(tuple(nums[:-1]))
    forest = _parse_forest(_tokenize(tree_line)) if tree_line else []
    return QBF.close(Prefix.tree(forest), clauses)


def load(fp: Union[str, TextIO]) -> QBF:
    if isinstance(fp, str):
        with open(fp) as handle:
            return loads(handle.read())
    return loads(fp.read())
