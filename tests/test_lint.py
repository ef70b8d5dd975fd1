"""Lint: every module-level import under ``src/repro`` is read somewhere.

A dependency-free pass over the package's syntax trees. A name bound by a
module-level ``import`` (including one under a module-level ``if`` or
``try``, such as a ``TYPE_CHECKING`` guard) must be read in its module:
as a name, as the root of an attribute chain, or inside a quoted
annotation. Exempt are ``from __future__`` imports, every import of a
package's ``__init__.py`` (its re-exports) and names listed in ``__all__``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _module_imports(tree):
    """(name, line) for every name a module-level import binds."""
    out = []
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.If, ast.Try)):
            todo.extend(node.body)
            todo.extend(node.orelse)
            if isinstance(node, ast.Try):
                todo.extend(node.finalbody)
                for handler in node.handlers:
                    todo.extend(handler.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    out.append((alias.asname or alias.name, node.lineno))
    return out


def _annotation_names(node):
    """Names read by the quoted annotations under ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def _read_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    names |= _annotation_names(arg.annotation)
            if node.returns is not None:
                names |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Subscript):
            # a quoted name outside an annotation: Alias = Optional["T"]
            names |= _annotation_names(node.slice)
    return names


def _dunder_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    """``module:line name`` for every unread module-level import of ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read_names(tree) | _dunder_all(tree)
    rel = path.relative_to(SRC.parent)
    return ["%s:%d %s" % (rel, line, name)
            for name, line in _module_imports(tree) if name not in read]


def test_package_is_found():
    assert len(list(SRC.rglob("*.py"))) > 50


def test_no_unused_module_level_imports():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            found.extend(unused_imports(path))
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import TYPE_CHECKING, List, Optional\n"
        "if TYPE_CHECKING:\n"
        "    from x import Quoted, Unread\n"
        "__all__ = ['List']\n"
        "def f(a: 'Optional[Quoted]') -> None:\n"
        "    return os.sep\n"
    )
    read = _read_names(tree) | _dunder_all(tree)
    assert [name for name, _ in _module_imports(tree) if name not in read] == ["Unread"]
