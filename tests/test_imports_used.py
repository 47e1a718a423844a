"""Every module-level import under ``src/repro`` is used in its module.

CI's ruff rule set (``E9``, ``F63``, ``F7``, ``F82``) does not report
unused imports, so this test does.  A name a module imports at its top
level (or inside a top-level ``if``/``try``) must be read somewhere in
that module, be listed in its ``__all__``, or appear in a string
annotation.  Package ``__init__.py`` files import to re-export and are
skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _top_level(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _top_level(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            handlers = [s for h in node.handlers for s in h.body]
            yield from _top_level(node.body + handlers + node.orelse + node.finalbody)


def _imported(tree: ast.Module) -> Dict[str, int]:
    """Bound name -> line, for every top-level import."""
    names: Dict[str, int] = {}
    for node in _top_level(tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.annotation is not None:
                    yield arg.annotation
            for arg in (args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(
                    sub.id
                    for sub in ast.walk(ast.parse(node.value, mode="eval"))
                    if isinstance(sub, ast.Name)
                )
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(
                elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)
            )
    return used


def test_the_scan_sees_the_package():
    assert len(MODULES) > 100


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported(tree).items()
        if name not in used
    )
    assert not unused, f"{path.relative_to(SRC)} imports unused names: {unused}"
