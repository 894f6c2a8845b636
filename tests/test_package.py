"""Package hygiene: every module uses each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "masschase"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> "set[str]":
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> "set[str]":
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a string annotation such as "tuple[float, float]" names types as well
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(_imported(tree) - _used(tree)) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from typing import Callable, Sequence\n"
        "import numpy as np\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return None\n"
    )
    assert _imported(tree) - _used(tree) == {"Callable", "np"}
