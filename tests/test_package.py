"""Package hygiene: every module and test file uses each name it imports,
every public definition is referenced somewhere in the package or its tests,
and only an allow-listed few are read by the tests alone."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "masschase"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PERFBENCH = sorted((TESTS.parent / "perfbench").glob("*.py"))

# public names that only the tests read, each kept for a reason
TEST_ONLY = {
    "evaluate_J": "J is the functional the solved table is checked against",
    "TabulatedCandidate": "the candidate links a solved table to the Hamiltonian",
    "ValueTable.z": "z names the lattice of U that the tests read",
}


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


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
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


def _public_definitions(tree: ast.Module) -> "set[str]":
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def _referenced(trees) -> "set[str]":
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
    return names


def test_every_public_definition_is_referenced():
    # the package's own re-exports in __init__.py do not count as a use
    sources = [ast.parse(p.read_text(encoding="utf-8")) for p in MODULES]
    tests = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(TESTS.glob("*.py"))]
    defined = set().union(*map(_public_definitions, sources))
    assert sorted(defined - _referenced(sources + tests)) == []


def _public_methods(tree: ast.Module) -> "set[tuple[str, str]]":
    return {
        (cls.name, node.name)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    }


def _attributes(trees) -> "set[str]":
    return {n.attr for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_every_public_method_is_referenced():
    # a method is used only through an attribute access, obj.name
    sources = [ast.parse(p.read_text(encoding="utf-8")) for p in MODULES]
    tests = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(TESTS.glob("*.py"))]
    used = _attributes(sources + tests)
    methods = set().union(*map(_public_methods, sources))
    assert sorted(f"{c}.{m}" for c, m in methods if m not in used) == []


def test_the_check_sees_an_unreferenced_method():
    module = ast.parse(
        "class A:\n"
        "    def used(self):\n        return self.prop\n"
        "    @property\n    def prop(self):\n        return 1\n"
        "    def dead(self):\n        pass\n"
        "    def _private(self):\n        pass\n"
        "def dead2():\n    pass\n"
    )
    test = ast.parse("from m import A\nA().used()\ndead = 1\n")
    methods = _public_methods(module)
    assert methods == {("A", "used"), ("A", "prop"), ("A", "dead")}
    assert {m for _, m in methods} - _attributes([module, test]) == {"dead"}


def test_the_check_sees_an_unreferenced_definition():
    module = ast.parse(
        "class Used:\n    pass\n"
        "def called():\n    return Used()\n"
        "def imported():\n    pass\n"
        "def dead():\n    pass\n"
        "def _private():\n    pass\n"
    )
    test = ast.parse("from m import imported\nimport m\nm.called()\n")
    assert _public_definitions(module) - _referenced([module, test]) == {"dead"}


def _read_by_tests_alone(sources, readers) -> "set[str]":
    """Public definitions and methods of ``sources`` that no tree in ``readers`` reads."""
    referenced, used = _referenced(readers), _attributes(readers)
    defined = set().union(*map(_public_definitions, sources))
    methods = set().union(*map(_public_methods, sources))
    return {d for d in defined if d not in referenced} | {
        f"{c}.{m}" for c, m in methods if m not in used
    }


def test_only_the_allow_list_is_read_by_tests_alone():
    # the readers are the solver, scenario and CLI modules and the benchmark,
    # parsed rather than imported
    sources = [ast.parse(p.read_text(encoding="utf-8")) for p in MODULES]
    bench = [ast.parse(p.read_text(encoding="utf-8")) for p in PERFBENCH]
    assert bench, "no perfbench modules found"
    assert sorted(_read_by_tests_alone(sources, sources + bench)) == sorted(TEST_ONLY)


def test_the_check_sees_a_definition_read_by_tests_alone():
    module = ast.parse(
        "class A:\n"
        "    def read(self):\n        return helper()\n"
        "    def tested(self):\n        pass\n"
        "def helper():\n    pass\n"
        "def tested_fn():\n    pass\n"
    )
    reader = ast.parse("from m import A\nA().read()\n")
    assert _read_by_tests_alone([module], [module, reader]) == {"tested_fn", "A.tested"}
