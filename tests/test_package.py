"""Package hygiene: every module and test file uses each name it imports,
every public definition is referenced somewhere in the package or its tests,
only an allow-listed few are read by the tests alone, every dataclass field
is read outside the tests, and every defaulted parameter is passed by a call
outside the tests, again but for an allow-listed few."""

import ast
import math
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
}

# defaulted parameters that only the tests pass, each kept for a reason
PASSED_BY_TESTS = {
    "isaacs_residual(sigma)": (
        "the noise term of the Isaacs equation, which ROADMAP item 4's noisy residual tests check"
    ),
    "main(argv)": "the console script calls main() and argparse reads sys.argv",
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
    """Names read as attributes, obj.name; an assignment to obj.name is no read."""
    return {
        n.attr
        for tree in trees
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


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


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", None) == "dataclass" or getattr(target, "attr", None) == "dataclass":
            return True
    return False


def _dataclass_fields(tree: ast.Module) -> "set[tuple[str, str]]":
    return {
        (cls.name, node.target.id)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    }


def test_every_dataclass_field_is_read():
    # a field is read through an attribute access, obj.name, matched by name;
    # the readers are the package and the benchmark, not the tests
    sources = [ast.parse(p.read_text(encoding="utf-8")) for p in MODULES]
    bench = [ast.parse(p.read_text(encoding="utf-8")) for p in PERFBENCH]
    read = _attributes(sources + bench)
    fields = set().union(*map(_dataclass_fields, sources))
    assert sorted(f"{c}.{f}" for c, f in fields if f not in read) == []


def test_the_check_sees_an_unread_field():
    module = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass A:\n    read: int\n    written: int\n    unread: int = 0\n"
        "    def total(self):\n        return self.read\n"
        "class Plain:\n    x: int\n"
    )
    reader = ast.parse("a = A(1, 2)\na.written = 3\n")
    fields = _dataclass_fields(module)
    assert fields == {("A", "read"), ("A", "written"), ("A", "unread")}
    assert {f for _, f in fields} - _attributes([module, reader]) == {"written", "unread"}


def _defaulted_parameters(tree: ast.Module):
    """(label, callee name, positional index or None, name) of each defaulted parameter.

    A module-level function is called by its name, a method by its attribute
    name and a constructor by its class name; the index counts the arguments
    a call passes by position, after ``self`` or ``cls``.
    """
    defs = [(node.name, node.name, node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                callee = cls.name if node.name == "__init__" else node.name
                defs.append((f"{cls.name}.{node.name}", callee, node, 0 if static else 1))
    out = set()
    for label, callee, fn, skip in defs:
        if fn.name.startswith("_") and fn.name != "__init__":
            continue
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        out |= {(label, callee, i - skip, arg.arg) for i, arg in enumerate(positional[first:], first)}
        out |= {(label, callee, None, arg.arg) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
    return out


def _callers(root: Path) -> "list[Path]":
    """The modules whose calls count: the package and the benchmark, not the tests."""
    package = sorted((root / "src" / "masschase").glob("*.py"))
    return package + sorted((root / "perfbench").glob("*.py"))


def _units(tree: ast.Module):
    """(node, unit) for every node of a module.

    A node's unit is its nearest enclosing class, or outside any class its
    nearest enclosing function, or else the module. A benchmark workload
    builds its input dicts in one method and splats them in another, so the
    class is the unit there.
    """
    stack = [(tree, tree, False)]
    while stack:
        node, unit, in_class = stack.pop()
        yield node, unit
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child, child, True))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and not in_class:
                stack.append((child, child, False))
            else:
                stack.append((child, unit, in_class))


def _calls(trees) -> "dict[str, list[tuple[float, set[str]]]]":
    """Positional count and keyword names of each call, per callee name.

    A ``*args`` splat passes every positional parameter. A ``**name`` splat
    passes the string keys of the dict literals in its own unit (``_units``);
    the keys are not traced to the splatted dict.
    """
    calls: "dict[str, list]" = {}
    for tree in trees:
        nodes = list(_units(tree))
        keys: "dict[ast.AST, set[str]]" = {}
        for n, unit in nodes:
            if isinstance(n, ast.Dict):
                keys.setdefault(unit, set()).update(
                    k.value for k in n.keys if isinstance(k, ast.Constant) and isinstance(k.value, str)
                )
        for n, unit in nodes:
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                n_pos = math.inf if any(isinstance(a, ast.Starred) for a in n.args) else len(n.args)
                keywords = {k.arg for k in n.keywords if k.arg is not None}
                if any(k.arg is None for k in n.keywords):
                    keywords |= keys.get(unit, set())
                calls.setdefault(name, []).append((n_pos, keywords))
    return calls


def _never_passed(sources, callers) -> "set[str]":
    calls = _calls(callers)
    return {
        f"{label}({name})"
        for tree in sources
        for label, callee, index, name in _defaulted_parameters(tree)
        if not any(
            name in keywords or (index is not None and index < n_pos)
            for n_pos, keywords in calls.get(callee, ())
        )
    }


def test_every_defaulted_parameter_is_passed():
    # a call passes a parameter by keyword, by position or through a splat;
    # methods match by name, and only the package and the benchmark call
    sources = [ast.parse(p.read_text(encoding="utf-8")) for p in MODULES]
    callers = [ast.parse(p.read_text(encoding="utf-8")) for p in _callers(TESTS.parent)]
    assert sorted(_never_passed(sources, callers)) == sorted(PASSED_BY_TESTS)


def test_the_check_sees_a_parameter_never_passed(tmp_path):
    module = (
        "def f(a, by_position=1, by_keyword=2, dead=3, *, kw_dead=4):\n    pass\n"
        "def g(splatted=1, not_a_key=2, other_class=3, splatted_in_class=4):\n    pass\n"
        "def h(by_args=1, *, kw_only=2):\n    pass\n"
        "def tested(x=1):\n    pass\n"
        "class A:\n"
        "    def __init__(self, x=0, dead=1):\n        pass\n"
        "    def m(self, y=0, dead=1):\n        pass\n"
        "    @staticmethod\n    def s(z=0, dead=1):\n        pass\n"
        "def _private(dead=1):\n    pass\n"
    )
    files = {
        "src/masschase/m.py": module,
        "perfbench/bench.py": (
            "f(0, 1, by_keyword=2)\ninp = {'splatted': 1, 2: 3}\ng(**inp)\nh(*args)\n"
            "a = A(1)\na.m(2)\nA.s(3)\n_private()\n"
            "class W:\n"
            "    def inputs(self):\n        return [{'splatted_in_class': 1}]\n"
            "    def op(self, inp):\n        return g(**inp)\n"
            "class Other:\n"
            "    def inputs(self):\n        return [{'other_class': 1}]\n"
        ),
        "tests/test_m.py": "tested(x=0)\ng(not_a_key=0)\nh(kw_only=0)\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    callers = [ast.parse(p.read_text(encoding="utf-8")) for p in _callers(tmp_path)]
    assert len(callers) == 2
    assert _never_passed([ast.parse(module)], callers) == {
        "f(dead)", "f(kw_dead)", "g(not_a_key)", "g(other_class)", "h(kw_only)", "tested(x)",
        "A.__init__(dead)", "A.m(dead)", "A.s(dead)",
    }
