"""Static checks on the package source, with the standard library only."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "usinv"


def minimum_python() -> tuple:
    """(major, minor) of the `requires-python = ">=X.Y"` line of
    pyproject.toml, read as text so no TOML parser is needed."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text,
                      re.MULTILINE)
    assert match, "pyproject.toml has no requires-python lower bound"
    return int(match[1]), int(match[2])


def test_package_parses_at_minimum_python():
    """Every module is valid syntax for the oldest Python the package
    claims to support, so syntax newer than that fails here."""
    version = minimum_python()
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=version)


def test_minimum_python_check_catches_newer_syntax():
    # except* (PEP 654) is Python 3.11 syntax
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=(3, 10))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = (args.posonlyargs + args.args + args.kwonlyargs
                     + [args.vararg, args.kwarg])
            yield from (a.annotation for a in every if a and a.annotation)
            if node.returns:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads, with
    names inside string annotations counted as read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                read |= {n.id for n in ast.walk(ast.parse(c.value))
                         if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unused_imports_are_caught():
    source = ("from __future__ import annotations\n"
              "import os\nfrom typing import Optional, Sequence\n"
              "def f(x: 'Optional[int]') -> int:\n    return 1\n")
    assert unused_imports(source) == [(2, "os"), (3, "Sequence")]


def test_no_unused_imports_in_package():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


# Functions and methods no module of the package refers to, each kept for
# the reason given: a layer `bench/tracer.py` wraps by name, a statement of
# the paper an acceptance criterion checks, another paper statement, or a
# hook argparse calls.
UNREFERENCED_KEPT = {
    "annihilates": "tracer layer",
    "apply_derivation_poly": "tracer layer",
    "spans_equal": "tracer layer",
    "is_invariant_minor": "acceptance criterion 4",
    "all_hold": "acceptance criterion 7",
    "exponent_lemma_check": "acceptance criterion 7",
    "wedge_coefficient_check": "acceptance criterion 8",
    "so_parameter_property": "paper statement",
    "strongly_separated": "paper statement",
    "error": "argparse error hook",
}


def unreferenced_functions(sources: list) -> list:
    """Functions and methods defined in the given module sources whose name
    no module reads, as a name or as an attribute.  Dunder methods are
    called by the language and exempt."""
    defined, read = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in defined - read
                  if not (name.startswith("__") and name.endswith("__")))


def test_unreferenced_functions_are_caught():
    first = ("class C:\n"
             "    def __eq__(self, other):\n        return True\n"
             "    def used(self):\n        return helper()\n"
             "    def unused(self):\n        return 0\n")
    second = ("def helper():\n    return C().used\n"
              "def orphan():\n    return 1\n")
    assert unreferenced_functions([first, second]) == ["orphan", "unused"]


def test_every_function_is_referenced_in_package():
    sources = [path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_functions(sources) == sorted(UNREFERENCED_KEPT)


def referenced_names(source: str) -> set:
    """Every name a module reads or binds, as a name, an attribute or an
    import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {alias.name.split(".")[-1] for alias in node.names}
    return found


def test_closedness_decided_in_subsets_only():
    """`subsets.closure` is the one place that decides whether a subset is
    closed; no other module calls the tests it is built from."""
    tests = {"is_closed", "root_closure", "transitive_closure"}
    found = {path.name: sorted(tests & referenced_names(
                 path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py")) if path.name != "subsets.py"}
    assert {name: names for name, names in found.items() if names} == {}
