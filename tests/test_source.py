"""Static checks on the package source, with the standard library only."""

import ast
import graphlib
import os
import re
import subprocess
import sys
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


def command_modules() -> list:
    """Every module of the package but `statements`, which holds the paper
    statements only tests check and which no module imports."""
    return sorted(path for path in SRC.glob("*.py")
                  if path.stem != "statements")


# Functions and methods no command module refers to, each kept for the
# reason given: a layer `bench/tracer.py` wraps by name, the minor criterion
# an acceptance criterion checks, or a hook argparse calls.
UNREFERENCED_KEPT = {
    "annihilates": "tracer layer",
    "apply_derivation_poly": "tracer layer",
    "spans_equal": "tracer layer",
    "is_invariant_minor": "acceptance criterion 4",
    "error": "argparse error hook",
}


def _reads(nodes) -> set:
    """Every name and attribute read in the given nodes' subtrees."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def unreferenced_functions(sources: list) -> list:
    """Functions and methods defined in the given module sources whose name
    no module reads, as a name or as an attribute.  Dunder methods are
    called by the language and exempt."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        defined |= {node.name for node in ast.walk(tree) if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        read |= _reads([tree])
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
    sources = [path.read_text(encoding="utf-8") for path in command_modules()]
    assert unreferenced_functions(sources) == sorted(UNREFERENCED_KEPT)


def unreached_functions(sources: list, entries: set) -> list:
    """Functions and methods defined in the given module sources that no
    chain of name reads reaches from the entry functions or from the code
    that runs at import: module and class bodies, decorators and default
    values.  A reached function reaches every function or method of each
    name its body reads, nested functions included.  Dunder methods are
    called by the language, so they count as reached."""
    bodies: dict = {}  # name -> the function nodes of that name
    start = set(entries)
    for source in sources:
        todo = list(ast.parse(source).body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bodies.setdefault(node.name, []).append(node)
                if node.name.startswith("__") and node.name.endswith("__"):
                    start.add(node.name)
                start |= _reads(node.decorator_list + node.args.defaults
                                + [d for d in node.args.kw_defaults if d])
            elif isinstance(node, ast.ClassDef):
                todo += node.body
                start |= _reads(node.bases + node.keywords
                                + node.decorator_list)
            else:
                start |= _reads([node])
    reached, todo = set(), start & bodies.keys()
    while todo:
        name = todo.pop()
        reached.add(name)
        for node in bodies[name]:
            todo |= (_reads(node.body) & bodies.keys()) - reached
    return sorted(bodies.keys() - reached)


def test_unreached_functions_are_caught():
    """`only_from_orphan` is referenced, so only reachability flags it."""
    first = ("class C:\n"
             "    def __eq__(self, other):\n        return self.key()\n"
             "    def key(self):\n        return 0\n"
             "    def used(self):\n        return helper()\n"
             "    def unused(self):\n        return 0\n"
             "TABLE = {'k': tabled}\n")
    second = ("def main():\n    return C().used()\n"
              "def helper(x=default()):\n    return x\n"
              "def default():\n    return 1\n"
              "def tabled():\n    return 2\n"
              "def orphan():\n    return only_from_orphan()\n"
              "def only_from_orphan():\n    return 3\n")
    assert unreached_functions([first, second], {"main"}) == [
        "only_from_orphan", "orphan", "unused"]


def cli_closure() -> list:
    """The package modules `import usinv.cli` loads: the package's
    __init__, cli, and every module they import, directly or not."""
    graph = import_graph()
    found, todo = set(), {"__init__", "cli"}
    while todo:
        name = todo.pop()
        found.add(name)
        todo |= graph[name] - found
    return sorted(found)


# Functions and methods of cli's import closure that no command reaches,
# each kept for the reason given.
UNREACHED_KEPT = {
    "annihilates": "tracer layer",
    "apply_derivation_poly": "tracer layer",
    "spans_equal": "tracer layer",
    "wedge_apply": "reached only from the tracer layer annihilates",
    "is_invariant_minor": "acceptance criterion 4",
    "error": "argparse error hook",
}


def test_every_function_in_cli_closure_is_reached():
    """Every function of the modules `import usinv.cli` loads is reached
    from `main`, `run`, `build_parser` or import-time code, so no command
    compiles code only tests run."""
    modules = cli_closure()
    assert "statements" not in modules
    sources = [(SRC / f"{name}.py").read_text(encoding="utf-8")
               for name in modules]
    assert unreached_functions(sources, {"main", "run", "build_parser"}) == (
        sorted(UNREACHED_KEPT))


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


def function_imports(source: str) -> list:
    """Lines of the import statements inside a function body, nested
    functions included."""
    return sorted({inner.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for inner in ast.walk(node)
                   if isinstance(inner, (ast.Import, ast.ImportFrom))})


def test_function_imports_are_caught():
    source = ("import os\n"
              "def f():\n    from .b import g\n    return g\n"
              "class C:\n    def m(self):\n"
              "        def inner():\n            import json\n")
    assert function_imports(source) == [3, 8]


def test_no_import_inside_a_function():
    found = {path.name: function_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def relative_imports(source: str, modules: set) -> set:
    """The package modules a module imports relatively, imports inside
    functions included; `from . import x` names the module x when there is
    one, else the package's __init__."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found |= {alias.name if alias.name in modules else "__init__"
                          for alias in node.names}
    return found


def import_graph() -> dict:
    modules = {path.stem for path in SRC.glob("*.py")}
    return {path.stem: relative_imports(path.read_text(encoding="utf-8"),
                                        modules)
            for path in sorted(SRC.glob("*.py"))}


def test_relative_imports_are_read():
    source = ("import os\nfrom .exact import Q1\n"
              "from . import __version__, subsets\n"
              "def g():\n    from .invars import h\n")
    assert relative_imports(source, {"subsets"}) == {
        "exact", "__init__", "subsets", "invars"}


def test_no_module_imports_statements():
    """The paper statements only tests check stay out of every command's
    import closure."""
    graph = import_graph()
    assert graph["statements"]
    assert sorted(name for name, deps in graph.items()
                  if "statements" in deps) == []


def test_package_import_graph_is_acyclic():
    """`graphlib` refuses a cycle; `subsets` and `invars` used to import
    each other, one of them inside a function."""
    graph = import_graph()
    assert graph["exact"] == set()
    list(graphlib.TopologicalSorter(graph).static_order())


def test_only_cli_imports_invars():
    graph = import_graph()
    assert sorted(name for name, deps in graph.items()
                  if "invars" in deps) == ["cli"]


def cost_policy_names(source: str) -> list:
    """Lines of a module that read `os.environ` or hold a string constant,
    docstrings left out and f-string parts included, that names USINV_CAP."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant):
                docstrings.add(id(first.value))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "environ":
            found.add(node.lineno)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "USINV_CAP" in node.value
              and id(node) not in docstrings):
            found.add(node.lineno)
    return sorted(found)


def test_cost_policy_names_are_caught():
    source = ('"""USINV_CAP in a docstring does not count."""\n'
              "import os\n"
              "def f(cap):\n"
              '    """Nor here: USINV_CAP."""\n'
              '    text = os.environ.get("X")\n'
              '    raise ValueError(f"{cap}; raise it with USINV_CAP")\n')
    assert cost_policy_names(source) == [5, 6]


def test_cost_policy_read_in_one_module():
    """The environment and the name USINV_CAP are read in exact.py only,
    next to the one cost check; invars, limits and subsets each used to
    write their own refusal naming it."""
    found = {path.name: cost_policy_names(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert [name for name, lines in found.items() if lines] == ["exact.py"]


def absolute_imports(source: str) -> set:
    """Top-level names of the modules a module imports absolutely, imports
    inside functions included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_absolute_imports_are_read():
    source = ("import os.path, json\nfrom dataclasses import field\n"
              "from .exact import Q1\ndef f():\n    import inspect\n")
    assert absolute_imports(source) == {"os", "json", "dataclasses",
                                        "inspect"}


def test_no_module_imports_dataclasses():
    """Importing `dataclasses` loads `inspect` and ten more modules, and its
    generated methods run at class creation: together the largest part of a
    fresh process's start-up, which `usinv` pays on every command."""
    found = sorted(path.name for path in SRC.glob("*.py")
                   if "dataclasses" in absolute_imports(
                       path.read_text(encoding="utf-8")))
    assert found == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Nor `string`, which a fresh interpreter does not load either: its
    import costs about a millisecond for one constant; nor
    `usinv.statements`, which no command runs, though it imports."""
    code = ("import sys, usinv.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'string',"
            " 'usinv.statements'} & set(sys.modules)))\n"
            "import usinv.statements")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
