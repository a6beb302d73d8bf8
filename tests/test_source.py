"""Static checks on the package source, with the standard library only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "usinv"


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
