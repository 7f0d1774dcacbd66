"""No module in src/ubd, tests or demos imports a name that it never reads.

An import statement binds its names in one scope, the module for a
top-level import and the function for a local one; each name must be read
somewhere in that scope.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/ubd", "tests", "demos")
               for p in (ROOT / d).glob("*.py"))


def _imports(scope):
    """The import statements of scope, without those of nested functions."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, ast.FunctionDef):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(source):
    """(line, name) of every imported name that its scope never reads."""
    tree = ast.parse(source)
    out = []
    for scope in [tree, *(n for n in ast.walk(tree)
                          if isinstance(n, ast.FunctionDef))]:
        read = {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in _imports(scope):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    out.append((node.lineno, name))
    return sorted(out)


def test_the_scan_finds_an_unused_import_in_each_scope():
    source = ("import os\nfrom math import gcd, lcm as l\nimport a.b\n"
              "def f():\n    from math import pi\n    return gcd, a\n"
              "def g():\n    import sys\n    return sys, os\n")
    assert unused_imports(source) == [(2, "l"), (5, "pi")]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []
