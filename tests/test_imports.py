"""The package imports its own modules at module level only, and nothing
but itself and the standard library.

A function-local import of a package module hides a dependency cycle
instead of breaking it; standard-library imports inside a function (such as
`cli.main`'s argparse) stay allowed.  Loading the CLI and the catalog
imports neither `dataclasses` nor `inspect`: generating dataclass methods
at import, and importing `inspect` for them, cost about a quarter of every
command's start-up.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import cartanspaces

SOURCES = sorted(Path(cartanspaces.__file__).parent.glob("*.py"))


def local_package_imports(tree: ast.AST) -> list[tuple[str, int]]:
    """(function name, line) of every package import inside a function."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                own = node.level > 0 or (node.module or "").split(".")[0] == "cartanspaces"
            elif isinstance(node, ast.Import):
                own = any(a.name.split(".")[0] == "cartanspaces" for a in node.names)
            else:
                continue
            if own:
                found.append((fn.name, node.lineno))
    return found


def test_no_function_imports_a_package_module():
    # the walk sees relative, absolute and nested imports, and lets stdlib ones be
    probe = ast.parse(
        "import os\n"
        "def f():\n"
        "    import argparse\n"
        "    from . import engine\n"
        "    def g():\n"
        "        import cartanspaces.indexes\n"
        "class C:\n"
        "    def m(self):\n"
        "        from cartanspaces.catalog import HItem\n")
    assert local_package_imports(probe) == [("f", 4), ("f", 6), ("g", 6), ("m", 9)]
    assert len(SOURCES) >= 10
    for path in SOURCES:
        found = local_package_imports(ast.parse(path.read_text(), str(path)))
        assert not found, (path.name, found)


def foreign_imports(tree: ast.AST) -> list[tuple[str, int]]:
    """(module, line) of every import, at any depth, of a module that is
    neither the package nor in the standard library."""
    allowed = sys.stdlib_module_names | {"cartanspaces"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [] if node.level else [node.module]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        found += [(name, node.lineno) for name in names if name.split(".")[0] not in allowed]
    return found


def test_only_the_standard_library_is_imported():
    probe = ast.parse(
        "import os, numpy\n"
        "from . import engine\n"
        "from cartanspaces.exprs import evaluate\n"
        "def f():\n"
        "    from fractions import Fraction\n"
        "    import sympy.core\n")
    assert foreign_imports(probe) == [("numpy", 1), ("sympy.core", 6)]
    for path in SOURCES:
        found = foreign_imports(ast.parse(path.read_text(), str(path)))
        assert not found, (path.name, found)


def test_start_up_imports_neither_dataclasses_nor_inspect():
    src = str(Path(cartanspaces.__file__).resolve().parents[1])
    probe = ("import sys, cartanspaces.cli; cartanspaces.cli.get_catalog(); "
             "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names]
        names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert "dataclasses" not in names, path.name
