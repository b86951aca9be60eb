"""The package imports its own modules at module level only, and nothing
but itself and the standard library.

A function-local import of a package module hides a dependency cycle
instead of breaking it; standard-library imports inside a function (such as
`cli.main`'s argparse) stay allowed.  Loading the CLI and the catalog
imports neither `dataclasses` nor `inspect`: generating dataclass methods
at import, and importing `inspect` for them, cost about a quarter of every
command's start-up.  The package ships only what it runs: every public
function, class, method and property has a use in the package itself,
and reference code that only tests read lives in `tests/references.py`.
"""

import ast
import os
import subprocess
import sys
from collections import defaultdict
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


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) of each public top-level function and class, and of each
    public method and property of a public class, as `Class.name`."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{m.name}", m) for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return found


def unused_definitions(trees: dict[str, ast.Module]) -> list[str]:
    """`module.name` of each public definition that no code in `trees` reads
    outside the definition itself.  A method or property is read only as an
    attribute (`x.roots`), so a local variable of its name does not count; a
    function or class is read by its name or as a module attribute.  An
    import is not a read, so `__init__`'s re-exports do not count either."""
    by_name, by_attr = defaultdict(set), defaultdict(set)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                by_name[node.id].add(id(node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                by_attr[node.attr].add(id(node))
    unused = []
    for module, tree in trees.items():
        for name, node in public_definitions(tree):
            reads = by_attr[node.name] | (set() if "." in name else by_name[node.name])
            if not reads - {id(n) for n in ast.walk(node)}:
                unused.append(f"{module}.{name}")
    return sorted(unused)


# public names that no command reaches, each held by the ROADMAP item it names
KEPT_WITHOUT_A_CALLER = {
    "engine.alpha_functional": "ROADMAP item 5: benchmark/tracer.py wraps it",
    "ratlinalg.annihilator_preimage": "ROADMAP item 5: benchmark/tracer.py wraps it",
    "rootsystems.RootSystem.fundamental_weights":
        "ROADMAP item 5: its _invert is the only use of rootsystems.rref, which "
        "benchmark/test_benchmark.py asserts",
    "engine.twist": "ROADMAP item 16: waits on the coverage decision",
}


def test_every_public_name_has_a_use_in_the_package():
    probe = {"probe": ast.parse(
        "def entry(r):\n"            # nobody calls it
        "    return helper(r).rank\n"
        "def helper(r):\n"
        "    roots = [r]\n"            # a local name is not a read of R.roots
        "    return R(roots)\n"
        "def alone(n):\n"            # read only inside its own body
        "    return alone(n - 1) if n else 0\n"
        "class R:\n"
        "    def __init__(self, gens):\n"
        "        self._gens = gens\n"
        "    @property\n"
        "    def rank(self):\n"       # read as an attribute only
        "        return len(self._gens)\n"
        "    def roots(self):\n"
        "        return self._gens\n")}
    assert unused_definitions(probe) == ["probe.R.roots", "probe.alone", "probe.entry"]
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    assert unused_definitions(trees) == sorted(KEPT_WITHOUT_A_CALLER)
