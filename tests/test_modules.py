"""The package's modules: each imports alone, none imports a name it never
uses, and none imports anything outside the package and the standard library.

The package root defines only ``__version__``, so importing one module loads
just what that module imports. A fresh interpreter imports each module by
itself, which shows an import cycle that eager imports elsewhere would hide,
and the layers below the catalog load none of it. There is no linter in the
test dependencies, so unused imports are found here from each module's
syntax tree.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
FILES = sorted(SRC.rglob("*.py"))
MODULES = [".".join(p.relative_to(SRC).with_suffix("").parts)
           .removesuffix(".__init__") for p in FILES]

#: The layers below the catalog, which load only each other.
LOWER = ("fibsums.scalars", "fibsums.sequences", "fibsums.polynomials")

CHILD = ("import sys\n"
         "sys.path.insert(0, sys.argv[1])\n"
         "__import__(sys.argv[2])\n"
         "print(*(m for m in sys.modules if m.split('.')[0] == 'fibsums'))\n")


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    out = subprocess.run([sys.executable, "-I", "-c", CHILD, str(SRC), module],
                         capture_output=True, text=True, check=True).stdout
    loaded = set(out.split())
    assert module in loaded
    if module in LOWER:
        assert loaded <= {"fibsums", *LOWER}


def unused_imports(tree) -> list:
    """Names a module imports and never reads; ``__all__`` counts as a read."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def foreign_imports(tree) -> list:
    """The top-level modules an import names that are neither ``fibsums``
    nor in the standard library; a relative import names the package."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module.split(".")[0])
    return [n for n in names if n != "fibsums" and n not in sys.stdlib_module_names]


@pytest.mark.parametrize("path", FILES, ids=MODULES)
def test_imports_only_the_package_and_the_standard_library(path):
    # the runtime is stdlib-only
    assert foreign_imports(ast.parse(path.read_text(), str(path))) == []


def test_a_third_party_import_is_found():
    tree = ast.parse("import json, numpy.linalg\n"
                     "from .engine import Entry\n"
                     "from fibsums.scalars import Rat\n"
                     "def f():\n"
                     "    from sympy import Rational\n")
    assert foreign_imports(tree) == ["numpy", "sympy"]


@pytest.mark.parametrize("path", FILES, ids=MODULES)
def test_no_unused_import(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os, sys as system\n"
                     "from json import dumps, loads\n"
                     "__all__ = ['loads']\n"
                     "print(os.sep)\n")
    assert unused_imports(tree) == [(1, "system"), (2, "dumps")]
