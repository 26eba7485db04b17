"""The package's modules: each imports alone, none imports a name it never
uses, none imports anything outside the package and the standard library,
and every function, class and method they define is read somewhere.

The package root defines only ``__version__``, so importing one module loads
just what that module imports. A fresh interpreter imports each module by
itself, which shows an import cycle that eager imports elsewhere would hide,
and the layers below the catalog load none of it. There is no linter in the
test dependencies, so unused imports are found here from each module's
syntax tree. A name the package defines and neither it nor ``perfbench``
reads is either a library entry point, listed with its reason, or dead.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
FILES = sorted(SRC.rglob("*.py"))
PERFBENCH = sorted((SRC.parent / "perfbench").rglob("*.py"))
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


#: The names the package defines for its users that neither it nor
#: ``perfbench`` reads, each with what it is for.
ENTRY_POINTS = {
    "evaluate_entry": "evaluates one entry at one point, as the README's API example does",
    "QuadExt.conj": "the Galois conjugate, the other root of a characteristic pair",
    "QuadExt.norm": "the field norm, a value times its conjugate",
    "poly": "builds a polynomial from its coefficients, canonicalised",
    "poly_pow": "a polynomial's n-th power, beside poly_add, poly_mul and poly_sub",
}


def definitions(tree) -> list:
    """A module's top-level functions and classes, and ``Class.method`` for
    each method whose name is not a dunder."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return names


def unread_names(defining, reading) -> list:
    """The names the ``defining`` trees define that no ``reading`` tree
    reads: a function or class as a bare name or after a dot, a method only
    after a dot. An import or an assignment is not a read."""
    bare, dotted = set(), set()
    for tree in reading:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bare.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                dotted.add(node.attr)
    return sorted(name for tree in defining for name in definitions(tree)
                  if name.rpartition(".")[2] not in (dotted if "." in name
                                                     else bare | dotted))


def test_every_defined_name_is_read():
    defining = [ast.parse(p.read_text(), str(p)) for p in FILES]
    reading = defining + [ast.parse(p.read_text(), str(p)) for p in PERFBENCH]
    assert unread_names(defining, reading) == sorted(ENTRY_POINTS)


def test_an_unread_name_is_found():
    module = ast.parse("def used(): pass\n"
                       "def unused(): pass\n"
                       "class Box:\n"
                       "    def __init__(self): pass\n"
                       "    def get(self): pass\n"
                       "    def put(self): pass\n"
                       "    @property\n"
                       "    def size(self): pass\n")
    reader = ast.parse("from m import used, unused\n"
                       "used(Box().get())\n"
                       "size = 3\n")
    assert unread_names([module], [module, reader]) == ["Box.put", "Box.size", "unused"]


def test_a_method_is_read_only_after_a_dot():
    # the bare name reads the function fib, not the method Box.fib
    module = ast.parse("def fib(): pass\n"
                       "class Box:\n"
                       "    def fib(self): pass\n")
    reader = ast.parse("from m import Box, fib\n"
                       "fib(Box())\n")
    assert unread_names([module], [module, reader]) == ["Box.fib"]
