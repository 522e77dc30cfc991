"""Checks on the source text of the package."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import tcslsim

SOURCES = sorted(Path(tcslsim.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]

# the names the package defines and never refers to, each with why it
# stays and the ROADMAP item that settles it
UNREFERENCED = {
    "RandomStream": "the benchmark wraps its methods, tests read streams with it (item 0)",
    "sample": "RandomStream.sample, wrapped by the benchmark (item 0)",
    "emit_outputs": "the benchmark's emit step calls it (item 0)",
    "to_dict": "ReproReport.to_dict, which the benchmark digests (item 0)",
    "num_lobes": "LobeSet.num_lobes, which the benchmark reads (item 0)",
    "all_passed": "ReproReport.all_passed, for reproduce's exit code (item 5)",
    "fit_composite_subpath": "the subpath-count fit of analyze --params-out (item 3)",
}


def unused_imports(source: str) -> list:
    """The names a module imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def private_imports(source: str) -> list:
    """The `_private` names a module imports from another module, in
    import order; dunder names such as `__version__` are not private."""
    return [alias.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


# the fields of an AST node that hold a name: a Name's id, an
# Attribute's attr, a def's, class's or alias's name, an import's
# asname and a keyword's or parameter's arg
NAME_FIELDS = ("id", "attr", "name", "asname", "arg")


def unreferenced_names(sources: dict) -> set:
    """The names defined in `sources` (file name -> text) whose only
    occurrence in all of them is their own definition.

    A definition is a top-level def, class or assigned name (a constant)
    of a file other than __init__.py, or a def directly inside such a
    class; dunder names do not count. Names are counted from the syntax
    tree, so a name read inside an f-string counts on every Python
    version, and strings and comments hold none.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    occurrences = Counter(part for tree in trees.values() for node in ast.walk(tree)
                          for field in NAME_FIELDS
                          if isinstance(getattr(node, field, None), str)
                          for part in getattr(node, field).split("."))
    defined = set()
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(f.name for f in node.body if isinstance(f, ast.FunctionDef))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for target in targets for n in ast.walk(target)
                               if isinstance(n, ast.Name))
    return {name for name in defined
            if occurrences[name] == 1 and not (name.startswith("__") and name.endswith("__"))}


# numpy's products, each a BLAS call whose bits follow the kernel and
# the strides it is given
PRODUCTS = {"dot", "vdot", "inner", "matmul", "vecdot", "tensordot", "einsum"}
# (module, top-level function) of the one place a product runs: each
# profile's dots, grouped by length, on unit-stride gathers
PRODUCT_HELPER = ("generate.py", "profile_sums")


def products_outside(source: str, helper: str | None = None) -> list:
    """Line numbers of the products in `source`, a call of a name or an
    attribute in PRODUCTS or the @ operator, outside the top-level
    function `helper`."""
    tree = ast.parse(source)
    inside = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == helper for node in ast.walk(top)}
    return sorted(node.lineno for node in ast.walk(tree) if id(node) not in inside and (
        isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in PRODUCTS
        or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)))


def test_products_outside_finds_each_product_but_the_helpers():
    source = ("import numpy as np\nfrom numpy import matmul\n\n\n"
              "def helper(w, x):\n    return np.matmul(w, x) + w.dot(x)\n\n\n"
              "def other(w, x):\n    y = w.dot(x) + np.dot(w, x)\n    y @= x\n"
              "    return [matmul(w, x), w @ x, np.einsum('i,i', w, x), np.outer(w, x), w.T]\n")
    assert products_outside(source, "helper") == [10, 10, 11, 12, 12, 12]
    assert products_outside(source) == [6, 6, 10, 10, 11, 12, 12, 12]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_products_run_only_in_the_grouped_helper(path):
    # a dot of one profile at a time, or on a strided gather, would come
    # back here: every sum and dot goes through generate.profile_sums
    module, helper = PRODUCT_HELPER
    assert products_outside(path.read_text(encoding="utf-8"),
                            helper if path.name == module else None) == []


def test_unused_imports_finds_a_name_read_nowhere():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.f(c)\n"
    assert unused_imports(source) == ["os", "e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_private_imports_finds_a_private_name_from_another_module():
    source = ("from . import __version__\nfrom .a import _b, c\nimport numpy as _np\n"
              "from x.y import _z as w\n")
    assert private_imports(source) == ["_b", "_z"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_unreferenced_names_finds_a_definition_read_nowhere():
    sources = {
        "a.py": ("def f():\n    return g()\n\n\ndef g():\n    pass\n\n\n"
                 "class C:\n    def m(self):\n        '''h()'''  # h\n\n"
                 "    def __repr__(self):\n        return ''\n\n\n"
                 "def h():\n    def inner():\n        pass\n\n\n"
                 "A = 1\nB: int = A\nD, (E, F) = 1, (2, B)\n__all__ = []\n"
                 "T = {}\nU = V = 2\n\n\ndef p():\n    return f\"{T[0]!r:>{U}} {'V'}\"\n"),
        "__init__.py": "from .a import C, E\n\n\ndef k():\n    pass\n\n\nG = 1\n",
    }
    # T and U are read only inside an f-string, which one token holds
    # before Python 3.12; the V in it is text
    assert unreferenced_names(sources) == {"f", "m", "h", "D", "F", "p", "V"}


def test_every_unreferenced_name_is_allowlisted():
    # a new name that nothing calls fails here, and so does an allowlisted
    # one that gains a caller or is deleted: take it off the list
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unreferenced_names(sources) == set(UNREFERENCED)
