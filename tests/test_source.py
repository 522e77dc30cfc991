"""Checks on the source text of the package."""

import ast
import fnmatch
import re
import sys
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


# the calls whose last bits replay depends on, as fnmatch patterns of
# the dotted names that reach them ("?" for a receiver that is no name),
# and "**" (a power whose exponent is not a constant number) and "@"
PRODUCTS = tuple(f"{receiver}{name}" for receiver in ("", "*.") for name in (
    "dot", "vdot", "inner", "matmul", "vecdot", "tensordot", "einsum"))
PRIMITIVES = ("np.exp", "np.log", "np.log[12]*", "np.logaddexp*", "np.power", "math.exp",
              "math.log*", "math.pow", "pow", "**", "ndtri", "*.ndtri", *PRODUCTS, "@")
# each module, but randcore, with the primitives it may not name: the
# replay path none, and the rest no numpy product, each a BLAS call
# whose bits follow the kernel and the strides it is given. randcore
# names each primitive once, and the others call it by that name.
REPLAY_PATH = ("generate.py", "pathloss.py", "campaign.py", "stats.py")
BANNED = {p.name: PRIMITIVES if p.name in REPLAY_PATH else (*PRODUCTS, "@")
          for p in SOURCES if p.name != "randcore.py"}


def dotted(node) -> str:
    """`np.exp` for the expression np.exp, `?.dot` for (a + b).dot."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return "?"


def primitives_named(source: str, patterns) -> list:
    """(line, name) of each place `source` names one of `patterns`: a
    name or attribute read, called or not, a name imported from numpy
    (as np.name), math (math.name) or elsewhere, or the operator "@" or
    "**"; "**" matches only itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = []
        if isinstance(node, (ast.Name, ast.Attribute)):
            names = [dotted(node)]
        elif isinstance(node, ast.ImportFrom):
            module = {"numpy": "np.", "math": "math."}.get(node.module, "")
            names = [module + alias.name for alias in node.names]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            names = ["@"]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            exponent = node.right if isinstance(node, ast.BinOp) else node.value
            if isinstance(exponent, ast.UnaryOp):
                exponent = exponent.operand
            if not (isinstance(exponent, ast.Constant) and type(exponent.value) in (int, float)):
                names = ["**"]
        found += [(node.lineno, name) for name in names if any(
            name == pattern if pattern == "**" else fnmatch.fnmatchcase(name, pattern)
            for pattern in patterns)]
    return sorted(found)


def test_primitives_named_finds_each_primitive_but_the_allowed():
    source = ("import math\nimport numpy as np\nfrom numpy import matmul, sqrt\n"
              "from scipy.special import ndtri\nfrom math import log, pi\n"
              "from .randcore import exp, exp10\n\n\n"
              "def f(w, x, n):\n"
              "    y = np.exp(x) + np.log1p(x) + np.log(x) + np.power(x, n) + exp(x)\n"
              "    z = math.log10(n) + math.exp(n) + math.pow(n, n) + math.sqrt(n) + exp10(x)\n"
              "    y @= x\n"
              "    y **= n\n"
              "    y = pow(y, n) + np.log2(y) + np.logaddexp(y, x) + np.logspace(0, 1)\n"
              "    return [x ** 2, x ** -0.5, 10.0 ** x, x ** (n / 2), w.T.dot(x), (w + x).dot(x),\n"
              "            np.einsum('i,i', w, x), w @ x, map(math.log, n), ndtri(x), sqrt(x),\n"
              "            np.sqrt(x), np.abs(x), np.outer(w, x), special.ndtri(x), np.logical_and]\n")
    assert primitives_named(source, PRIMITIVES) == [
        (3, "np.matmul"), (4, "ndtri"), (5, "math.log"),
        (10, "np.exp"), (10, "np.log"), (10, "np.log1p"), (10, "np.power"),
        (11, "math.exp"), (11, "math.log10"), (11, "math.pow"),
        (12, "@"), (13, "**"), (14, "np.log2"), (14, "np.logaddexp"), (14, "pow"),
        (15, "**"), (15, "**"), (15, "?.dot"), (15, "w.T.dot"),
        (16, "@"), (16, "math.log"), (16, "ndtri"), (16, "np.einsum"), (17, "special.ndtri")]
    assert primitives_named(source, BANNED["analysis.py"]) == [
        (3, "np.matmul"), (12, "@"), (15, "?.dot"), (15, "w.T.dot"), (16, "@"),
        (16, "np.einsum")]


@pytest.mark.parametrize("name", sorted(BANNED))
def test_only_randcore_names_a_primitive_whose_bits_replay_depends_on(name):
    # a primitive called outside randcore, or a dot of one profile at a
    # time, would come back here: each goes through its randcore name
    path = Path(tcslsim.__file__).parent / name
    assert primitives_named(path.read_text(encoding="utf-8"), BANNED[name]) == []


# (module, a call of a randcore primitive in it, the call it replaced,
# the name the ratchet gives that call) for each call the replay path
# made before randcore named its primitives
REPLACED_CALLS = [
    ("generate.py", "exp(-tau / params.gamma_cluster)",
     "np.exp(-tau / params.gamma_cluster)", "np.exp"),
    ("generate.py", "exp10(z_db / 10.0)", "10.0 ** (z_db / 10.0)", "**"),
    ("generate.py", "exp(-intra / params.gamma_subpath)",
     "np.exp(-intra / params.gamma_subpath)", "np.exp"),
    ("generate.py", "exp10(u_db / 10.0)", "10.0 ** (u_db / 10.0)", "**"),
    ("pathloss.py", "20.0 * float_log10(", "20.0 * math.log10(", "math.log10"),
    ("pathloss.py", "slope_db * float_log10(distance)", "slope_db * math.log10(distance)",
     "math.log10"),
    ("pathloss.py", "float_exp10(dbm / 10.0)", "10.0 ** (dbm / 10.0)", "**"),
    ("campaign.py", "10.0 * log10(powers)", "10.0 * np.log10(powers)", "np.log10"),
    ("stats.py", "(phasors(angles),)", "(np.exp(1j * np.deg2rad(angles)),)", "np.exp"),
    ("stats.py", "log_each(magnitude)",
     "np.fromiter(map(math.log, magnitude.tolist()), float, len(magnitude))", "math.log"),
]


@pytest.mark.parametrize("name, call, replaced, found", REPLACED_CALLS,
                         ids=[f"{name}:{call}" for name, call, _, _ in REPLACED_CALLS])
def test_the_ratchet_finds_each_call_the_primitives_replaced_put_back(name, call, replaced,
                                                                       found):
    source = (Path(tcslsim.__file__).parent / name).read_text(encoding="utf-8")
    assert source.count(call) == 1
    restored = source.replace(call, replaced)
    assert [primitive for _, primitive in primitives_named(restored, BANNED[name])] == [found]


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


def third_party_imports(source: str) -> set:
    """The top-level packages `source` imports that are neither in the
    standard library nor its own, its relative imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__"}


def test_third_party_imports_finds_each_package_outside_the_standard_library():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from scipy.special import ndtri\nfrom . import a\nfrom .b import c\n"
              "def f():\n    import orjson\n")
    assert third_party_imports(source) == {"numpy", "scipy", "orjson"}


def test_the_declared_dependencies_are_the_imported_packages():
    # a package src/ imports that pyproject.toml does not declare fails
    # on a clean install, and a declared one that src/ no longer imports
    # is installed for nothing: each fails here until both lists agree
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(tcslsim.__file__).resolve().parents[2] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dependency)[0].lower().replace("-", "_")
                for dependency in dependencies}
    imported = set().union(*(third_party_imports(p.read_text(encoding="utf-8"))
                             for p in SOURCES))
    assert imported == declared
