"""Checks on the source text of the package."""

import ast
from pathlib import Path

import pytest

import tcslsim

MODULES = sorted(p for p in Path(tcslsim.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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


def test_unused_imports_finds_a_name_read_nowhere():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.f(c)\n"
    assert unused_imports(source) == ["os", "e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
