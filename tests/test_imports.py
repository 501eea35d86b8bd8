"""Every name a ``tcnad`` module imports is used in it.

A cut that leaves an import behind (a ``Tensor`` or ``np`` a module no longer
reads) fails here. Standard library only: the module's AST is walked for the
names it binds by import and the names it reads; ``__all__`` counts as a read.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tcnad"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("import numpy as np\n", ["np (line 1)"]),
    ("from .autodiff import Tensor, add\nadd(1, 2)\n", ["Tensor (line 1)"]),
    ("from .autodiff import Tensor\nx: Tensor\n", []),
    ("from .data import load\n__all__ = ['load']\n", []),
    ("from __future__ import annotations\n", []),
    ("import os.path\nos.sep\n", []),
])
def test_unused_imports_finds_what_no_code_reads(source, unused):
    assert unused_imports(source) == unused
