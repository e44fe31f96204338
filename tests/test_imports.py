"""Every name a biops module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import biops

MODULES = sorted(p for p in Path(biops.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements in `source` that nothing reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import io\nimport os.path\nfrom .ring import ZERO, ONE as one\n"
           "print(os.path.sep, one)\n")
    assert unused_imports(src) == [(2, "io"), (4, "ZERO")]
