"""Every name a biops module imports is used in that module, and every
top-level function or class of biops is used somewhere else in biops."""

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


def uncalled_definitions(sources):
    """Top-level functions and classes in `sources` (module name -> source)
    that no code outside their own definition reads: by name, or as an
    attribute of a package module (`expr_mod.parse`).  Imports and
    `__all__` strings are not reads."""
    defined, reads = [], {}
    for module, source in sources.items():
        tree = ast.parse(source)
        aliases = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and not node.module
                   for a in node.names if a.name in sources}
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                own = (module, stmt.name)
                defined.append(own)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in aliases):
                    name = node.attr
                else:
                    continue
                reads.setdefault(name, set()).add(own)
    return sorted(f"{module}.{name}" for module, name in defined
                  if not reads.get(name, set()) - {(module, name)})


def test_every_definition_has_a_caller():
    # the two session entry points are called from outside the package
    sources = {p.stem: p.read_text() for p in MODULES}
    assert uncalled_definitions(sources) == ["biortho.band_values",
                                             "biortho.lambda_value"]


def test_scan_finds_an_uncalled_definition():
    sources = {
        "a": ("from . import b as b_mod\n__all__ = ['orphan']\n"
              "def used(): return b_mod.via_attr()\n"
              "def recursive(n): return recursive(n - 1)\n"
              "def orphan(): pass\n"
              "class Base: pass\nclass Child(Base): pass\n"),
        "b": ("from .a import used, orphan\n"
              "def via_attr(): return used\n"
              "def main(): return Child\n"),
    }
    assert uncalled_definitions(sources) == ["a.orphan", "a.recursive",
                                             "b.main"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import io\nimport os.path\nfrom .ring import ZERO, ONE as one\n"
           "print(os.path.sep, one)\n")
    assert unused_imports(src) == [(2, "io"), (4, "ZERO")]
