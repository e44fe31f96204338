"""Every name a biops or test module imports is used in that module, every
top-level function or class of biops is used somewhere else in biops, and
so is every method of a top-level class and every name a biops module
assigns at top level.  Every attribute a biops class stores on self is
read somewhere.  Every top-level name of a test oracle module is read by
a test module.  No biops module imports dataclasses."""

import ast
from pathlib import Path

import pytest

import biops

MODULES = sorted(p for p in Path(biops.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))
ORACLES = ("oracles", "markov_oracle")


def unused_imports(source):
    """Names bound by import statements in `source` that nothing reads.
    `from __future__ import annotations` counts as read only in a module
    with an annotation; the compiler reads the other future features."""
    tree = ast.parse(source)
    annotated = any(getattr(node, "annotation", None)
                    or getattr(node, "returns", None)
                    for node in ast.walk(tree))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            if not annotated:
                imported.update((a.name, node.lineno) for a in node.names
                                if a.name == "annotations")
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def imported_modules(source):
    """Top-level names of the absolute imports in `source`, at any depth."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


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


def unread_assignments(sources):
    """Top-level names that an assignment in `sources` (module name ->
    source) binds, dunders aside, and that no code outside the assigning
    statement reads: by name, or as an attribute of a package module.
    Imports and `__all__` strings are not reads."""
    defined, reads = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        aliases = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and not node.module
                   for a in node.names if a.name in sources}
        for stmt in tree.body:
            own = set()
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                own = {node.id for node in ast.walk(stmt)
                       if isinstance(node, ast.Name)
                       and isinstance(node.ctx, ast.Store)
                       and not (node.id.startswith("__")
                                and node.id.endswith("__"))}
                defined.extend((module, name) for name in own)
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)
                        and node.id not in own):
                    reads.add(node.id)
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in aliases):
                    reads.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in reads)


def uncalled_methods(sources):
    """Non-dunder methods of top-level classes in `sources` (module name ->
    source) whose name nothing reads outside their own body, as `x.name`
    or as a bare name."""
    defined, reads = [], {}
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            is_class = isinstance(stmt, ast.ClassDef)
            for part in stmt.body if is_class else [stmt]:
                own = None
                if (is_class and isinstance(part, (ast.FunctionDef,
                                                   ast.AsyncFunctionDef))
                        and not (part.name.startswith("__")
                                 and part.name.endswith("__"))):
                    own = f"{module}.{stmt.name}.{part.name}"
                    defined.append((own, part.name))
                for node in ast.walk(part):
                    if isinstance(node, ast.Name):
                        name = node.id
                    elif isinstance(node, ast.Attribute):
                        name = node.attr
                    else:
                        continue
                    if isinstance(node.ctx, ast.Load):
                        reads.setdefault(name, set()).add(own)
    return sorted(own for own, name in defined
                  if not reads.get(name, set()) - {own})


def unread_oracles(module, source, tests):
    """Top-level names that the oracle module `module`, with source
    `source`, defines and that no source in `tests` reads: by a name bound
    by `from module import ...`, or as an attribute of the imported
    module.  A private name (one leading underscore) may instead be read
    inside the oracle module, outside the statement that defines it."""
    defined, inside = [], set()
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = {stmt.name}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            names = {node.id for node in ast.walk(stmt)
                     if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Store)}
        else:
            names = set()
        defined.extend(sorted(names))
        inside.update(node.id for node in ast.walk(stmt)
                      if isinstance(node, ast.Name)
                      and isinstance(node.ctx, ast.Load)
                      and node.id not in names)
    read = set()
    for test in tests:
        tree = ast.parse(test)
        local, modules = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == module:
                local.update((a.asname or a.name, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                modules.update(a.asname or a.name for a in node.names
                               if a.name == module)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in local):
                read.add(local[node.id])
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                read.add(node.attr)
    return sorted(name for name in defined if name not in read
                  and not (name.startswith("_") and name in inside))


def _self_stores(node):
    """Names of the attributes that assignment `node` stores on self."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return {t.attr for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)
            and isinstance(t.value, ast.Name) and t.value.id == "self"}


def unread_attributes(sources, readers):
    """Attributes that a top-level class in `sources` (module name ->
    source) stores on self and that no source in `readers` reads as
    `.name` outside the statements that store it."""
    assigns = (ast.Assign, ast.AugAssign, ast.AnnAssign)
    stored = set()
    for module, source in sources.items():
        for cls in ast.parse(source).body:
            if isinstance(cls, ast.ClassDef):
                stored.update(f"{module}.{cls.name}.{name}"
                              for node in ast.walk(cls)
                              if isinstance(node, assigns)
                              for name in _self_stores(node))
    reads = set()
    for source in readers:
        tree = ast.parse(source)
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, assigns):
                names = _self_stores(node)
                skip.update(id(a) for a in ast.walk(node)
                            if isinstance(a, ast.Attribute) and a.attr in names)
        reads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Load)
                     and id(node) not in skip)
    return sorted(a for a in stored if a.rpartition(".")[2] not in reads)


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


def test_every_assigned_name_is_read():
    package = Path(biops.__file__).parent.glob("*.py")
    sources = {p.stem: p.read_text() for p in package}
    assert unread_assignments(sources) == []


def test_scan_finds_an_unread_assignment():
    sources = {
        "__init__": "__all__ = ['SHARED']\n__version__ = '1'\nSHARED = 1\n",
        "a": ("from . import b as b_mod, SHARED\n"
              "USED, ORPHAN = 1, 2\n"
              "TABLE = TABLE_SIZE = 4\n"
              "_private: int = 3\n"
              "def f(): return USED + b_mod.VIA_ATTR + SHARED + _private\n"
              "def g(): return TABLE\n"),
        "b": ("VIA_ATTR = 1\nLOCAL = 2\nLATER = LOCAL\n"
              "def h(): ORPHAN = 0\n"),
    }
    assert unread_assignments(sources) == ["a.ORPHAN", "a.TABLE_SIZE",
                                          "b.LATER"]


def test_every_method_has_a_caller():
    # the session worker rebuilds Poly2 coefficients from JSON
    sources = {p.stem: p.read_text() for p in MODULES}
    assert uncalled_methods(sources) == ["ring.Poly2.from_obj"]


def test_scan_finds_an_uncalled_method():
    sources = {
        "a": ("class A:\n"
              "    def __init__(self): self.helper()\n"
              "    def helper(self): pass\n"
              "    def recursive(self): return self.recursive()\n"
              "    def orphan(self): pass\n"
              "    def __repr__(self): return 'A'\n"
              "    def bare(self): pass\n"
              "    alias = bare\n"
              "    @property\n"
              "    def size(self): return 0\n"),
        "b": "def f(x): return x.size\n",
    }
    assert uncalled_methods(sources) == ["a.A.orphan", "a.A.recursive"]


def test_every_stored_attribute_is_read():
    sources = {p.stem: p.read_text() for p in MODULES}
    readers = [p.read_text() for p in MODULES + TESTS + PERFBENCH]
    assert unread_attributes(sources, readers) == []


def test_scan_finds_an_unread_attribute():
    sources = {"a": ("class A:\n"
                     "    def __init__(self, n):\n"
                     "        self.used = n\n"
                     "        self.count = 0\n"
                     "        self.count += 1\n"
                     "        self.grown = n\n"
                     "        self.grown = self.grown + 1\n"
                     "        self.orphan, self.pair = n, n\n"
                     "    def f(self): return self.used\n")}
    readers = [*sources.values(), "def g(x): return x.pair\n"]
    assert unread_attributes(sources, readers) == [
        "a.A.count", "a.A.grown", "a.A.orphan"]


@pytest.mark.parametrize("module", ORACLES)
def test_every_oracle_is_read_by_a_test(module):
    source = (Path(__file__).parent / f"{module}.py").read_text()
    tests = [p.read_text() for p in TESTS if p.name.startswith("test_")]
    assert unread_oracles(module, source, tests) == []


def test_scan_finds_an_unread_oracle():
    source = ("def used(): return _helper()\n"
              "def _helper(): return 1\n"
              "def _orphan(): return _orphan()\n"
              "def only_inside(): return used()\n"
              "def via_module(): pass\n"
              "def imported_unread(): pass\n"
              "class Shadowed: pass\n"
              "TABLE = [1]\n")
    tests = ["from oracles import used, imported_unread as unread\n"
             "import oracles as o\n"
             "def test_a(): assert used() and o.via_module\n",
             "def test_b(Shadowed=None): return Shadowed, TABLE\n"]
    assert unread_oracles("oracles", source, tests) == [
        "Shadowed", "TABLE", "_orphan", "imported_unread", "only_inside"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import io\nimport os.path\nfrom .ring import ZERO, ONE as one\n"
           "print(os.path.sep, one)\n")
    assert unused_imports(src) == [(1, "annotations"), (2, "io"),
                                   (4, "ZERO")]


@pytest.mark.parametrize("annotated", [
    "def f(x: int): pass\n", "def f(x) -> int: pass\n", "x: int = 1\n"])
def test_future_annotations_is_read_by_an_annotation(annotated):
    src = "from __future__ import annotations, division\n" + annotated
    assert unused_imports(src) == []
    assert unused_imports(src.replace(annotated, "x = 1\n")) == [
        (1, "annotations")]


def test_no_module_imports_dataclasses():
    # dataclasses and its inspect/ast/dis chain cost every cold CLI process
    package = sorted(Path(biops.__file__).parent.glob("*.py"))
    offenders = [p.name for p in package
                 if "dataclasses" in imported_modules(p.read_text())]
    assert offenders == []


def test_scan_finds_an_import_of_dataclasses():
    src = "import os.path, json\nfrom dataclasses import field\n"
    assert imported_modules(src) == {"os", "json", "dataclasses"}
