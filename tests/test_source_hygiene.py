"""Leftovers in the package source: imports a module no longer uses, and
private helpers nothing calls any more; and recursion, which no function in
the package uses.

Every module of ``src/growthdiagrams`` except ``__init__.py`` (which only
re-exports) is parsed with ``ast``.  A name counts as referenced where it is
loaded, read as an attribute, or imported from another package module.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "growthdiagrams"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}


def _references(node):
    """How often each name is referenced inside ``node``."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom) and sub.level:
            refs.update(alias.name for alias in sub.names)
    return refs


def _bound_names(stmt):
    """The names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


@pytest.mark.parametrize("module", TREES)
def test_every_import_is_used(module):
    tree = TREES[module]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    imported = [
        (alias.asname or alias.name).partition(".")[0]
        for stmt in tree.body if isinstance(stmt, (ast.Import, ast.ImportFrom))
        and getattr(stmt, "module", None) != "__future__"
        for alias in stmt.names
    ]
    assert [name for name in imported if name not in used] == []


def test_every_private_name_is_referenced():
    everywhere = sum((_references(tree) for tree in TREES.values()), Counter())
    unreferenced = [
        f"{module}:{name}"
        for module, tree in TREES.items()
        for stmt in tree.body
        for name in _bound_names(stmt)
        if _is_private(name) and everywhere[name] - _references(stmt)[name] <= 0
    ]
    assert unreferenced == []


def _calls_itself(func):
    """Whether ``func`` calls its own name anywhere in its body, directly or as
    ``self.name``/``cls.name``, nested functions included."""
    for sub in ast.walk(func):
        if isinstance(sub, ast.Call):
            f = sub.func
            if isinstance(f, ast.Name) and f.id == func.name:
                return True
            if (isinstance(f, ast.Attribute) and f.attr == func.name
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                return True
    return False


def test_no_function_calls_itself():
    """A recursive function runs past Python's recursion limit on a deep
    enough valid input, so the package walks every search iteratively."""
    recursive = [
        f"{module}:{node.name}"
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_itself(node)
    ]
    assert recursive == []
