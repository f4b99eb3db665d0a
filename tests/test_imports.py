"""Every module-level import in the package is used by its module.

A package ``__init__.py`` imports to re-export, so it is left out; every
name its ``__all__`` exports must be bound in it instead. The third-party
modules the package imports are the dependencies ``pyproject.toml`` declares.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

import matproc


def _bound_names(stmt: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in stmt.names]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [
        (name, stmt.lineno)
        for stmt in tree.body
        if isinstance(stmt, (ast.Import, ast.ImportFrom))
        for name in _bound_names(stmt)
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {lineno})" for name, lineno in imported if name not in used]


def test_the_check_sees_unused_and_used_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int = j.loads('1')\n"
    )
    assert unused_imports(source) == ["os (line 2)", "field (line 4)"]


def test_every_module_level_import_is_used():
    root = Path(matproc.__file__).parent
    unused = [
        f"{path.relative_to(root)}: {name}"
        for path in sorted(root.rglob("*.py"))
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def unbound_exports(source: str) -> list[str]:
    """Names in the module's ``__all__`` that no module-level import,
    assignment, function or class binds."""
    bound, exported = set(), []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound.update(_bound_names(stmt))
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            bound.update(names)
            if "__all__" in names:
                exported = ast.literal_eval(stmt.value)
    return [name for name in exported if name not in bound]


def test_the_check_sees_unbound_exports():
    source = (
        "from .views import graph_view, GraphView as View\n"
        "import json\n"
        "LIMIT = 3\n"
        "def helper(): pass\n"
        "__all__ = ['graph_view', 'GraphView', 'View', 'json', 'LIMIT', 'helper', 'route_labels']\n"
    )
    assert unbound_exports(source) == ["GraphView", "route_labels"]


def test_every_exported_name_is_bound():
    root = Path(matproc.__file__).parent
    unbound = [
        f"{path.relative_to(root)}: {name}"
        for path in sorted(root.rglob("__init__.py"))
        for name in unbound_exports(path.read_text(encoding="utf-8"))
    ]
    assert unbound == []


def _constants(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level upper-case names an assignment binds, with their lines."""
    out = []
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else (
            [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and node.id.isupper():
                    out.append((node.id, stmt.lineno))
    return out


def _reads(tree: ast.Module) -> set[str]:
    """Every name the module reads, bare or as an attribute."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
    return reads


def unused_constants(sources: dict[str, str]) -> list[str]:
    """Upper-case module-level names, outside ``__init__.py``, that no
    source reads; ``sources`` maps a module's path to its text."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return [
        f"{path}: {name} (line {lineno})"
        for path, tree in trees.items()
        if not path.endswith("__init__.py")
        for name, lineno in _constants(tree)
        if name not in read
    ]


def test_the_check_sees_unread_and_read_constants():
    sources = {
        "a.py": "LIMIT = 3\nUNUSED: int = 4\nPAIR_A, PAIR_B = 1, 2\nlower = 5\n",
        "b.py": "from a import LIMIT, UNUSED\nimport a\nx = LIMIT + a.PAIR_A\n",
        "__init__.py": "EXPORTED = 1\n",
    }
    assert unused_constants(sources) == ["a.py: UNUSED (line 2)", "a.py: PAIR_B (line 3)"]


def test_every_module_level_constant_is_read():
    root = Path(matproc.__file__).parent
    sources = {str(path.relative_to(root)): path.read_text(encoding="utf-8")
               for path in sorted(root.rglob("*.py"))}
    assert unused_constants(sources) == []


_LOCKS = ("Lock", "RLock")


def module_level_locks(source: str) -> list[str]:
    """Every ``threading.Lock()``/``RLock()`` (or the bare name) called
    outside a function, where it would be one lock shared by every caller."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _LOCKS:
                found.append(f"{name} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_the_check_sees_module_level_locks_only():
    source = (
        "import threading\n"
        "from threading import RLock\n"
        "_GUARD = threading.Lock()\n"
        "class Holder:\n"
        "    shared = RLock()\n"
        "    def __init__(self):\n"
        "        self.lock = threading.Lock()\n"
        "def make():\n"
        "    return threading.RLock()\n"
    )
    assert module_level_locks(source) == ["Lock (line 3)", "RLock (line 5)"]


def test_no_module_level_lock():
    root = Path(matproc.__file__).parent
    locks = [
        f"{path.relative_to(root)}: {lock}"
        for path in sorted(root.rglob("*.py"))
        for lock in module_level_locks(path.read_text(encoding="utf-8"))
    ]
    assert locks == []


def third_party_imports(source: str) -> set[str]:
    """The top-level names of every absolute import in ``source``, at any
    depth, that is neither the standard library nor the package itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "matproc"}


def test_the_check_sees_third_party_imports_only():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "import numpy as np\n"
        "from . import jsonio\n"
        "from matproc.errors import DataError\n"
        "def f():\n"
        "    from orjson import loads\n"
    )
    assert third_party_imports(source) == {"numpy", "orjson"}


def test_the_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    root = Path(matproc.__file__).parent
    imported = set().union(*(third_party_imports(path.read_text(encoding="utf-8"))
                             for path in root.rglob("*.py")))
    assert {re.match(r"[\w.-]+", spec)[0] for spec in declared} == imported
