"""Every module-level import in the package is used by its module.

A package ``__init__.py`` imports to re-export, so it is left out.
"""

from __future__ import annotations

import ast
from pathlib import Path

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
