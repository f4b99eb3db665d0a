"""No statement discards the result of a call that returns a new value
instead of changing its argument.

``attach_embeddings`` returns a new memory and leaves its argument as it
is, so a bare ``attach_embeddings(memory, graphs)`` runs on without
vectors. A call inside ``pytest.raises`` is expected to raise, so it has
no result to keep.
"""

from __future__ import annotations

import ast
from pathlib import Path

import matproc

KEEP_RESULT = frozenset({"attach_embeddings"})


def _called(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def discarded_results(source: str) -> list[str]:
    tree = ast.parse(source)
    expected_to_raise = {
        id(stmt)
        for node in ast.walk(tree)
        if isinstance(node, ast.With)
        and any(isinstance(i.context_expr, ast.Call) and _called(i.context_expr) == "raises"
                for i in node.items)
        for stmt in node.body
    }
    return [
        f"{_called(node.value)} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        and _called(node.value) in KEEP_RESULT and id(node) not in expected_to_raise
    ]


def test_the_check_sees_discarded_and_kept_results():
    source = (
        "attach_embeddings(memory, graphs)\n"
        "memory = attach_embeddings(memory, graphs)\n"
        "def f(rt):\n"
        "    rt.attach_embeddings(memory, graphs)\n"
        "    return rt.attach_embeddings(memory, graphs)\n"
        "with pytest.raises(DataError):\n"
        "    rt.attach_embeddings(memory, [])\n"
        "with open(path):\n"
        "    attach_embeddings(memory, graphs)\n"
        "print(attach_embeddings(memory, graphs))\n"
    )
    assert discarded_results(source) == [
        "attach_embeddings (line 1)", "attach_embeddings (line 4)", "attach_embeddings (line 9)"
    ]


def test_no_statement_discards_a_result_it_must_keep():
    roots = [Path(matproc.__file__).parent, Path(__file__).parent]
    discarded = [
        f"{path.name}: {call}"
        for root in roots
        for path in sorted(root.rglob("*.py"))
        for call in discarded_results(path.read_text(encoding="utf-8"))
    ]
    assert discarded == []
