"""Checks on the package source itself.

Every loop in ``ellsurf`` must state its bound: a ``while`` loop on a
constant true condition is refused.
"""

import ast
from pathlib import Path

import ellsurf


def _unbounded_loops(tree: ast.AST) -> list[int]:
    """Line numbers of the ``while`` loops whose condition is a true constant."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.While)
        and isinstance(node.test, ast.Constant)
        and node.test.value
    ]


def test_the_check_sees_constant_conditions_only():
    source = "while True:\n    pass\nwhile 1:\n    pass\nwhile x:\n    pass\nwhile 0:\n    pass\n"
    assert _unbounded_loops(ast.parse(source)) == [1, 3]


def test_no_unbounded_while_loops():
    root = Path(ellsurf.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert modules
    found = {
        str(path.relative_to(root)): lines
        for path in modules
        if (lines := _unbounded_loops(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}
