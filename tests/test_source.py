"""Checks on the package source itself, and on the independence of the
fiber-type oracle.

Every loop in ``ellsurf`` must state its bound: a ``while`` loop on a
constant true condition is refused.  Every failed check must raise a
named error: ``python -O`` strips ``assert`` statements, so none is
allowed.  ``tests/tate_oracle.py`` judges the package's fiber classifier,
so it must never import ``ellsurf``.
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


def _asserts(tree: ast.AST) -> list[int]:
    """Line numbers of the ``assert`` statements."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def _package_imports(tree: ast.AST) -> list[int]:
    """Line numbers of the imports of ``ellsurf`` or any of its modules."""

    def ours(name: str | None) -> bool:
        return name is not None and name.split(".")[0] == "ellsurf"

    return [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(ours(a.name) for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0 and ours(node.module))
    ]


def _package_findings(check) -> dict[str, list[int]]:
    root = Path(ellsurf.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert modules
    return {
        str(path.relative_to(root)): lines
        for path in modules
        if (lines := check(ast.parse(path.read_text(), str(path))))
    }


def test_the_check_sees_constant_conditions_only():
    source = "while True:\n    pass\nwhile 1:\n    pass\nwhile x:\n    pass\nwhile 0:\n    pass\n"
    assert _unbounded_loops(ast.parse(source)) == [1, 3]


def test_no_unbounded_while_loops():
    assert _package_findings(_unbounded_loops) == {}


def test_the_check_sees_assert_statements_only():
    source = (
        "assert x\n"
        "def f():\n    assert x == 0, 'msg'\n"
        "if not x:\n    raise ValueError('x')\n"
        "asserted = 'assert x'\n"
    )
    assert _asserts(ast.parse(source)) == [1, 3]


def test_no_assert_statements():
    assert _package_findings(_asserts) == {}


def test_the_check_sees_imports_of_the_package_only():
    source = (
        "import ellsurf\n"
        "from ellsurf.elliptic import KodairaType\n"
        "import sympy, ellsurf.exactpoly as ep\n"
        "def f():\n    from ellsurf import cli\n"
        "import ellsurfaces\n"
        "from sympy import ellsurf\n"
        "name = 'import ellsurf'\n"
    )
    assert _package_imports(ast.parse(source)) == [1, 2, 3, 5]


def test_the_fiber_type_oracle_imports_nothing_from_the_package():
    oracle = Path(__file__).with_name("tate_oracle.py")
    assert _package_imports(ast.parse(oracle.read_text(), str(oracle))) == []
