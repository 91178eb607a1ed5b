"""Checks on the package source itself, and on the independence of the
fiber-type oracle.

Every loop in ``ellsurf`` must state its bound: a ``while`` loop on a
constant true condition is refused.  Every failed check must raise a
named error: ``python -O`` strips ``assert`` statements, so none is
allowed.  ``tests/tate_oracle.py`` judges the package's fiber classifier,
so it must never import ``ellsurf``.  Every module-level import must be
used.  The two routes of a cross-route check must stay separate: neither
may reach the other in the package's name-level reference graph.  The
form kernels run on the integer rows: their definitions never mention
the affine round trip or the Fraction view, and the squarefree split
never reaches ``UniPoly``.  ``UniPoly`` and ``HomPoly`` share their row
arithmetic: neither redefines a method of their common base.  The
domain layers build curves, pencils, sections and their derivatives as
binary forms: no module but ``exactpoly`` mentions ``UniPoly`` or the
affine round trip, and the affine readings that the forms replaced stay
deleted.
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


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by module-level imports that the module never
    mentions; a name listed in ``__all__`` counts as mentioned."""
    mentioned = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            mentioned |= {elt.value for elt in node.value.elts}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in mentioned:
                    unused.append(bound)
    return unused


def test_the_check_sees_unused_module_level_imports_only():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path\n"
        "import json as js\n"
        "from re import compile, match as m\n"
        "from .exactpoly import HomPoly\n"
        "from .lattice import GramLattice\n"
        "__all__ = ['GramLattice']\n"
        "def f(x: HomPoly):\n    import shutil\n    return sys.argv, m\n"
        "name = 'compile js'\n"
    )
    assert _unused_imports(ast.parse(source)) == ["os", "os", "js", "compile"]


def test_no_unused_imports():
    findings = _package_findings(_unused_imports)
    # the package's __init__ imports its modules to re-export them
    findings.pop("__init__.py", None)
    assert findings == {}


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


def _definitions(tree: ast.Module):
    """(name, node) for the module's functions, classes, methods and
    module-level assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield item.name, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _code_nodes(node: ast.AST):
    """``ast.walk(node)`` without the annotations of arguments, returns and
    annotated assignments: an annotation names a type and calls nothing."""
    annotations = {
        id(sub)
        for holder in ast.walk(node)
        for annotation in (getattr(holder, "annotation", None), getattr(holder, "returns", None))
        if annotation is not None
        for sub in ast.walk(annotation)
    }
    return (sub for sub in ast.walk(node) if id(sub) not in annotations)


def _reference_graph(trees) -> dict[str, set[str]]:
    """Each defined name to the defined names its definition mentions, as a
    bare name or as an attribute, outside annotations.  A method is also
    the node ``Class.method``: an attribute read off a class by its name
    reaches that class's own method, not every method of the name.  Other
    names are not resolved to modules or classes, and a class mentions what
    its methods do, so the graph over-approximates every call."""
    definitions = [pair for tree in trees for pair in _definitions(tree)]
    defined = {name for name, _ in definitions}
    methods = {
        f"{cls.name}.{item.name}": item
        for _name, cls in definitions
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
    }
    graph: dict[str, set[str]] = {name: set() for name in defined | methods.keys()}
    for name, node in definitions + list(methods.items()):
        for sub in _code_nodes(node):
            if isinstance(sub, ast.Name) and sub.id in defined:
                graph[name].add(sub.id)
            elif isinstance(sub, ast.Attribute):
                owner = sub.value.id if isinstance(sub.value, ast.Name) else None
                if f"{owner}.{sub.attr}" in methods:
                    graph[name].add(f"{owner}.{sub.attr}")
                elif sub.attr in defined:
                    graph[name].add(sub.attr)
    return graph


def _reaches(graph: dict[str, set[str]], start: str) -> set[str]:
    """The names reachable from ``start`` in one or more steps."""
    seen: set[str] = set()
    todo = [start]
    for name in todo:
        for nxt in graph[name] - seen:
            seen.add(nxt)
            todo.append(nxt)
    return seen


def test_the_reference_graph_follows_names_attributes_and_constants():
    source = (
        "def a():\n    return b()\n"
        "def b():\n    return C().m()\n"
        "class C:\n    def m(self):\n        return _K\n"
        "_K = d\n"
        "def d():\n    pass\n"
        "def e():\n    return 'a'\n"
    )
    graph = _reference_graph([ast.parse(source)])
    assert _reaches(graph, "a") == {"b", "C", "m", "_K", "d"}
    assert _reaches(graph, "d") == set()
    assert _reaches(graph, "e") == set()


def test_an_attribute_read_off_a_class_reaches_that_class_only():
    source = (
        "class A:\n    def of(self):\n        return x()\n"
        "class B:\n    def of(self):\n        return y()\n"
        "class C(A):\n    pass\n"
        "def f():\n    return A.of()\n"
        "def g(a):\n    return a.of()\n"
        "def h():\n    return C.of()\n"
        "def x():\n    pass\n"
        "def y():\n    pass\n"
    )
    graph = _reference_graph([ast.parse(source)])
    assert _reaches(graph, "f") == {"A", "A.of", "x"}
    assert _reaches(graph, "g") == {"of", "x", "y"}
    # C does not define of, so C.of may be any method of that name
    assert {"of", "x", "y"} <= _reaches(graph, "h")


def test_the_reference_graph_skips_annotations():
    source = (
        "def a(h: C, k: 'C' = None) -> D:\n    return h.x\n"
        "def e(h: C):\n    return C()\n"
        "class C:\n    def m(self):\n        return b()\n"
        "def b():\n    pass\n"
        "class D:\n    y: C\n"
    )
    graph = _reference_graph([ast.parse(source)])
    assert _reaches(graph, "a") == set()
    assert _reaches(graph, "e") == {"C", "b"}
    assert _reaches(graph, "D") == set()


# pairs of routes that a cross-route check compares: full_torsion_surfaces
# against subfamily_models in the torsion-tower check, the refibration
# against the full-torsion Jacobian pair, and the quadric double cover
# against the degree-two base change, and the quartic's Jacobian pair, the
# reference for the same pair with forms as coefficients; the kernel of
# the Gram matrix mod 2 against the Smith form, both counting the
# 2-torsion of a discriminant group; the closed form -4f^3 - 27g^2 of
# the Jacobian pair against the determinant route of the quartic's
# discriminant, in the discriminant-relation check; and the coupling
# cofactor against the Hessian of the quartic form, built from its
# partials, in the coupling-product check
_SEPARATE_ROUTES = [
    ("full_torsion_surfaces", "subfamily_models"),
    ("refibration_jacobian", "full_torsion_surfaces"),
    ("refibration_jacobian", "hermite_pair_forms"),
    ("quadric_double_cover", "base_change_k3"),
    ("jacobian_quartic", "hermite_pair_forms"),
    ("_kernel_mod_2", "_elementary_divisors"),
    ("jacobian_quartic", "form_discriminant"),
    ("correspondence_polys", "form_partials"),
]


def test_the_routes_of_a_cross_route_check_never_reach_each_other():
    root = Path(ellsurf.__file__).parent
    paths = sorted(root.rglob("*.py"))
    graph = _reference_graph(ast.parse(path.read_text(), str(path)) for path in paths)
    for one, other in _SEPARATE_ROUTES:
        assert other not in _reaches(graph, one), (one, other)
        assert one not in _reaches(graph, other), (other, one)


def _mentions(node: ast.AST) -> set[str]:
    """The bare names and attribute names a definition mentions directly;
    strings and docstrings are not mentions."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_the_mention_check_sees_names_and_attributes_only():
    source = (
        "def f(p):\n"
        "    \"as_unipoly and Fraction are words here\"\n"
        "    return p.as_unipoly().coeffs, rat(1), x.num\n"
    )
    node = ast.parse(source).body[0]
    assert _mentions(node) == {"p", "as_unipoly", "coeffs", "rat", "x", "num"}


def _module_tree(name: str) -> ast.Module:
    path = Path(ellsurf.__file__).with_name(f"{name}.py")
    return ast.parse(path.read_text(), str(path))


# the form kernels, each run on the num/den rows, and what they must not
# mention: the round trip through UniPoly and the Fraction view
_ROW_KERNELS = {
    "gcd_form": 1,
    "divexact_form": 1,
    "refine_against": 1,
    "monic_in_first": 1,
    "monic": 1,
    "_over_lead": 1,
    "__pow__": 1,
}
_OFF_THE_ROWS = {"as_unipoly", "homogenize", "coeffs", "leading", "leading_in_first", "rat", "Fraction"}


def test_the_form_kernels_stay_on_the_integer_rows():
    found: dict[str, int] = {}
    for name, node in _definitions(_module_tree("exactpoly")):
        if name in _ROW_KERNELS:
            found[name] = found.get(name, 0) + 1
            assert not _mentions(node) & _OFF_THE_ROWS, (name, node.lineno)
    assert found == _ROW_KERNELS


def _function_closure(tree: ast.Module, start: str) -> dict[str, ast.FunctionDef]:
    """``start`` and the module-level functions it reaches by mentioning
    them, directly or through one another; classes are not followed."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo = [start]
    for name in todo:
        todo += sorted(_mentions(functions[name]) & functions.keys() - set(todo))
    return {name: functions[name] for name in todo}


def test_the_closure_follows_module_level_functions_only():
    source = (
        "def a():\n    return b() + C().m()\n"
        "def b():\n    return a() + c\n"
        "c = 1\n"
        "class C:\n    def m(self):\n        return d()\n"
        "def d():\n    pass\n"
    )
    assert sorted(_function_closure(ast.parse(source), "a")) == ["a", "b"]


# Yun's loop runs on the integer affine row, never through UniPoly
_OFF_THE_SPLIT = {"as_unipoly", "homogenize", "gcd_poly", "UniPoly"}


def test_the_squarefree_split_never_reaches_unipoly():
    closure = _function_closure(_module_tree("exactpoly"), "squarefree_split")
    assert {"_int_gcd", "_int_divmod"} <= closure.keys()
    for name, node in closure.items():
        assert not _mentions(node) & _OFF_THE_SPLIT, (name, node.lineno)


def _redefined(tree: ast.Module, base: str, subclasses) -> dict[str, list[str]]:
    """Per subclass, the names its body defines (as a method or by plain
    assignment) that the body of ``base`` defines too."""
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}

    def defined(name: str) -> set[str]:
        names = set()
        for item in classes[name].body:
            if isinstance(item, ast.FunctionDef):
                names.add(item.name)
            elif isinstance(item, ast.Assign):
                names |= {t.id for t in item.targets if isinstance(t, ast.Name)}
        return names

    shared = defined(base)
    found = {sub: sorted(defined(sub) & shared) for sub in subclasses}
    return {sub: names for sub, names in found.items() if names}


def test_the_redefinition_check_sees_methods_and_assignments():
    source = (
        "class Base:\n    x: int\n    def a(self): pass\n    def b(self): pass\n"
        "class One(Base):\n    x: int\n    def a(self): pass\n    def c(self): pass\n"
        "class Two(Base):\n    b = Base.a\n"
        "class Three(Base):\n    def c(self): pass\n"
    )
    found = _redefined(ast.parse(source), "Base", ("One", "Two", "Three"))
    assert found == {"One": ["a"], "Two": ["b"]}


# the row arithmetic UniPoly and HomPoly inherit from _Rows
_SHARED_ARITHMETIC = {
    "coeffs", "degree", "is_zero", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__",
}


def test_unipoly_and_hompoly_share_one_row_arithmetic():
    tree = _module_tree("exactpoly")
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    base = {item.name for item in classes["_Rows"].body if isinstance(item, ast.FunctionDef)}
    assert _SHARED_ARITHMETIC <= base
    for name in ("UniPoly", "HomPoly"):
        assert [b.id for b in classes[name].bases] == ["_Rows"]
    assert _redefined(tree, "_Rows", ("UniPoly", "HomPoly")) == {}


def _module_mentions(tree: ast.Module) -> set[str]:
    """Every name a module mentions: bare names, attribute names, and the
    names its imports bring in; strings are not mentions."""
    names = _mentions(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in node.names}
    return names


def _nested_definitions(tree: ast.AST) -> set[str]:
    """The names of all functions and classes, at any depth."""
    kinds = (ast.FunctionDef, ast.ClassDef)
    return {node.name for node in ast.walk(tree) if isinstance(node, kinds)}


def test_the_module_checks_see_imports_names_and_nested_definitions():
    source = (
        "from .exactpoly import UniPoly as U, homogenize\n"
        "import ellsurf.duality\n"
        "def f(p):\n"
        "    'as_unipoly is a word here'\n"
        "    def descending(q):\n        return q.coeffs\n"
        "    return descending(p.shift)\n"
    )
    tree = ast.parse(source)
    assert _module_mentions(tree) == {
        "UniPoly", "homogenize", "ellsurf.duality", "descending", "q", "coeffs", "p", "shift",
    }
    assert _nested_definitions(tree) == {"f", "descending"}


# the domain layers build curves, pencils and sections as binary forms;
# what each must not mention of the affine round trip
_AFFINE_ROUND_TRIP = {"UniPoly", "as_unipoly", "homogenize"}
_OFF_THE_FORMS = {
    "cli": _AFFINE_ROUND_TRIP,
    "duality": _AFFINE_ROUND_TRIP,
    "elliptic": _AFFINE_ROUND_TRIP,
    "hermite_aj": _AFFINE_ROUND_TRIP | {"discriminant_form"},
    "lattice": _AFFINE_ROUND_TRIP,
}


def test_the_domain_layers_build_forms():
    # every module but exactpoly and the package's entry files is a layer
    root = Path(ellsurf.__file__).parent
    layers = {path.stem for path in root.glob("*.py")} - {"exactpoly", "__init__", "__main__"}
    assert layers == _OFF_THE_FORMS.keys()
    for module, banned in _OFF_THE_FORMS.items():
        found = _module_mentions(_module_tree(module)) & banned
        assert not found, (module, sorted(found))


def _class(tree: ast.Module, name: str) -> ast.ClassDef:
    return next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name)


def test_the_affine_readings_stay_gone():
    hermite = _module_tree("hermite_aj")
    quartic = _class(hermite, "QuarticCurve")
    fields = [item.target.id for item in quartic.body if isinstance(item, ast.AnnAssign)]
    assert fields == ["form"]
    assert not {"_disc4", "poly", "cofactor_diagonal"} & _nested_definitions(hermite)
    assert "descending" not in _nested_definitions(_module_tree("duality"))
    exactpoly = _module_tree("exactpoly")
    assert "shift" not in _nested_definitions(_class(exactpoly, "UniPoly"))
    assert "as_unipoly" not in _nested_definitions(exactpoly)
    elliptic = _nested_definitions(_module_tree("elliptic"))
    assert not {"_trunc", "_series_inverse", "_lift_cubic_root"} & elliptic
