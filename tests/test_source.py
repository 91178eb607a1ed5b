"""Checks on the package source itself, and on the independence of the
fiber-type oracle.

Every loop in ``ellsurf`` must state its bound: a ``while`` loop on a
constant true condition is refused.  Every failed check must raise a
named error: ``python -O`` strips ``assert`` statements, so none is
allowed.  ``tests/tate_oracle.py`` judges the package's fiber classifier,
so it must never import ``ellsurf``.  Every module-level import must be
used, and every dataclass field of the package must be read as an
attribute, by name, in the package or its tests.  The two routes of a cross-route check must stay separate: neither
may reach the other in the package's name-level reference graph.  The
form kernels run on the integer rows: their definitions never mention
the affine round trip or the Fraction view, and the squarefree split
never reaches ``UniPoly``.  ``UniPoly`` and ``HomPoly`` share their row
arithmetic: neither redefines a method of their common base.  The
domain layers build curves, pencils, sections and their derivatives as
binary forms: no module but ``exactpoly`` mentions ``UniPoly`` or the
affine round trip, and the affine readings that the forms replaced stay
deleted.  A check builds only what it reads: ``cli`` builds the
correspondence and full-torsion tables only in the two checks that read
(nearly) every entry, and every other check calls the narrow builder it
needs.  Each construction has one home: only ``elliptic`` builds a
model on a zero ``a2`` form by hand (everywhere else it is
``WeierstrassModel.short``), only ``AlternatePair.model`` builds one on a
zero ``a6`` form, and ``refibration_jacobian`` reads the torsion pair
it is given without building the cover.  Each construction takes its inputs
one way: the quadric double cover, its ruling swap and its deformation
begin with (trace, left, right), the correspondence builders take
(gamma, alpha, delta) after their kind, as do the triple's check and
exchange constraint of ``hermite_aj``, and no dataclass of ``duality``
or ``hermite_aj`` declares a field with a default.  A construction
returns plain values unless its record earns a class: every package
dataclass checks its fields, has a method or property, declares four or
more fields, or is a parameter of a package function, and
``WeierstrassModel`` declares its three forms only.  Every construction
on binary forms checks their variable pair and degrees through
``exactpoly.check_forms``: no module but ``exactpoly`` calls a method
named ``_check`` or ``_check_vars``, and each routed construction
refuses a form on another pair, or of another degree, with
``DegreeMismatch``.  A quartic's
smoothness is a separability test: only ``discr_relation_check`` calls a
``discriminant()`` method, whose value it compares.  A lattice's
invariants have one cache, the ``GramLattice`` object itself: the lattice
eliminations run on raw Gram rows and never mention or reach the class,
and no module memoizes through ``functools.lru_cache`` or
``functools.cache``.  Likewise a model's invariants have one cache, the
``WeierstrassModel`` object itself: their row computation never mentions
or reaches the class.  The integer gcd retries over a computed range: no
``while`` loop runs in it or its own helpers, so no remainder sequence
comes back.  The squarefree split and ``refine_against`` read their
quotients off the gcd: neither mentions a division.  Scenario text has
one home, ``scenario``: it imports nothing from ``cli``, the domain layers
import nothing from it, and no other module defines ``ParseError`` or reads
the digit cap ``MAX_DIGITS``.
"""

import ast
from pathlib import Path

import pytest

import ellsurf
from ellsurf import duality as du
from ellsurf.exactpoly import DegreeMismatch, HomPoly
from ellsurf.hermite_aj import check_triple, hermite_pair_forms


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


def _dataclasses(tree: ast.Module) -> list[ast.ClassDef]:
    """The ``@dataclass`` classes the module defines, in order."""

    def is_dataclass(decorator: ast.expr) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"

    return [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
    ]


def _dataclass_fields(tree: ast.Module) -> list[tuple[str, ast.AnnAssign]]:
    """(class, declaration) for each field that a ``@dataclass`` class of
    the module declares, in order."""
    return [
        (node.name, item)
        for node in _dataclasses(tree)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def _unread_fields(declaring, reading) -> list[str]:
    """``Class.field`` for each dataclass field declared in the trees
    ``declaring`` whose name no attribute load in the trees ``reading``
    reads.  Names are matched without types: a field whose name another
    class's readers use counts as read."""
    read = {
        node.attr
        for tree in reading
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{cls}.{item.target.id}"
        for tree in declaring
        for cls, item in _dataclass_fields(tree)
        if item.target.id not in read
    ]


def test_the_check_sees_dataclass_fields_that_no_attribute_reads():
    package = ast.parse(
        "@dataclass(frozen=True)\nclass A:\n    kept: int\n    unread: int\n    written: int\n"
        "    def f(self):\n        return self.kept\n"
        "@dataclasses.dataclass\nclass B:\n    tested: int\n    shared: int\n"
        "class C:\n    plain: int\n"
        "@dataclass\nclass D:\n    K = 1\n    other: int = 0\n"
        "def g(a, d):\n    a.written = 1\n    return 'a.unread', a.shared, d.other\n"
    )
    tests = ast.parse("def test(b):\n    assert b.tested\n")
    assert _unread_fields([package], [package]) == ["A.unread", "A.written", "B.tested"]
    assert _unread_fields([package], [package, tests]) == ["A.unread", "A.written"]


def test_every_dataclass_field_is_read():
    """Every field of a package dataclass is read as ``.field`` in the
    package or its tests.  The check matches by name only, so it cannot
    see an unread field whose name is read off another class, such as a
    ``branch`` field beside the read ``branch`` of another dataclass."""
    root = Path(ellsurf.__file__).parent
    package = [ast.parse(p.read_text(), str(p)) for p in root.rglob("*.py")]
    tests = [ast.parse(p.read_text(), str(p)) for p in Path(__file__).parent.glob("*.py")]
    assert package and tests
    assert _unread_fields(package, package + tests) == []


def _defaulted_fields(tree: ast.Module) -> list[str]:
    """``Class.field`` for each dataclass field declared with a default."""
    return [
        f"{cls}.{item.target.id}"
        for cls, item in _dataclass_fields(tree)
        if item.value is not None
    ]


def test_the_check_sees_dataclass_fields_with_a_default_only():
    source = (
        "@dataclass(frozen=True)\nclass A:\n    kept: int\n    split: tuple | None = None\n"
        "@dataclasses.dataclass\nclass B:\n    n: int = field(default=0)\n    K = 1\n"
        "class C:\n    plain: int = 0\n"
    )
    assert _defaulted_fields(ast.parse(source)) == ["A.split", "B.n"]


def test_no_construction_record_has_an_optional_field():
    # each construction takes its inputs one way, so none of its records
    # carries a field that only a second way would fill
    for module in ("duality", "hermite_aj"):
        assert _defaulted_fields(_module_tree(module)) == [], module


def _bare_records(trees) -> list[str]:
    """The dataclasses of ``trees`` that only bundle values.  A record
    keeps its class when it checks its fields or has another method or
    property (any function in its body), declares four or more fields, or
    is named in the annotation of a parameter of a function in ``trees``."""
    taken = {
        name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.arg) and node.annotation is not None
        for name in _mentions(node.annotation)
    }
    fields = {}
    for tree in trees:
        for cls, _item in _dataclass_fields(tree):
            fields[cls] = fields.get(cls, 0) + 1
    return [
        node.name
        for tree in trees
        for node in _dataclasses(tree)
        if not any(isinstance(item, ast.FunctionDef) for item in node.body)
        and fields.get(node.name, 0) < 4
        and node.name not in taken
    ]


def test_the_check_sees_records_that_only_bundle_values():
    source = (
        "@dataclass(frozen=True)\nclass Pair:\n    a: int\n    b: int\n"
        "@dataclass\nclass Checked:\n    a: int\n    def __post_init__(self):\n        pass\n"
        "@dataclass\nclass Shown:\n    a: int\n    @property\n    def b(self):\n        return 1\n"
        "@dataclasses.dataclass\nclass Wide:\n    a: int\n    b: int\n    c: int\n    d: int\n"
        "@dataclass\nclass Narrow:\n    a: int\n    b: int\n    c: int\n    K = 4\n"
        "@dataclass\nclass Passed:\n    a: int\n"
        "@dataclass\nclass Dotted:\n    a: int\n"
        "@dataclass\nclass Returned:\n    a: int\n"
        "class Plain:\n    a: int\n"
        "def f(p: Passed, q: tuple[mod.Dotted, int] | None = None) -> Returned:\n"
        "    return 'Pair'\n"
    )
    assert _bare_records([ast.parse(source)]) == ["Pair", "Narrow", "Returned"]


def test_every_record_checks_computes_or_carries_enough():
    """A construction returns a plain tuple, or its one value, unless its
    record checks its fields, has a method or property, holds four or
    more values, or is a parameter of a package function."""
    root = Path(ellsurf.__file__).parent
    assert _bare_records([ast.parse(p.read_text(), str(p)) for p in root.rglob("*.py")]) == []


def test_a_weierstrass_model_declares_its_three_forms_only():
    # the weight is read off the degree of a2, so no field repeats it
    fields = _dataclass_fields(_module_tree("elliptic"))
    assert [item.target.id for cls, item in fields if cls == "WeierstrassModel"] == [
        "a2",
        "a4",
        "a6",
    ]


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
    reaches that class's own method, not every method of the name, and one
    read off ``self`` in a class that defines it reaches that method and
    its overrides in the package's subclasses.  Other names are not
    resolved to modules or classes, and a class mentions what its methods
    do, so the graph over-approximates every call."""
    definitions = [pair for tree in trees for pair in _definitions(tree)]
    defined = {name for name, _ in definitions}
    classes = [cls for _name, cls in definitions if isinstance(cls, ast.ClassDef)]
    methods = {
        f"{cls.name}.{item.name}": item
        for cls in classes
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
    }
    # the class whose ``self`` a node reads, and each class with its subclasses
    enclosing = {id(node): cls.name for cls in classes for node in [cls, *cls.body]}
    bases = {cls.name: [b.id for b in cls.bases if isinstance(b, ast.Name)] for cls in classes}
    family = {name: {name} for name in bases}
    for name in bases:
        todo = list(bases[name])
        for base in todo:
            if base in family and name not in family[base]:
                family[base].add(name)
                todo.extend(bases[base])
    graph: dict[str, set[str]] = {name: set() for name in defined | methods.keys()}
    for name, node in definitions + list(methods.items()):
        cls = enclosing.get(id(node))
        for sub in _code_nodes(node):
            if isinstance(sub, ast.Name) and sub.id in defined:
                graph[name].add(sub.id)
            elif isinstance(sub, ast.Attribute):
                owner = sub.value.id if isinstance(sub.value, ast.Name) else None
                if owner == "self" and f"{cls}.{sub.attr}" in methods:
                    graph[name].update(
                        f"{c}.{sub.attr}" for c in family[cls] if f"{c}.{sub.attr}" in methods
                    )
                elif f"{owner}.{sub.attr}" in methods:
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


def test_an_attribute_read_off_self_reaches_its_class_and_the_overrides():
    source = (
        "class A:\n    def d(self):\n        return x()\n"
        "    def j(self):\n        return self.d() + self.e()\n"
        "class B:\n    def d(self):\n        return y()\n"
        "    def e(self):\n        return z()\n"
        "class C(A):\n    def d(self):\n        return w()\n"
        "def w():\n    pass\n"
        "def x():\n    pass\n"
        "def y():\n    pass\n"
        "def z():\n    pass\n"
    )
    graph = _reference_graph([ast.parse(source)])
    # A defines d, so self.d in A reaches A.d and the override C.d, not B.d;
    # A does not define e, so self.e may be any method of that name
    assert _reaches(graph, "A.j") == {"A.d", "C.d", "x", "w", "e", "z"}
    assert "y" not in _reaches(graph, "A")


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
# against the full-torsion Jacobian pair (full_torsion_jacobian in the
# refibration-match check), and the quadric double cover
# against the degree-two base change, and the quartic's Jacobian pair, the
# reference for the same pair with forms as coefficients; the kernel of
# the Gram matrix mod 2 against the Smith form, both counting the
# 2-torsion of a discriminant group; the signature elimination, whose last
# pivot is the lattice determinant, against the Bareiss determinant that
# the tests judge it by; the closed form -4f^3 - 27g^2 of
# the Jacobian pair against the determinant route of the quartic's
# discriminant, in the discriminant-relation check; and the coupling
# cofactor against the Hessian of the quartic form, built from its
# partials, in the coupling-product check
_SEPARATE_ROUTES = [
    ("full_torsion_surfaces", "subfamily_models"),
    ("refibration_jacobian", "full_torsion_surfaces"),
    ("refibration_jacobian", "full_torsion_jacobian"),
    ("refibration_jacobian", "hermite_pair_forms"),
    ("quadric_double_cover", "base_change_k3"),
    ("jacobian_quartic", "hermite_pair_forms"),
    ("_kernel_mod_2", "_elementary_divisors"),
    ("_inertia", "bareiss_det"),
    ("jacobian_quartic", "form_discriminant"),
    ("correspondence_polys", "form_partials"),
]


def _package_graph() -> dict[str, set[str]]:
    root = Path(ellsurf.__file__).parent
    paths = sorted(root.rglob("*.py"))
    return _reference_graph(ast.parse(path.read_text(), str(path)) for path in paths)


def test_the_routes_of_a_cross_route_check_never_reach_each_other():
    graph = _package_graph()
    for one, other in _SEPARATE_ROUTES:
        assert other not in _reaches(graph, one), (one, other)
        assert one not in _reaches(graph, other), (other, one)


def test_the_refibration_reads_the_torsion_pair_it_is_given():
    # refibration_jacobian takes the torsion pair its callers built and checked
    assert "bilinear_quadruple_surface" not in _reaches(_package_graph(), "refibration_jacobian")


def _named(node: ast.AST, name: str) -> bool:
    """``node`` is the bare name ``name`` or an attribute of that name."""
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def _is_zero_form(node: ast.AST) -> bool:
    """``node`` is a call ``HomPoly.zero(...)``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "zero"
        and _named(node.func.value, "HomPoly")
    )


def _zero_a2_models(tree: ast.AST) -> list[int]:
    """Line numbers of the calls ``WeierstrassModel(HomPoly.zero(...), ...)``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _named(node.func, "WeierstrassModel")
        and node.args
        and _is_zero_form(node.args[0])
    ]


def test_the_check_sees_models_built_on_a_zero_a2_form_only():
    source = (
        "m = WeierstrassModel(HomPoly.zero(v, 2), a4, a6)\n"
        "n = el.WeierstrassModel(\n    ep.HomPoly.zero(v, 4), a4, a6\n)\n"
        "k = WeierstrassModel(a2, a4, HomPoly.zero(v, 6))\n"
        "j = WeierstrassModel.short(a4, a6)\n"
        "z = HomPoly.zero(v, 2)\n"
        "w = WeierstrassModel(zero(v, 2), a4, a6)\n"
    )
    assert _zero_a2_models(ast.parse(source)) == [1, 2]


def test_only_elliptic_builds_a_short_model_by_hand():
    # everywhere else y^2 = x^3 + a4 x + a6 is WeierstrassModel.short
    assert set(_package_findings(_zero_a2_models)) == {"elliptic.py"}


def _scopes(tree: ast.Module):
    """(name, node) for each top-level statement, a class's statements
    apart: a function is its name, a method ``Class.method``, anything
    else in a class the class, and anything else ``<module>``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                method = isinstance(item, ast.FunctionDef)
                yield (f"{node.name}.{item.name}" if method else node.name), item
        else:
            yield (node.name if isinstance(node, ast.FunctionDef) else "<module>"), node


def _zero_a6_models(tree: ast.Module) -> list[str]:
    """The scopes (``_scopes``) that call ``WeierstrassModel`` with an
    ``a6``, third argument or keyword, that is ``HomPoly.zero(...)``, given
    directly or through a name the scope assigns it to."""
    found = []
    for name, scope in _scopes(tree):
        zeros = {
            target.id
            for sub in ast.walk(scope)
            if isinstance(sub, ast.Assign) and _is_zero_form(sub.value)
            for target in sub.targets
            if isinstance(target, ast.Name)
        }
        for sub in ast.walk(scope):
            if not (isinstance(sub, ast.Call) and _named(sub.func, "WeierstrassModel")):
                continue
            keyword = [k.value for k in sub.keywords if k.arg == "a6"]
            a6 = sub.args[2] if len(sub.args) > 2 else (keyword or [None])[0]
            if _is_zero_form(a6) or (isinstance(a6, ast.Name) and a6.id in zeros):
                found.append(name)
    return found


def test_the_check_sees_models_built_on_a_zero_a6_form_only():
    source = (
        "class P:\n    def model(self):\n        zero = HomPoly.zero(v, 6)\n"
        "        return WeierstrassModel(a2, a4, zero)\n"
        "def f():\n    return el.WeierstrassModel(a2, a4, ep.HomPoly.zero(v, 6))\n"
        "def g():\n    return WeierstrassModel(a2, a4, a6=HomPoly.zero(v, 6))\n"
        "def h():\n    return WeierstrassModel(HomPoly.zero(v, 2), a4, a6)\n"
        "def k():\n    zero = HomPoly.zero(v, 6)\n    return WeierstrassModel(zero, a4, a6)\n"
        "def n():\n    return WeierstrassModel.short(a4, HomPoly.zero(v, 6))\n"
        "m = WeierstrassModel(a2, a4, HomPoly.zero(v, 6))\n"
        "z = WeierstrassModel(a2, a4, zero)\n"
    )
    assert _zero_a6_models(ast.parse(source)) == ["P.model", "f", "g", "<module>"]


def test_only_the_alternate_pair_builds_a_two_torsion_model():
    # every y^2 = x(x^2 - trace x + norm) is AlternatePair(trace, norm).model()
    assert _package_findings(_zero_a6_models) == {"duality.py": ["AlternatePair.model"]}


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
    "monic": 1,
    "_over_lead": 1,
    "__pow__": 1,
    "sort_by_form": 1,
    "form_sqrt": 1,
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


def test_the_gcd_loops_read_the_quotients_off_the_gcd():
    # Yun's loop and refine_against take the gcd's cofactors; neither
    # divides by the gcd again
    found = {
        name: _mentions(node) & {"_int_divmod", "divexact_form"}
        for name, node in _definitions(_module_tree("exactpoly"))
        if name in ("squarefree_split", "refine_against")
    }
    assert found == {"squarefree_split": set(), "refine_against": set()}


def _while_loops(tree: ast.AST) -> list[int]:
    """Line numbers of the ``while`` loops, whatever their condition."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.While)]


def test_the_check_sees_while_loops_only():
    source = "while x:\n    pass\nfor i in range(3):\n    while True:\n        pass\nwhile_ = 1\n"
    assert _while_loops(ast.parse(source)) == [1, 4]


def test_the_integer_gcd_retries_over_a_computed_range():
    # the heuristic gcd doubles its point a bounded number of times; no
    # remainder sequence runs until a remainder vanishes.  Its trial
    # division is the one pseudo-division, bounded by the degrees.
    closure = _function_closure(_module_tree("exactpoly"), "_int_gcd")
    assert closure.pop("_int_divmod")
    assert {"_int_gcd", "_xi_candidate", "_xi_bits"} <= closure.keys()
    for name, node in closure.items():
        assert _while_loops(node) == [], name


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
    "scenario": _AFFINE_ROUND_TRIP,
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
    assert not {"descending", "_coeff_tuple"} & _nested_definitions(_module_tree("duality"))
    exactpoly = _module_tree("exactpoly")
    assert "shift" not in _nested_definitions(_class(exactpoly, "UniPoly"))
    assert "as_unipoly" not in _nested_definitions(exactpoly)
    elliptic = _nested_definitions(_module_tree("elliptic"))
    assert not {"_trunc", "_series_inverse", "_lift_cubic_root"} & elliptic


def _private_checks(tree: ast.AST) -> list[int]:
    """Line numbers of the calls of a method named ``_check`` or ``_check_vars``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("_check", "_check_vars")
    ]


def test_the_check_sees_calls_of_the_private_checks_only():
    source = (
        "f._check(g)\n"
        "self.trace._check_vars(self.norm)\n"
        "check_forms((f, g), (4, 6), 'data')\n"
        "_check(f, g)\n"
        "checker = f._check\n"
        "text = 'f._check(g)'\n"
    )
    assert _private_checks(ast.parse(source)) == [1, 2]


def test_only_exactpoly_calls_the_private_form_checks():
    # every other module states its input contract through check_forms
    findings = _package_findings(_private_checks)
    assert findings.pop("exactpoly.py")
    assert findings == {}
    assert not hasattr(HomPoly, "_check_vars")


def _discriminant_calls(tree: ast.Module) -> list[str]:
    """The scopes (``_scopes``) that call a method named ``discriminant``."""
    return [
        name
        for name, scope in _scopes(tree)
        if any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "discriminant"
            for sub in ast.walk(scope)
        )
    ]


def test_the_check_sees_calls_of_a_discriminant_method_only():
    source = (
        "def f(h):\n    return h.discriminant() == 0\n"
        "def g(rng):\n    return _draw(make, lambda h: h.discriminant() != 0)\n"
        "def k(c, r, p):\n    return c.discriminant, r.reduced_discriminant(), form_discriminant(p)\n"
        "class Q:\n    def m(self):\n        return self.discriminant()\n"
        "    def n(self):\n        return is_separable(self.form)\n"
        "text = 'h.discriminant()'\n"
    )
    assert _discriminant_calls(ast.parse(source)) == ["f", "g", "Q.m"]


def test_only_the_discriminant_relation_takes_a_quartic_discriminant():
    # a quartic's smoothness is is_separable, a gcd of its partials; the
    # Sylvester determinant runs only where its value is compared with
    # -4f^3 - 27g^2
    assert _package_findings(_discriminant_calls) == {"hermite_aj.py": ["discr_relation_check"]}


ST, UV = ("s", "t"), ("U", "V")
LINE, QUADRIC = HomPoly.of(ST, (1, 2)), HomPoly.of(ST, (1, 0, 1))
QUARTIC, OTHER_QUARTIC = HomPoly.of(ST, (1, 0, 0, 0, 1)), HomPoly.of(ST, (1, 2, 0, 0, 1))
SEXTIC, OCTIC = HomPoly.of(ST, (1, 0, 0, 0, 0, 0, 1)), HomPoly.of(ST, (1,) + (0,) * 7 + (1,))

# the faults of the routed constructions that no other test reaches, each
# valid input but for one form moved onto another pair or given another
# degree, with the words of check_forms that refuse it
_OFF_THE_CONTRACT = {
    "RESData-pair": (lambda: du.RESData(QUARTIC, SEXTIC.rename(UV)), "one variable pair"),
    "AlternatePair-pair": (lambda: du.AlternatePair(QUARTIC, OCTIC.rename(UV)), "one variable pair"),
    "ruling_swap-pair": (
        lambda: du.ruling_swap(QUARTIC, OTHER_QUARTIC, QUARTIC.rename(UV)), "one variable pair"
    ),
    "full_torsion_surfaces-pair": (
        lambda: du.full_torsion_surfaces(QUARTIC, OTHER_QUARTIC.rename(UV)), "one variable pair"
    ),
    "full_torsion_pair-pair": (
        lambda: du.full_torsion_pair(QUARTIC, OTHER_QUARTIC.rename(UV)), "one variable pair"
    ),
    "full_torsion_jacobian-pair": (
        lambda: du.full_torsion_jacobian(QUARTIC, OTHER_QUARTIC.rename(UV)), "one variable pair"
    ),
    "correspondence_models-pair": (
        lambda: du.correspondence_models("cover", QUADRIC, QUADRIC, QUADRIC.rename(UV)),
        "one variable pair",
    ),
    "quadric_branch-pair": (
        lambda: du.quadric_branch(QUARTIC, OTHER_QUARTIC, QUARTIC.rename(UV)), "one variable pair"
    ),
    "quadric_double_cover-pair": (
        lambda: du.quadric_double_cover(QUARTIC, OTHER_QUARTIC, QUARTIC.rename(UV)),
        "one variable pair",
    ),
    "quadric_branch-degree": (
        lambda: du.quadric_branch(QUADRIC, QUADRIC, QUADRIC), "needs degrees"
    ),
    "subfamily_models-pair": (
        lambda: du.subfamily_models("twist", QUADRIC.rename(UV), HomPoly.of(ST, (1, 0, 0, 1))),
        "one variable pair",
    ),
    "hermite_pair_forms-pair": (
        lambda: hermite_pair_forms(LINE, LINE, LINE, LINE, LINE.rename(UV)), "one variable pair"
    ),
    "check_triple-pair": (
        lambda: check_triple(QUADRIC, QUADRIC, QUADRIC.rename(UV)), "one variable pair"
    ),
    "HomPoly.substitute-pair": (lambda: QUADRIC.substitute(LINE, LINE.rename(UV)), "one variable pair"),
    "HomPoly.substitute-degree": (lambda: QUADRIC.substitute(LINE, QUADRIC), "needs degrees"),
}


@pytest.mark.parametrize("case", sorted(_OFF_THE_CONTRACT))
def test_each_routed_construction_refuses_forms_off_its_contract(case):
    build, words = _OFF_THE_CONTRACT[case]
    with pytest.raises(DegreeMismatch, match=words):
        build()


# the two tables of duality, and the cli checks that read (nearly) every
# entry of one; every other check calls the narrow builder it reads
_TABLES = {"correspondence_surfaces", "full_torsion_surfaces"}
_TABLE_READERS = ["_correspondence_routes", "_torsion_tower"]


def _table_readers(tree: ast.Module) -> list[str]:
    """The scopes (``_scopes``) that mention a table of ``_TABLES``, as a
    bare name or an attribute."""
    return [name for name, scope in _scopes(tree) if _mentions(scope) & _TABLES]


def test_the_check_sees_mentions_of_the_tables_only():
    source = (
        "def a(rng):\n    return du.correspondence_surfaces(*t)['cover1']\n"
        "def b(rng):\n    table = full_torsion_surfaces(x, y)\n    return table\n"
        "def c():\n    'full_torsion_surfaces is a word here'\n    return du.full_torsion_pair(x, y)\n"
        "def d():\n    def check():\n        return du.full_torsion_surfaces(x, y)\n    return check\n"
        "build = du.correspondence_surfaces\n"
        "class K:\n    def m(self):\n        return correspondence_models('cover', a, b, c)\n"
        "    def n(self):\n        return correspondence_surfaces(a, b, c)\n"
    )
    assert _table_readers(ast.parse(source)) == ["a", "b", "d", "<module>", "K.n"]


def test_only_the_checks_that_read_a_whole_table_build_it():
    assert _table_readers(_module_tree("cli")) == _TABLE_READERS


# the one input convention of each quadric construction family: the
# double cover, its ruling swap and its deformation begin with the trace
# and the split norm's factors, and the correspondence builders, the
# triple's check and its exchange constraint read the curve's triple
# (gamma, alpha, delta), after their kind if they take one; the
# refibration reads the quadruple cover's torsion pair (b, c)
_QUADRIC_FORMS = ("trace", "left", "right")
_CURVE_TRIPLE = ("gamma", "alpha", "delta")
_INPUT_CONVENTIONS = {
    "quadric_branch": _QUADRIC_FORMS,
    "quadric_double_cover": _QUADRIC_FORMS,
    "ruling_swap": _QUADRIC_FORMS,
    "moduli_involution": _QUADRIC_FORMS,
    "two_param_family": _QUADRIC_FORMS,
    "correspondence_surfaces": _CURVE_TRIPLE,
    "correspondence_branches": _CURVE_TRIPLE,
    "correspondence_models": ("kind", *_CURVE_TRIPLE),
    "_correspondence_pairs": ("kind", *_CURVE_TRIPLE),
    "check_triple": _CURVE_TRIPLE,
    "exchange_constraint": _CURVE_TRIPLE,
    "refibration_jacobian": ("b", "c"),
}


def _convention_breaks(tree: ast.Module, conventions: dict[str, tuple[str, ...]]) -> list[str]:
    """The names of ``conventions`` whose module-level function is missing
    or does not begin its positional parameters with the names given."""
    params = {
        node.name: tuple(arg.arg for arg in node.args.posonlyargs + node.args.args)
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    return [
        name for name, lead in conventions.items() if params.get(name, ())[: len(lead)] != lead
    ]


def test_the_check_sees_the_leading_positional_parameters_only():
    source = (
        "def swap(trace, left, right, *, d0=0):\n    pass\n"
        "def branch(pair):\n    pass\n"
        "def models(kind, alpha, gamma, delta):\n    pass\n"
        "def split(trace, /, left, right, d0):\n    pass\n"
        "class K:\n    def moved(self, trace, left, right):\n        pass\n"
    )
    conventions = {
        "swap": _QUADRIC_FORMS,
        "branch": _QUADRIC_FORMS,
        "models": ("kind", *_CURVE_TRIPLE),
        "split": _QUADRIC_FORMS,
        "moved": _QUADRIC_FORMS,
    }
    assert _convention_breaks(ast.parse(source), conventions) == ["branch", "models", "moved"]


def test_each_quadric_construction_family_takes_its_inputs_one_way():
    body = [node for module in ("duality", "hermite_aj") for node in _module_tree(module).body]
    assert _convention_breaks(ast.Module(body, []), _INPUT_CONVENTIONS) == []


# the eliminations behind the lattice invariants, which the GramLattice
# object caches; they read raw Gram rows and never the class
_LATTICE_ELIMINATIONS = ("_elementary_divisors", "_kernel_mod_2", "_inertia")


def test_the_lattice_eliminations_never_reach_the_lattice_class():
    tree = _module_tree("lattice")
    definitions = dict(_definitions(tree))
    graph = _package_graph()
    for name in _LATTICE_ELIMINATIONS:
        assert "GramLattice" not in _mentions(definitions[name]), name
        assert "GramLattice" not in _reaches(graph, name), name


def test_the_invariant_rows_never_reach_the_model_class():
    definitions = dict(_definitions(_module_tree("elliptic")))
    assert "WeierstrassModel" not in _mentions(definitions["_invariant_rows"])
    assert "WeierstrassModel" not in _reaches(_package_graph(), "_invariant_rows")


_MEMO_DECORATORS = {"lru_cache", "cache"}


def _memo_caches(tree: ast.AST) -> list[int]:
    """Line numbers of the imports of ``lru_cache`` or ``cache`` from
    ``functools`` and of the reads ``functools.lru_cache`` and
    ``functools.cache``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.ImportFrom)
            and node.module == "functools"
            and any(alias.name in _MEMO_DECORATORS for alias in node.names)
        )
        or (
            isinstance(node, ast.Attribute)
            and node.attr in _MEMO_DECORATORS
            and _named(node.value, "functools")
        )
    )


def test_the_check_sees_functools_memo_caches_only():
    source = (
        "from functools import lru_cache\n"
        "import functools\n"
        "@functools.cache\ndef f():\n    pass\n"
        "from functools import cached_property, reduce\n"
        "from functools import cache as memo\n"
        "cache = {}\n"
        "g = functools.lru_cache(maxsize=8)(len)\n"
        "h = self.cache\n"
    )
    assert _memo_caches(ast.parse(source)) == [1, 3, 7, 9]


def test_no_module_memoizes_through_functools():
    # a cache lives on the object it describes, as long as that object
    assert _package_findings(_memo_caches) == {}


def _imported_modules(tree: ast.AST) -> set[str]:
    """The package modules a module imports, by a relative or an absolute
    import, anywhere in it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
            found |= {path[1] for path in paths if path[0] == "ellsurf" and len(path) > 1}
        elif isinstance(node, ast.ImportFrom):
            path = [part for part in (node.module or "").split(".") if part]
            if node.level == 0:
                if path[:1] != ["ellsurf"]:
                    continue
                path = path[1:]
            found |= {path[0]} if path else {alias.name for alias in node.names}
    return found


def test_the_check_sees_imports_of_package_modules_only():
    source = (
        "from .scenario import ParseError\n"
        "from . import lattice as la\n"
        "import ellsurf.duality\n"
        "def f():\n    from ellsurf import cli\n"
        "from ellsurf.hermite_aj import QuarticCurve\n"
        "import re, scenario, ellsurfaces.cli\n"
        "from elliptic import KodairaType\n"
        "from ellsurfaces import lattice\n"
    )
    assert _imported_modules(ast.parse(source)) == {"scenario", "lattice", "duality", "cli", "hermite_aj"}


# the layers below the grammar, which read no text
_BELOW_THE_GRAMMAR = ("exactpoly", "elliptic", "hermite_aj", "duality", "lattice")


def test_scenario_text_has_one_home():
    root = Path(ellsurf.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in root.glob("*.py")}
    assert "cli" not in _imported_modules(trees["scenario"])
    for name in _BELOW_THE_GRAMMAR:
        assert "scenario" not in _imported_modules(trees[name]), name
    for name, tree in trees.items():
        if name != "scenario":
            assert "ParseError" not in _nested_definitions(tree), name
            assert "MAX_DIGITS" not in _module_mentions(tree), name
