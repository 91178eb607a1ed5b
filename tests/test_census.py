"""The traffic census: every function of ``ellsurf`` is entered by a run of
its command line, or is listed in ``_REACHED_BY_TESTS_ONLY`` with a reason.

One fresh interpreter runs under ``cProfile``: the package import,
``verify --all --seed 0 --trials 1`` in both formats (one trial enters the
functions that the full trial counts enter), ``verify --scenario`` on one
bundled file, and three probe files, which fail a fiber count, a term and
a family's validation, for the error paths.  The AST of each module names
every function, nested ones included, at the first line of its code
object: a decorated function starts at its first decorator.  Lambdas and
comprehensions are not counted.

A function that the run does not enter is dead, unless the table lists it
for one of three reasons:

* "pinned by perfbench": the benchmark names it, or names its class when
  no method of that class is entered, or a pinned function that it names
  mentions it.  The entry fails once ``perfbench/*.py`` stops naming it;
* "needed by a6 ≠ 0 models": the series-root path of
  ``two_torsion_sections``, which no bundled scenario takes;
* "awaits ROADMAP item 13": ``surface_symmetry``, which a check of the
  moduli moves will call, or else delete.

A listed function that the run enters fails too, so the table cannot go
stale.  Each finding reads ``path:line qualified.name: rule``.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import ellsurf

ROOT = Path(ellsurf.__file__).parent
PERFBENCH = Path(__file__).parents[1] / "perfbench"

_PINNED = "pinned by perfbench"
_SERIES_ROOT = "needed by a6 ≠ 0 models"
_ITEM_13 = "awaits ROADMAP item 13"
_REASONS = {_PINNED, _SERIES_ROOT, _ITEM_13}

_REACHED_BY_TESTS_ONLY = {
    # the UniPoly API, which the benchmark binds, and the helpers only it calls
    "exactpoly._Rows._over_lead": _PINNED,
    "exactpoly.UniPoly._new": _PINNED,
    "exactpoly.UniPoly._check": _PINNED,
    "exactpoly.UniPoly.of": _PINNED,
    "exactpoly.UniPoly.from_coeffs": _PINNED,
    "exactpoly.UniPoly.zero": _PINNED,
    "exactpoly.UniPoly.coeff": _PINNED,
    "exactpoly.UniPoly.__call__": _PINNED,
    "exactpoly.UniPoly.derivative": _PINNED,
    "exactpoly.UniPoly.divmod": _PINNED,
    "exactpoly.UniPoly.monic": _PINNED,
    "exactpoly.gcd_poly": _PINNED,
    "exactpoly.homogenize": _PINNED,
    "exactpoly.resultant": _PINNED,
    "exactpoly.discriminant_form": _PINNED,
    # perfbench's term-product counter reads it through getattr
    "exactpoly.BiHomPoly.rows": _PINNED,
    "lattice.discriminant_group": _PINNED,
    "elliptic.WeierstrassModel.rhs_at": _SERIES_ROOT,
    "elliptic._series_root": _SERIES_ROOT,
    "elliptic._regular_base_point": _SERIES_ROOT,
    "hermite_aj.surface_symmetry": _ITEM_13,
}

_PROBES = {
    "fibers": "kind fiber-config\nfamily correspondence-rational\ntrials 1\nexpect fibers 12*I1\n",
    "term": "kind fiber-config\nfamily alternate-pair\npoly trace on s,t deg 4 = s^4 $\n",
    "validation": "kind fiber-config\nfamily alternate-pair\nexpect fibers 12*I1\n",
}

# argv: the package's parent directory, then the JSON list of command lines
_RUN = """
import contextlib, cProfile, io, json, sys
sys.path.insert(0, sys.argv[1])
profile = cProfile.Profile()
profile.enable()
from ellsurf import cli
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
profile.disable()
profile.create_stats()
entered = sorted({(path, line) for path, line, _name in profile.stats})
print(json.dumps({"codes": codes, "entered": entered}))
"""


def _functions(tree: ast.Module, module: str) -> list[tuple[str, int, ast.AST]]:
    """``(qualified name, first line, node)`` for every function in ``tree``,
    nested ones included; the first line is that of the code object, so a
    decorated function starts at its first decorator."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = child.decorator_list[0] if child.decorator_list else child
                    found.append((name, first.lineno, child))
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def _mentions(node: ast.AST) -> set[str]:
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    }


def _unnamed_pins(defs, entered, table, words: set[str]) -> list[str]:
    """The findings for the "pinned by perfbench" entries that ``words``,
    the identifiers of ``perfbench/*.py``, do not name."""
    pinned = [d for d in defs if table.get(d[2]) == _PINNED]
    live_owners = {name.rpartition(".")[0] for path, line, name, _ in defs if (path, line) in entered}

    def named(name: str) -> bool:
        owner, _, own = name.rpartition(".")
        return own in words or (owner not in live_owners and owner.rpartition(".")[2] in words)

    names = {d[2] for d in pinned if named(d[2])}
    for _ in pinned:
        mentioned = set().union(*(_mentions(node) for _, _, name, node in pinned if name in names))
        names |= {d[2] for d in pinned if d[2].rpartition(".")[2] in mentioned}
    return [
        f"{path}:{line} {name}: listed as {_PINNED!r}, but perfbench/*.py does not name it"
        for path, line, name, _ in pinned
        if name not in names
    ]


def _findings(defs, entered, table, words: set[str]) -> list[str]:
    """``path:line qualified.name: rule`` for each function of ``defs``,
    ``(path, line, name, node)`` tuples, that breaks the census: entered and
    listed, neither, or listed for no allowed reason; then each entry of
    ``table`` that names no function, and each pin that perfbench lost."""
    findings = []
    for path, line, name, _ in defs:
        reason, where = table.get(name), f"{path}:{line} {name}"
        if (path, line) in entered and reason is not None:
            findings.append(f"{where}: entered by the run, yet listed as {reason!r}")
        elif (path, line) not in entered and reason is None:
            findings.append(f"{where}: entered by no run and not listed")
        elif reason is not None and reason not in _REASONS:
            findings.append(f"{where}: listed as {reason!r}, which is no allowed reason")
    defined = {name for _, _, name, _ in defs}
    findings += [f"{name}: listed, but no such function" for name in sorted(table.keys() - defined)]
    return findings + _unnamed_pins(defs, entered, table, words)


def _package_defs() -> list[tuple[str, int, str, ast.AST]]:
    return [
        (str(path.relative_to(ROOT.parent)), line, name, node)
        for path in sorted(ROOT.glob("*.py"))
        for name, line, node in _functions(ast.parse(path.read_text(), str(path)), path.stem)
    ]


def _census_run(tmp_path: Path) -> tuple[list[int], set[tuple[str, int]]]:
    """The exit codes of the census's command lines, and the ``(path,
    first line)`` of each package function that they enter."""
    argvs = [["verify", "--all", "--seed", "0", "--trials", "1", "--format", fmt] for fmt in ("text", "json")]
    argvs.append(["verify", "--scenario", str(ROOT / "scenarios" / "coupling-product.scn")])
    for probe, body in _PROBES.items():
        path = tmp_path / f"{probe}.scn"
        path.write_text(f"name probe-{probe}\n{body}")
        argvs.append(["verify", "--scenario", str(path)])
    run = subprocess.run(
        [sys.executable, "-c", _RUN, str(ROOT.parent), json.dumps(argvs)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    out = json.loads(run.stdout)
    entered = set()
    for path, line in out["entered"]:
        resolved = Path(path).resolve()
        if resolved.is_relative_to(ROOT):
            entered.add((str(resolved.relative_to(ROOT.parent)), line))
    return out["codes"], entered


def test_every_function_is_entered_or_listed_with_its_reason(tmp_path):
    codes, entered = _census_run(tmp_path)
    assert codes == [0, 0, 0, 1, 2, 2]
    words = set(re.findall(r"\w+", "\n".join(p.read_text() for p in PERFBENCH.glob("*.py"))))
    findings = _findings(_package_defs(), entered, _REACHED_BY_TESTS_ONLY, words)
    assert not findings, "\n" + "\n".join(findings)


_SYNTHETIC = '''\
def deco(f):
    return f


@deco

@deco
def decorated():
    return [x for x in ()]


class C:
    @staticmethod
    def s():
        pass

    @property
    def p(self):
        return 1


def outer():
    def inner():
        return lambda: 0

    return inner
'''


def test_the_census_keys_each_function_by_its_code_object():
    tree = ast.parse(_SYNTHETIC)
    found = {name: line for name, line, _ in _functions(tree, "m")}
    space: dict = {}
    exec(compile(tree, "m.py", "exec"), space)
    codes = {
        "m.deco": space["deco"].__code__,
        "m.decorated": space["decorated"].__code__,
        "m.C.s": space["C"].s.__code__,
        "m.C.p": space["C"].p.fget.__code__,
        "m.outer": space["outer"].__code__,
        "m.outer.inner": space["outer"]().__code__,
    }
    assert found == {name: code.co_firstlineno for name, code in codes.items()}
    assert found["m.decorated"] == 5


def _synthetic_defs(source: str):
    return [("m.py", line, name, node) for name, line, node in _functions(ast.parse(source), "m")]


def test_the_census_names_stale_entries_and_unused_functions():
    source = "def used():\n    pass\ndef fresh():\n    pass\ndef listed():\n    pass\n"
    entered = {("m.py", 1), ("m.py", 5)}
    table = {"m.listed": _SERIES_ROOT, "m.gone": _ITEM_13}
    assert _findings(_synthetic_defs(source), entered, table, set()) == [
        "m.py:3 m.fresh: entered by no run and not listed",
        f"m.py:5 m.listed: entered by the run, yet listed as {_SERIES_ROOT!r}",
        "m.gone: listed, but no such function",
    ]
    assert _findings(_synthetic_defs(source), {("m.py", 1)}, {"m.fresh": "unused"}, set()) == [
        "m.py:3 m.fresh: listed as 'unused', which is no allowed reason",
        "m.py:5 m.listed: entered by no run and not listed",
    ]


def test_a_pin_holds_while_perfbench_names_the_function_its_class_or_a_caller():
    source = (
        "class Old:\n    def a(self):\n        return helper()\n"
        "def helper():\n    pass\n"
        "class Live:\n    def used(self):\n        pass\n"
        "    def rows(self):\n        pass\n    def other(self):\n        pass\n"
    )
    defs = _synthetic_defs(source)
    table = {name: _PINNED for _, _, name, _ in defs if name != "m.Live.used"}
    entered = {("m.py", 7)}
    assert _findings(defs, entered, table, {"Old", "rows"}) == [
        f"m.py:11 m.Live.other: listed as {_PINNED!r}, but perfbench/*.py does not name it"
    ]
    assert [f.split()[1].rstrip(":") for f in _findings(defs, entered, table, {"Live"})] == [
        "m.Old.a", "m.helper", "m.Live.rows", "m.Live.other",
    ]
