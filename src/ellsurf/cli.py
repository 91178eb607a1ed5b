"""Scenario-driven verification harness and command-line entry point.

A scenario is a small text file that declares one check: its ``kind``, a
verification ``family``, named inputs (binary forms, rationals, quartic
curves, or lattice expressions), an optional trial count for randomized
families, and ``expect`` lines.  The parser collects the expectations
into one map, :attr:`Scenario.expect`; ``_KINDS`` states which
expectations each kind takes, and every scenario may expect a named
error instead.  ``verify`` runs a selection of scenarios and renders a
report as aligned text or as JSON; the JSON form carries no timing data
and is byte-stable for a fixed seed, so runs can be diffed.

Each family is declared once, next to its code, as a :class:`Family`; one
driver in :func:`run` owns the rng, the trial loop and the first trial's
witness.  Randomized families draw their inputs through :func:`_draw`,
which re-samples rejected draws using genericity predicates
(squarefreeness and coprimality of specific discriminant factors), never
the expected answer, so resampling cannot bias a check; after
``DRAW_BUDGET`` attempts it raises :class:`SamplerExhausted`, reported as
an error instead of a hang.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import random
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Callable

from . import duality as du
from . import lattice as la
from .elliptic import (
    DegenerateModel,
    FiberConfiguration,
    KodairaType,
    fiber_configuration,
    invariants,
    two_torsion_sections,
)
from .exactpoly import (
    MAX_DIGITS,
    BiHomPoly,
    DegreeMismatch,
    HomPoly,
    ParseError,
    divexact_form,
    form_partials,
    is_separable,
    parse_hompoly,
    parse_rational,
    tensor_forms,
)
from .hermite_aj import (
    FamilyParams,
    QuarticCurve,
    abel_jacobi,
    correspondence_22,
    correspondence_polys,
    discr_relation_check,
    double_quadric_from_quartic,
    exchange_constraint,
    j_invariant_22,
    j_invariant_quartic,
    jacobian_quartic,
)

DEFAULT_TRIALS = 100

# the most trials a scenario line or --trials may ask for, far above the
# largest bundled count (200), so that a long digit string cannot ask for a
# run that never ends
MAX_TRIALS = 10_000

# attempts one draw may make before it gives up; over root seeds 0-19 no
# bundled scenario needs more than 12
DRAW_BUDGET = 100

# the largest total rank a lattice expression may ask for, so that a short
# term such as A2^3000 or A99999999 cannot ask for a huge Gram matrix; the
# paper's largest lattice, the K3 lattice, has rank 22, and the bundled
# scenarios reach 14
MAX_LATTICE_RANK = 64

# the largest degree a poly line may declare, so that "deg 100000" cannot ask
# for a huge coefficient list; every bundled poly declares 4 or 8, and the
# largest form the paper uses, a K3 surface's discriminant, has degree 24
MAX_POLY_DEGREE = 48

# kind -> (the expectations it takes besides ``error``, how a message names
# them)
_KINDS = {
    "fiber-config": (("fibers", "euler"), "fibers and euler"),
    "lattice-identity": (
        ("match", "det", "signature", "length", "parity", "even"),
        "match/mismatch or invariants",
    ),
    "hermite-identity": (("pass",), "pass"),
    "construction-roundtrip": (("pass",), "pass"),
    "table-consistency": (("pass",), "pass"),
}

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")
_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")

_FIRST = ("s", "t")
_SECOND = ("U", "V")
_COVER = ("u", "v")
_ANCHOR_PAIR = ("S", "T")


class _CheckFailure(Exception):
    """An expectation did not hold; carries extra artifact detail.

    ``instance`` names the instance of a trial that failed, when a trial
    checks more than one.
    """

    def __init__(
        self, message: str, details: dict | None = None, instance: str | None = None
    ):
        super().__init__(message)
        self.details = details or {}
        self.instance = instance

    def in_trial(self, k: int) -> _CheckFailure:
        where = f"trial {k}"
        if self.instance is not None:
            where += f" ({self.instance})"
        return _CheckFailure(f"{where}: {self}", self.details)


class SamplerExhausted(RuntimeError):
    """A sampler made ``DRAW_BUDGET`` attempts and accepted none of them."""


@dataclass(frozen=True)
class Family:
    """One scenario family, declared next to its check with :func:`_family`.

    ``check(sc, rng)`` runs one trial: it raises ``_CheckFailure`` or
    returns the trial's witness, kept from the first trial as
    ``first_instance`` (or, when ``tally`` names an artifact, counted over
    the trials that return true).  A family that is not ``randomized``
    runs its check once and the check returns every artifact.  ``inputs``
    maps each input the check reads to its directive, ``constraint`` is a
    (predicate, message) pair the inputs must meet, and ``extra`` holds
    fixed artifacts.
    """

    kind: str
    check: Callable
    randomized: bool = True
    inputs: dict[str, str] = field(default_factory=dict)
    constraint: tuple[Callable, str] | None = None
    extra: dict = field(default_factory=dict)
    tally: str | None = None


_FAMILIES: dict[str, Family] = {}


def _family(name: str, kind: str, **declared) -> Callable:
    """Declare the decorated per-trial check as the family ``name``."""

    def register(check: Callable) -> Callable:
        _FAMILIES[name] = Family(kind, check, **declared)
        return check

    return register


# ---------------------------------------------------------------------------
# scenario files


@dataclass
class Scenario:
    """One parsed scenario file.

    ``polys``, ``rats``, ``quartics`` and ``lattices`` hold the named
    inputs.  ``expect`` holds each declared expectation in file order:
    ``pass`` -> True, ``error`` -> the error name, ``fibers`` -> the label
    counts, ``euler``, ``det``, ``length`` and ``parity`` -> an int,
    ``signature`` -> (plus, minus), and ``match`` and ``even`` -> a bool;
    ``mismatch`` and ``odd`` store False under those two keys.
    """

    name: str | None = None
    kind: str | None = None
    family: str | None = None
    trials: int | None = None
    polys: dict[str, HomPoly] = field(default_factory=dict)
    rats: dict[str, Fraction] = field(default_factory=dict)
    quartics: dict[str, QuarticCurve] = field(default_factory=dict)
    lattices: dict[str, la.GramLattice] = field(default_factory=dict)
    expect: dict[str, object] = field(default_factory=dict)


# input directive -> (the Scenario table it fills, the shape of its line)
_INPUTS = {
    "poly": ("polys", "poly <name> on <v1>,<v2> deg <n> = <terms>"),
    "rat": ("rats", "rat <name> = <value>"),
    "quartic": ("quartics", "quartic <name> = <value>"),
    "lattice": ("lattices", "lattice <name> = <value>"),
}

# expectation that takes no value -> (its key in Scenario.expect, its value)
_NO_VALUE = {
    "pass": ("pass", True),
    "match": ("match", True),
    "mismatch": ("match", False),
    "even": ("even", True),
    "odd": ("even", False),
}

_POLY_RE = re.compile(
    r"^poly\s+(?P<name>\w+)\s+on\s+(?P<v1>[A-Za-z_]\w*)\s*,\s*"
    r"(?P<v2>[A-Za-z_]\w*)\s+deg\s+(?P<deg>\d+)\s*=\s*(?P<expr>.+)$"
)
_ASSIGN_RE = re.compile(r"^\w+\s+(?P<name>\w+)\s*=\s*(?P<expr>.+)$")
_FIBER_ITEM_RE = re.compile(r"^\s*(\d+)\s*\*\s*([IV0-9*]+)\s*$")
_LATTICE_TERM_RE = re.compile(
    r"\s*(?P<atom><-?2>|[A-Z][A-Za-z0-9]*)\s*"
    r"(?:\(\s*(?P<scale>-?\d+)\s*\))?\s*(?:\^\s*(?P<power>\d+))?\s*$"
)
_ROOT_INDEX_RE = re.compile(r"[AD](\d+)")


def _parse_int(text: str, line: int, col: int, what: str) -> int:
    """An integer of at most ``MAX_DIGITS`` digits; ``col`` is the column of
    the text's first character."""
    at = col + len(text) - len(text.lstrip())
    if len(text.strip().lstrip("+-")) > MAX_DIGITS:
        raise ParseError(f"{what} has more than {MAX_DIGITS} digits", line, at)
    try:
        return int(text.strip())
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {text.strip()!r}", line, at)


def _parse_lattice_expr(text: str, line: int, col: int) -> la.GramLattice:
    """A sum of lattice terms; ``col`` is the column of the text's first
    character, so an error names the column of its term."""
    summands: list[la.GramLattice] = []
    offset = 0
    rank = 0
    too_large = f"lattice rank above {MAX_LATTICE_RANK}"
    for piece in text.split("+"):
        at = col + offset + len(piece) - len(piece.lstrip())
        offset += len(piece) + 1
        m = _LATTICE_TERM_RE.fullmatch(piece)
        if m is None:
            raise ParseError(f"bad lattice term {piece.strip()!r}", line, at)
        atom = m.group("atom")
        index = _ROOT_INDEX_RE.fullmatch(atom)
        if index and rank + _parse_int(index.group(1), line, at, "root index") > MAX_LATTICE_RANK:
            raise ParseError(too_large, line, at)
        if atom == "P0":
            base = la.two_param_polarization(0)
        elif atom == "P1":
            base = la.two_param_polarization(1)
        else:
            try:
                base = la.standard_lattice(atom)
            except la.UnknownLattice as exc:
                raise ParseError(str(exc), line, at) from None
        if m.group("scale") is not None:
            scale = _parse_int(m.group("scale"), line, at, "lattice scale")
            if scale == 0:
                raise ParseError("lattice scale must be nonzero", line, at)
            base = la.rescale(base, scale)
        power = _parse_int(m.group("power") or "1", line, at, "lattice power")
        if power < 1:
            raise ParseError("lattice power must be positive", line, at)
        rank += base.rank * power
        if rank > MAX_LATTICE_RANK:
            raise ParseError(too_large, line, at)
        summands.extend([base] * power)
    return summands[0] if len(summands) == 1 else la.direct_sum(*summands)


def _parse_fiber_multiset(text: str, line: int, col: int) -> dict[str, int]:
    """Fiber counts; ``col`` is the column of the text's first character,
    so an error names the column of its item."""
    counts: dict[str, int] = {}
    offset = 0
    for item in text.split("+"):
        at = col + offset + len(item) - len(item.lstrip())
        offset += len(item) + 1
        m = _FIBER_ITEM_RE.fullmatch(item)
        if m is None:
            raise ParseError(f"bad fiber item {item.strip()!r}", line, at)
        count, text_label = _parse_int(m.group(1), line, at, "fiber count"), m.group(2)
        try:
            label = KodairaType.parse(text_label).label
        except ValueError:
            raise ParseError(f"unknown fiber label {text_label!r}", line, at) from None
        if label in counts:
            raise ParseError(f"fiber label {label} listed twice", line, at)
        if count < 1:
            raise ParseError("fiber counts must be positive", line, at)
        counts[label] = count
    return counts


def _parse_expect(rest: str, line: int, col: int, sc: Scenario) -> None:
    """One ``expect`` directive; ``col`` is the column of ``rest``."""
    head = rest.split(None, 1)[0] if rest else ""
    tail = rest[len(head):].lstrip()
    at = col + len(rest) - len(tail)
    key, value = _NO_VALUE.get(head, (head, None))
    if key in sc.expect:
        raise ParseError(f"duplicate expectation {head!r}", line, col)
    if head in _NO_VALUE:
        if tail:
            raise ParseError(f"'expect {head}' takes no value", line, at)
    elif head == "error":
        if not _IDENT_RE.fullmatch(tail):
            raise ParseError(f"bad error name {tail!r}", line, at)
        value = tail
    elif head == "fibers":
        value = _parse_fiber_multiset(tail, line, at)
    elif head in ("euler", "det", "length", "parity"):
        value = _parse_int(tail, line, at, "euler number" if head == "euler" else head)
        if head == "parity" and value not in (0, 1):
            raise ParseError("parity must be 0 or 1", line, at)
    elif head == "signature":
        parts = tail.split(",")
        if len(parts) != 2:
            raise ParseError("signature expects 'plus,minus'", line, at)
        plus, minus = parts
        value = (
            _parse_int(plus, line, at, "signature entry"),
            _parse_int(minus, line, at + len(plus) + 1, "signature entry"),
        )
    else:
        raise ParseError(f"unknown expectation {head!r}", line, col)
    sc.expect[key] = value


def _parse_input(key: str, m: re.Match, line: int, col: int, source: str):
    """The value of the input line ``m`` of directive ``key``; ``col`` is
    the column of the line."""
    expr, at = m.group("expr"), col + m.start("expr")
    if key == "rat":
        return parse_rational(expr, line=line, col=at)
    if key == "lattice":
        return _parse_lattice_expr(expr, line, at)
    if key == "quartic":
        parts = expr.split(",")
        if len(parts) != 5:
            raise ParseError("quartic expects five comma-separated coefficients", line, col)
        coeffs = []
        for part in parts:
            coeffs.append(parse_rational(part, line=line, col=at))
            at += len(part) + 1
        return QuarticCurve.of(*coeffs)
    vars = (m.group("v1"), m.group("v2"))
    if vars[0] == vars[1]:
        raise ParseError("the two variables must differ", line, col)
    degree = m.group("deg").lstrip("0") or "0"  # int() refuses over 4 300 digits
    if len(degree) > len(str(MAX_POLY_DEGREE)) or int(degree) > MAX_POLY_DEGREE:
        raise ParseError(f"poly degree above {MAX_POLY_DEGREE}", line, col + m.start("deg"))
    try:
        return parse_hompoly(expr, vars, int(degree), line=line, col=at)
    except ParseError as exc:
        message = str(exc)
        if "homogeneous" in message or "declared degree" in message:
            raise DegreeMismatch(f"{source}:{line}: {message}") from None
        raise


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse one scenario file into a fully typed :class:`Scenario`.

    Raises :class:`ParseError` (with line/column) for grammar problems and
    :class:`DegreeMismatch` when a polynomial is not homogeneous of its
    declared degree.
    """
    sc = Scenario()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        col = len(line) - len(line.lstrip()) + 1
        line = line.strip()
        key = line.split(None, 1)[0]
        rest = line[len(key):].strip()
        rest_col = col + len(line) - len(rest)

        if key in ("name", "kind", "family", "trials"):
            if getattr(sc, key) is not None:
                raise ParseError(f"duplicate {key} line", lineno, col)
            value = rest
            if key == "trials":
                value = _parse_int(rest, lineno, rest_col, "trials")
                if value < 1:
                    raise ParseError("trials must be positive", lineno, rest_col)
                if value > MAX_TRIALS:
                    raise ParseError(f"trials above {MAX_TRIALS}", lineno, rest_col)
            elif key == "kind":
                if rest not in _KINDS:
                    raise ParseError(f"unknown kind {rest!r}", lineno, col)
            elif not _NAME_RE.fullmatch(rest):
                what = "scenario" if key == "name" else "family"
                raise ParseError(f"bad {what} name {rest!r}", lineno, col)
            setattr(sc, key, value)
        elif key in _INPUTS:
            table, shape = _INPUTS[key]
            m = (_POLY_RE if key == "poly" else _ASSIGN_RE).match(line)
            if m is None:
                raise ParseError(f"expected '{shape}'", lineno, col)
            inputs, name = getattr(sc, table), m.group("name")
            if name in inputs:
                raise ParseError(f"duplicate {key} {name!r}", lineno, col)
            inputs[name] = _parse_input(key, m, lineno, col, source)
        elif key == "expect":
            _parse_expect(rest, lineno, rest_col, sc)
        else:
            raise ParseError(f"unknown directive {key!r}", lineno, col)

    if sc.name is None:
        raise ParseError(f"{source}: missing name line", 1, 1)
    if sc.kind is None:
        raise ParseError(f"{source}: missing kind line", 1, 1)
    _validate_scenario(sc, source)
    return sc


def _validate_scenario(sc: Scenario, source: str) -> None:
    def bad(message: str) -> ParseError:
        return ParseError(f"{source}: scenario {sc.name!r}: {message}", 1, 1)

    takes, names = _KINDS[sc.kind]
    outcome = any(key not in ("error", "euler") for key in sc.expect)
    if "error" not in sc.expect and not outcome:
        raise bad("no expectation declared")
    if "error" in sc.expect and outcome:
        raise bad("'expect error' excludes every other expectation")
    if any(key != "error" and key not in takes for key in sc.expect):
        raise bad(f"{sc.kind} takes {names}")

    if sc.kind == "lattice-identity":
        if sc.family is not None:
            raise bad("lattice-identity scenarios take no family")
        if not sc.lattices:
            raise bad("lattice-identity needs at least one lattice")
        if "match" in sc.expect and len(sc.lattices) < 2:
            raise bad("match/mismatch needs at least two lattices")
        return

    if sc.family is None:
        raise bad("this kind needs a family line")
    fam = _FAMILIES.get(sc.family)
    if fam is None:
        raise bad(f"unknown family {sc.family!r}")
    if fam.kind != sc.kind:
        raise bad(f"family {sc.family!r} belongs to kind {fam.kind!r}")
    for name, directive in fam.inputs.items():
        if name not in getattr(sc, _INPUTS[directive][0]):
            raise bad(f"family {sc.family!r} needs {directive} {name!r}")
    if fam.constraint is not None and not fam.constraint[0](sc):
        raise bad(fam.constraint[1])


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read(), source=path)


def bundled_scenarios() -> list[Scenario]:
    """All scenarios shipped inside the package, sorted by name."""
    root = resources.files(__package__).joinpath("scenarios")
    out = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".scn"):
            out.append(parse_scenario(entry.read_text("utf-8"), source=entry.name))
    return sorted(out, key=lambda sc: sc.name)


# ---------------------------------------------------------------------------
# samplers: every acceptance gate below is a genericity predicate on
# discriminant factors, never a comparison with the expected answer


def _draw(make: Callable, accept: Callable | None = None):
    """Call ``make()`` until it gives a candidate that ``accept`` takes.

    ``make`` returns None for a candidate it rejects while building it;
    without ``accept`` every built candidate is taken.  Raises
    :class:`SamplerExhausted` after ``DRAW_BUDGET`` attempts.
    """
    for _ in range(DRAW_BUDGET):
        candidate = make()
        if candidate is not None and (accept is None or accept(candidate)):
            return candidate
    raise SamplerExhausted(f"no acceptable draw in {DRAW_BUDGET} attempts")


def _ints(rng: random.Random, n: int, lo: int, hi: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(n))


def _random_form(rng: random.Random, vars, degree: int, lo=-9, hi=9) -> HomPoly:
    return HomPoly.of(vars, _draw(lambda: _ints(rng, degree + 1, lo, hi), any))


def _random_quartic(rng: random.Random, lo=-9, hi=9) -> QuarticCurve:
    return QuarticCurve.of(*_ints(rng, 5, lo, hi))


def _sample_rational_surface(rng: random.Random, generic=is_separable) -> du.RESData:
    """A rational elliptic surface whose reduced discriminant is ``generic``."""

    def make():
        f = _random_form(rng, _FIRST, 4)
        g = _random_form(rng, _FIRST, 6)
        try:
            return du.RESData(f, g)
        except ValueError:
            return None

    return _draw(make, lambda r: generic(r.reduced_discriminant()))


def _sample_isogeny_pair(rng: random.Random) -> du.AlternatePair:
    def make():
        trace, left, right = (_random_form(rng, _FIRST, 4, -6, 6) for _ in range(3))
        norm = left * right
        if is_separable(norm * (trace * trace - 4 * norm)):
            return du.AlternatePair(trace, norm, split=(left, right))
        return None

    return _draw(make)


def _sample_correspondence_triple(rng: random.Random):
    def make():
        gamma, alpha, delta = FamilyParams.of(*_ints(rng, 6, -6, 6), 0, 0).triple(_SECOND)
        prod = gamma * delta
        disc = alpha * alpha - 4 * prod
        if prod.is_zero or disc.is_zero:
            return None
        both = prod * disc
        if is_separable(both) and both(0, 1) != 0 and both(1, 0) != 0:
            return alpha, gamma, delta
        return None

    return _draw(make)


def _sample_full_torsion_forms(rng: random.Random):
    def make():
        trace, difference = (_random_form(rng, _FIRST, 4, -6, 6) for _ in range(2))
        if is_separable((trace * trace - difference * difference) * difference):
            return trace, difference
        return None

    return _draw(make)


def _draw_quadruple(rows: Callable) -> du.QuadrupleCoverSurface:
    """Draw the double cover of a generic quadruple of bilinear curves,
    whose two torsion factors are coprime and squarefree."""

    def make():
        try:
            surface = du.bilinear_quadruple_surface(du.BilinearQuadruple.of(rows()))
        except du.GenericityViolated:
            return None
        b, c = surface.torsion_factors
        return surface if is_separable(b * c * (b - c)) else None

    return _draw(make)


def _interpolated_row(base, x1, x2, lam1, lam2):
    # row of a bilinear curve meeting ``base`` over s = x1 and s = x2
    r1, r2, r3, r4 = base
    a1, b1 = lam1 * (r1 * x1 + r2), lam1 * (r3 * x1 + r4)
    a2, b2 = lam2 * (r1 * x2 + r2), lam2 * (r3 * x2 + r4)
    p1 = (a1 - a2) / (x1 - x2)
    p3 = (b1 - b2) / (x1 - x2)
    return (p1, a1 - p1 * x1, p3, b1 - p3 * x1)


def _refiber_rows(rng: random.Random):
    # pairs (0, 3) and (1, 2) meet over rational s values, so the
    # refibration's rationality gates always pass
    row0, row1 = _ints(rng, 4, -5, 5), _ints(rng, 4, -5, 5)
    xs = [Fraction(x) for x in rng.sample(range(-6, 7), 4)]
    lams = _ints(rng, 4, 1, 4)
    row3 = _interpolated_row(row0, xs[0], xs[1], lams[0], lams[1])
    row2 = _interpolated_row(row1, xs[2], xs[3], lams[2], lams[3])
    return row0, row1, row2, row3


def _sample_three_lines_params(rng: random.Random, **fixed) -> du.ThreeLinesCubicParams:
    names = ("mu", "nu", "c0", "c1", "d0", "d1", "d2", "e0", "e1", "e2")

    def make():
        draw = dict(zip(names, _ints(rng, 10, -5, 5)), **fixed)
        try:
            return du.ThreeLinesCubicParams.of(**draw)
        except du.ParameterConstraintViolated:
            return None

    return _draw(make)


def _at_chain_level(params: du.ThreeLinesCubicParams, level: int) -> bool:
    """The star at infinity of the three-lines model has ``level``, and the
    finite nodal factor is separable and avoids both pinned star places."""
    try:
        delta = invariants(du.three_lines_cubic_model(params)).delta
    except DegenerateModel:
        return False
    vars = delta.vars
    stars = (HomPoly.of(vars, (1, params.mu)) * HomPoly.of(vars, (1, params.nu))) ** 6
    finite = divexact_form(delta, stars)
    if finite.second_var_multiplicity() != level:
        return False
    affine = divexact_form(finite, HomPoly.var_power(vars, 1, level))
    if not is_separable(affine):
        return False
    return affine(-params.mu, 1) != 0 and affine(-params.nu, 1) != 0


def _sample_chain_params(rng: random.Random, level: int, **fixed):
    return _draw(
        lambda: _sample_three_lines_params(rng, **fixed),
        lambda params: _at_chain_level(params, level),
    )


# ---------------------------------------------------------------------------
# fiber-configuration families


def _fiber_table(cfg: FiberConfiguration) -> list[dict]:
    return [
        {
            "factor": p.place.text(),
            "v_c4": p.v_c4,
            "v_c6": p.v_c6,
            "v_delta": p.v_delta,
            "type": p.kodaira.label,
            "count": p.degree,
        }
        for p in cfg.places
    ]


def _fmt_multiset(counts: dict[str, int]) -> str:
    return " + ".join(f"{n}*{label}" for label, n in sorted(counts.items()))


def _fibers(sc: Scenario, instances) -> dict:
    """Check the fibers of each (tag, model); the first one is the witness."""
    fibers, euler = sc.expect.get("fibers"), sc.expect.get("euler")
    witness = None
    for tag, model in instances:
        cfg = fiber_configuration(model)
        got = cfg.summary()
        problem = None
        if fibers is not None and got != fibers:
            problem = f"fiber counts {_fmt_multiset(got)} instead of {_fmt_multiset(fibers)}"
        elif euler is not None and cfg.euler_total != euler:
            problem = f"Euler number {cfg.euler_total} instead of {euler}"
        if problem is not None:
            raise _CheckFailure(problem, {"fiber_table": _fiber_table(cfg)}, tag)
        if witness is None:
            witness = {
                "instance": tag,
                "weight": cfg.weight,
                "euler": cfg.euler_total,
                "places": _fiber_table(cfg),
            }
    return witness


@_family("rational-base", "fiber-config")
def _rational_base(sc, rng):
    model = _sample_rational_surface(rng).model()
    return _fibers(sc, [("rational elliptic surface", model)])


def _cover(tag: str, build: Callable) -> Callable:
    def check(sc, rng):
        # no choice of (d0, d_inf) helps a discriminant vanishing at (1, 1),
        # so that place rejects the surface itself
        r = _sample_rational_surface(
            rng, lambda disc: is_separable(disc) and disc(1, 1) != 0
        )
        disc = r.reduced_discriminant()

        def generic(pair) -> bool:
            d0, d_inf = pair
            if (1 - d0) * (1 - d_inf) * (1 - d0 * d_inf) == 0:
                return False
            return disc(d0, 1) != 0 and disc(1, d_inf) != 0

        d0, d_inf = _draw(lambda: _ints(rng, 2, -9, 9), generic)
        return _fibers(sc, [(f"{tag} at ({d0}, {d_inf})", build(r, d0, d_inf))])

    return check


_family("base-change", "fiber-config")(_cover("cover", du.base_change_k3))
_family("quadratic-twist", "fiber-config")(_cover("twist", du.twist_model))


@_family("torsion-pair", "fiber-config")
def _torsion_pair(sc, rng):
    return _fibers(sc, [("trace/norm member", _sample_isogeny_pair(rng).model())])


@_family(
    "alternate-pair",
    "fiber-config",
    randomized=False,
    inputs={"trace": "poly", "norm": "poly"},
    constraint=(
        lambda sc: sc.polys["trace"].degree == 4 and sc.polys["norm"].degree == 8,
        "alternate-pair needs trace of degree 4, norm of degree 8",
    ),
)
def _alternate_pair(sc, rng):
    # the declared pair is checked, and reported, as a single trial
    pair = du.AlternatePair(sc.polys["trace"], sc.polys["norm"])
    instance = [("declared trace/norm member", pair.model())]
    trial = Family("fiber-config", lambda sc, rng: _fibers(sc, instance))
    return _trials(trial, sc, rng, 1)


@_family("quadruple-cover", "fiber-config", extra={"torsion_sections": 3})
def _quadruple_cover(sc, rng):
    surface = _draw_quadruple(lambda: tuple(_ints(rng, 4, -5, 5) for _ in range(4)))
    witness = _fibers(sc, [("quadruple cover", surface.model)])
    sections = two_torsion_sections(surface.model)
    b, c = surface.torsion_factors
    if len(sections) != 3 or not {b, c} <= set(sections):
        raise _CheckFailure("two-torsion does not split into both branch factors")
    return witness


@_family("three-lines", "fiber-config")
def _three_lines(sc, rng):
    params = _sample_chain_params(rng, 6)
    return _fibers(sc, [("three-lines cubic", du.three_lines_cubic_model(params))])


_CHAIN_ZEROS = {7: ("d2",), 8: ("d2", "e2"), 9: ("d2", "e2", "e1", "d1")}


@_family(
    "star-chain",
    "fiber-config",
    inputs={"level": "rat"},
    constraint=(
        lambda sc: sc.rats["level"] in _CHAIN_ZEROS,
        "star-chain level must be 7, 8 or 9",
    ),
)
def _star_chain(sc, rng):
    level = int(sc.rats["level"])
    params = _sample_chain_params(rng, level, **dict.fromkeys(_CHAIN_ZEROS[level], 0))
    model = du.three_lines_cubic_model(params)
    return _fibers(sc, [(f"sharpened chain, level {level}", model)])


def _correspondence(keys: tuple[str, str]) -> Callable:
    def check(sc, rng):
        table = du.correspondence_surfaces(*_sample_correspondence_triple(rng))
        return _fibers(sc, [(key, table[key]) for key in keys])

    return check


_family("correspondence-cover", "fiber-config")(_correspondence(("cover1", "cover2")))
_family("correspondence-quotient", "fiber-config")(_correspondence(("quot1", "quot2")))
_family("correspondence-rational", "fiber-config")(_correspondence(("rat1", "rat2")))


def _reduced_pair_generic(pair) -> bool:
    f, g = pair
    disc = 4 * f**3 + 27 * g**2
    if not is_separable(disc):
        return False
    return disc.coeffs[0] != 0 and disc(0, 1) != 0 and disc(1, 1) != 0


def _subfamily(kind: str) -> Callable:
    def check(sc, rng):
        f, g = _draw(
            lambda: (_random_form(rng, _SECOND, 2), _random_form(rng, _SECOND, 3)),
            _reduced_pair_generic,
        )
        return _fibers(sc, [(f"{kind} member", du.subfamily_models(kind, f, g))])

    return check


_family("tower-fourfold-cover", "fiber-config")(_subfamily("cover4"))
_family("tower-double-cover", "fiber-config")(_subfamily("cover2"))
_family("tower-twisted-quotient", "fiber-config")(_subfamily("twist"))
_family("tower-rational-quotient", "fiber-config")(_subfamily("rational"))


@_family("full-torsion-alternate", "fiber-config")
def _full_torsion_alt(sc, rng):
    table = du.full_torsion_surfaces(*_sample_full_torsion_forms(rng))
    return _fibers(sc, [("full-torsion member", table["alt"])])


@_family("refibered-pencil", "fiber-config")
def _refibered_pencil(sc, rng):
    def make():
        quad = _draw_quadruple(lambda: _refiber_rows(rng)).quadruple
        return du.refibration_jacobian(quad)

    rj = _draw(make, lambda rj: _at_chain_level(rj.params, 6))
    return _fibers(sc, [("refibered pencil", rj.model)])


# ---------------------------------------------------------------------------
# polynomial-identity families

_ANCHORS = tuple(Fraction(a) for a in (-2, -1, 0, 1, 2, 3))

# (x - x0)^2 in the pairs of the coupling polynomials, x = U/V and x0 = S/T
_SEPARATION_SQUARE = BiHomPoly.from_num(_SECOND, _ANCHOR_PAIR, ((0, 0, 1), (0, -2, 0), (1, 0, 0)))


@_family(
    "coupling-product",
    "hermite-identity",
    extra={"anchors": [str(a) for a in _ANCHORS]},
)
def _coupling_product(sc, rng):
    h = _random_quartic(rng)
    polys = correspondence_polys(h)
    if not (polys.pairing.is_symmetric and polys.cofactor.is_symmetric):
        raise _CheckFailure("coupling data lost symmetry")
    if polys.pairing.diagonal() != h.form:
        raise _CheckFailure("pairing diagonal differs from the quartic")
    # the cofactor diagonal is one 36th of the Hessian of the quartic form
    (f_uu, f_uv), (_, f_vv) = (form_partials(d) for d in form_partials(h.form))
    if 36 * polys.cofactor.diagonal() != f_uu * f_vv - f_uv * f_uv:
        raise _CheckFailure("cofactor diagonal formula failed")
    # pairing^2 + cofactor*(x - x0)^2 = P(x)*P(x0) as one bidegree-(4,4)
    # identity.  Both sides have degree four in x0, so a nonzero difference
    # vanishes at no more than four of the six anchors: the identity holds
    # exactly when it holds at every anchor, and the first anchor where the
    # difference does not vanish names a failure.
    lhs = polys.pairing * polys.pairing + polys.cofactor * _SEPARATION_SQUARE
    rhs = tensor_forms(h.form, h.form.rename(_ANCHOR_PAIR))
    if lhs != rhs:
        difference = lhs - rhs
        x0 = next(a for a in _ANCHORS if not difference.specialize_pair2(a, 1).is_zero)
        raise _CheckFailure(
            f"product identity failed at anchor {x0}", {"quartic": _frs(h.coeffs)}
        )
    return {"quartic": _frs(h.coeffs)}


@_family("discriminant-relation", "hermite-identity")
def _discriminant_relation(sc, rng):
    h = _random_quartic(rng)
    dp, dq, g = discr_relation_check(h)
    if dq != g * g * dp:
        raise _CheckFailure(
            "resolvent discriminant is not g^2 times the quartic one",
            {"quartic": _frs(h.coeffs)},
        )
    if dp != jacobian_quartic(h).discriminant:
        raise _CheckFailure(
            "quartic discriminant differs from -4f^3 - 27g^2",
            {"quartic": _frs(h.coeffs)},
        )
    return {"quartic": _frs(h.coeffs), "disc": str(dp)}


@_family("pointwise-map", "hermite-identity")
def _pointwise_map(sc, rng):
    def two_point_curve():
        x0, w0, px, pw = (
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)
        )
        if w0 == 0 or px == x0:
            return None
        a2, a3, a4 = _ints(rng, 3, -9, 9)
        rhs0 = w0**2 - (a2 * x0**2 + a3 * x0**3 + a4 * x0**4)
        rhs1 = pw**2 - (a2 * px**2 + a3 * px**3 + a4 * px**4)
        a1 = (rhs1 - rhs0) / (px - x0)
        a0 = rhs0 - a1 * x0
        return QuarticCurve.of(a0, a1, a2, a3, a4), (x0, -w0), (px, pw)

    h, base, point = _draw(two_point_curve)
    if not abel_jacobi(h, base, base).is_infinity:
        raise _CheckFailure("the base point did not map to the origin")
    img = abel_jacobi(h, base, point)
    if not img.is_infinity and not jacobian_quartic(h).contains(img.xi, img.eta):
        raise _CheckFailure(
            "image is off the reduced cubic",
            {"quartic": _frs(h.coeffs), "image": [str(img.xi), str(img.eta)]},
        )
    return {
        "quartic": _frs(h.coeffs),
        "image": "infinity" if img.is_infinity else [str(img.xi), str(img.eta)],
    }


_ANCHOR_RATS = ("base_x", "base_w", "point_x", "point_w", "image_xi", "image_eta")


@_family(
    "pointwise-map-anchor",
    "hermite-identity",
    randomized=False,
    inputs=dict.fromkeys(_ANCHOR_RATS, "rat") | {"curve": "quartic"},
)
def _pointwise_anchor(sc, rng):
    h = sc.quartics["curve"]
    base = (sc.rats["base_x"], sc.rats["base_w"])
    point = (sc.rats["point_x"], sc.rats["point_w"])
    expected = (sc.rats["image_xi"], sc.rats["image_eta"])
    if not abel_jacobi(h, base, base).is_infinity:
        raise _CheckFailure("the base point did not map to the origin")
    img = abel_jacobi(h, base, point)
    if img.is_infinity or (img.xi, img.eta) != expected:
        got = "infinity" if img.is_infinity else f"({img.xi}, {img.eta})"
        raise _CheckFailure(f"image {got} instead of ({expected[0]}, {expected[1]})")
    if not jacobian_quartic(h).contains(img.xi, img.eta):
        raise _CheckFailure("image is off the reduced cubic")
    return {"image": [str(img.xi), str(img.eta)]}


@_family("fiberwise-j", "hermite-identity")
def _fiberwise_j(sc, rng):
    h = _draw(lambda: _random_quartic(rng, -6, 6), lambda h: h.discriminant() != 0)
    cubic = jacobian_quartic(h)
    # at the abscissa of a two-torsion point the (2,2) curve is singular
    xi = _draw(
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        lambda xi: cubic.rhs(xi) != 0,
    )
    b = correspondence_22(h, xi)
    if j_invariant_quartic(h) != j_invariant_22(b):
        raise _CheckFailure(
            "the two j-invariants differ", {"quartic": _frs(h.coeffs), "xi": str(xi)}
        )
    return {"quartic": _frs(h.coeffs), "xi": str(xi), "j": f"{j_invariant_quartic(h)}"}


_DOUBLE_COVER_RATS = ("a0", "a1", "a2", "xi", "c0", "c_inf")


@_family(
    "quartic-double-cover",
    "hermite-identity",
    randomized=False,
    inputs=dict.fromkeys(_DOUBLE_COVER_RATS, "rat"),
)
def _quartic_double_cover(sc, rng):
    data = double_quadric_from_quartic(*(sc.rats[name] for name in _DOUBLE_COVER_RATS))
    corr = data.correspondence
    first = ("S", "T")
    s_sq = HomPoly.var_power(first, 0, 1) ** 2
    s_t = HomPoly.var_power(first, 0, 1) * HomPoly.var_power(first, 1, 1)
    t_sq = HomPoly.var_power(first, 1, 1) ** 2
    quadric = (
        tensor_forms(s_sq, corr.gamma)
        + tensor_forms(s_t, corr.alpha)
        + tensor_forms(t_sq, corr.delta)
    )
    if data.quadric != quadric:
        raise _CheckFailure("the quadric is not assembled from the coupling triple")
    line0, line_inf = data.line_factors
    u, v = data.ruling_factors
    if data.branch != tensor_forms(line0 * line_inf, u * v) * data.quadric:
        raise _CheckFailure("branch form does not factor as lines times the quadric")
    if (data.branch.deg1, data.branch.deg2) != (4, 4):
        raise _CheckFailure("branch form is not of bidegree (4, 4)")
    if exchange_constraint(data.params) != 0:
        raise _CheckFailure("the exchange constraint does not vanish")
    return {"branch_bidegree": [4, 4]}


# ---------------------------------------------------------------------------
# round-trip families


@_family("isogeny-square", "construction-roundtrip", extra={"scaling": ["4", "16"]})
def _isogeny_square(sc, rng):
    trace = _random_form(rng, _FIRST, 4)
    norm = _random_form(rng, _FIRST, 8)
    again = du.two_isogeny_dual(du.two_isogeny_dual(du.AlternatePair(trace, norm)))
    if again.trace != 4 * trace or again.norm != 16 * norm:
        raise _CheckFailure("double dual is not multiplication by four")


def _label_places(cfg: FiberConfiguration, label: str) -> set:
    return {p.place for p in cfg.places if p.kodaira.label == label}


@_family("isogeny-place-swap", "construction-roundtrip")
def _isogeny_place_swap(sc, rng):
    pair = _sample_isogeny_pair(rng)
    dual = du.two_isogeny_dual(pair)
    cfg = fiber_configuration(pair.model())
    cfg_dual = fiber_configuration(dual.model())
    if cfg.euler_total != cfg_dual.euler_total:
        raise _CheckFailure("Euler numbers differ across the isogeny")
    mine = {label: _label_places(cfg, label) for label in ("I1", "I2")}
    theirs = {label: _label_places(cfg_dual, label) for label in ("I1", "I2")}
    if mine["I2"] != theirs["I1"] or mine["I1"] != theirs["I2"]:
        raise _CheckFailure("the isogeny did not swap the two sets of places")
    return {"summary": cfg.summary(), "dual_summary": cfg_dual.summary()}


def _sample_involution_inputs(rng: random.Random):
    """Three quartic forms and a line-parameter pair off d0*d_inf = 1."""
    forms = tuple(_random_form(rng, _FIRST, 4) for _ in range(3))
    d0, d_inf = _draw(lambda: _ints(rng, 2, -9, 9), lambda d: d[0] * d[1] != 1)
    return forms, d0, d_inf


_SCALAR = {"scalar": "(d0*d_inf - 1)^2"}


@_family("involution-square", "construction-roundtrip", extra=_SCALAR)
def _involution_square(sc, rng):
    (trace, left, right), d0, d_inf = _sample_involution_inputs(rng)
    if du.moduli_involution(trace, left, right, 0, 0) != (-trace, left, right):
        raise _CheckFailure("base-point normal form failed")
    once = du.moduli_involution(trace, left, right, d0, d_inf)
    twice = du.moduli_involution(*once, d0, d_inf)
    scale = (d0 * d_inf - 1) ** 2
    if twice != (scale * trace, scale * left, scale * right):
        raise _CheckFailure(
            "involution square is not the fixed scalar (d0*d_inf - 1)^2"
        )
    combo = once[0] * once[0] - 4 * once[1] * once[2]
    if combo != scale * (trace * trace - 4 * left * right):
        raise _CheckFailure("branch combination scaled by the wrong factor")


@_family("normalize-roundtrip", "construction-roundtrip", tally="mirror_branch_trials")
def _normalize_roundtrip(sc, rng):
    params = _sample_three_lines_params(rng)
    sq, lin, cst = du.general_form_coefficients(params)
    back = du.normalize_three_i0star(params.mu, params.nu, sq, lin, cst)
    if params.c1 > 0:
        if back != params:
            raise _CheckFailure("normalization lost the parameters")
        return False
    # documented sign branch: with c1 < 0 the positive square root is
    # taken unless it collides with the shifted quadratic coefficient
    # (exactly at d2 = 0), where the parameters come back verbatim; the
    # model agrees either way
    if params.d2 == 0:
        if back != params:
            raise _CheckFailure("collision branch altered the parameters")
    elif back.c1 != -params.c1:
        raise _CheckFailure("mirror branch chose the wrong sign")
    if du.three_lines_cubic_model(back) != du.three_lines_cubic_model(params):
        raise _CheckFailure("mirror branch changed the model")
    return True


@_family("refibration-match", "construction-roundtrip")
def _refibration_match(sc, rng):
    surface = _draw_quadruple(lambda: _refiber_rows(rng))
    b, c = surface.torsion_factors
    rj = du.refibration_jacobian(surface.quadruple)
    tor = du.full_torsion_surfaces(b + c, b - c)
    if rj.f != tor["f"] or rj.g != tor["g"]:
        raise _CheckFailure("refibration pair differs from the torsion-tower pair")
    if (rj.params.mu, rj.params.nu) != (0, 1):
        raise _CheckFailure("default chart is not (0, 1)")
    other = du.refibration_jacobian(surface.quadruple, 2, 5)
    if (other.f, other.g) != (rj.f, rj.g):
        raise _CheckFailure("the reduced pair depends on the chart")


# ---------------------------------------------------------------------------
# table-consistency families

_BRANCH_PAIRS = (
    "branch_cover1_cover2",
    "branch_cover1_quot2",
    "branch_quot1_cover2",
    "branch_quot1_quot2",
)


@_family(
    "correspondence-routes",
    "table-consistency",
    extra={"branch_pairs": list(_BRANCH_PAIRS)},
)
def _correspondence_routes(sc, rng):
    alpha, gamma, delta = _sample_correspondence_triple(rng)
    table = du.correspondence_surfaces(alpha, gamma, delta)
    for key in _BRANCH_PAIRS:
        one, other = table[key]
        if one != other:
            raise _CheckFailure(f"the two readings of {key} differ")
    if table["cad"] != tuple(form.rename(_SECOND) for form in (gamma, alpha, delta)):
        raise _CheckFailure("the quotient triple is not the input triple")
    for key in ("cover1", "quot1", "rat1"):
        base, dual = table[key], table[key + "_dual"]
        if dual.a2 != -2 * base.a2 or dual.a4 != base.a2**2 - 4 * base.a4:
            raise _CheckFailure(f"{key} dual relation failed")
    for key in ("cover2", "quot2", "rat2"):
        base, dual = table[key + "_dual"], table[key]
        if dual.a2 != -2 * base.a2 or dual.a4 != base.a2**2 - 4 * base.a4:
            raise _CheckFailure(f"{key} dual relation failed on the mirrored side")


@_family("extraction-identity", "table-consistency")
def _extraction_identity(sc, rng):
    pair = _sample_isogeny_pair(rng)
    data = du.quadric_double_cover(pair)
    u_sq, v_sq = HomPoly.of(_COVER, (1, 0, 0)), HomPoly.of(_COVER, (0, 0, 1))
    total = None
    for j in range(5):
        power = HomPoly.of(_FIRST, tuple(1 if i == 4 - j else 0 for i in range(5)))
        term = tensor_forms(power, data.swap.coeffs[j].substitute(u_sq, v_sq))
        total = term if total is None else total + term
    if total != data.branch:
        raise _CheckFailure("the two branch readings differ")
    left, right = pair.split
    flipped = du.quadric_double_cover(
        du.AlternatePair(pair.trace, pair.norm, split=(right, left))
    )
    u_lin, v_lin = HomPoly.of(_COVER, (1, 0)), HomPoly.of(_COVER, (0, 1))
    if data.branch.substitute_pair2(v_lin, u_lin) != flipped.branch:
        raise _CheckFailure("swapping rulings does not flip the split")
    try:
        res = du.RESData(data.swap.f.rename(_FIRST), data.swap.g.rename(_FIRST))
    except ValueError:
        return
    disc = res.reduced_discriminant()
    if disc(0, 1) == 0 or disc(1, 0) == 0 or disc(1, 1) == 0:
        return
    if data.jacobian != du.base_change_k3(res, 0, 0):
        raise _CheckFailure("jacobian differs from the degree-two base change")


_TOWER_STAGES = (
    ("cover4", "jac_4cover"),
    ("cover2", "jac_cover"),
    ("twist", "jac_quot_twisted"),
    ("rational", "res_quot"),
)


@_family(
    "torsion-tower",
    "table-consistency",
    extra={"stages": [kind for kind, _ in _TOWER_STAGES]},
)
def _torsion_tower(sc, rng):
    trace, difference = _sample_full_torsion_forms(rng)
    table = du.full_torsion_surfaces(trace, difference)
    for kind, key in _TOWER_STAGES:
        if du.subfamily_models(kind, table["f"], table["g"]) != table[key]:
            raise _CheckFailure(f"subfamily {kind!r} differs from tower entry {key!r}")
    for key in ("branch_4cover", "branch_cover", "branch_quot"):
        one, other = table[key]
        if one != other:
            raise _CheckFailure(f"the two readings of {key} differ")
    alt, alt_dual = table["alt"], table["alt_dual"]
    checks = (
        alt.a2 == -1 * trace,
        4 * alt.a4 == trace * trace - difference * difference,
        alt_dual.a2 == 2 * trace,
        alt_dual.a4 == difference * difference,
    )
    if not all(checks):
        raise _CheckFailure("the isogenous pair lost its normal form")


@_family("deformation-discriminant", "table-consistency", extra=_SCALAR)
def _deformation_discriminant(sc, rng):
    (trace, left, right), d0, d_inf = _sample_involution_inputs(rng)
    fam = du.two_param_family(trace, left, right, d0, d_inf)
    if invariants(fam.model).delta != 16 * fam.reduced_discriminant:
        raise _CheckFailure("model discriminant is not 16 times the reduced one")
    scale = (d0 * d_inf - 1) ** 2
    fixed = trace * trace - 4 * left * right
    if fam.model.a2**2 - 4 * fam.model.a4 != scale * fixed:
        raise _CheckFailure("branch combination scaled by the wrong factor")
    once = du.moduli_involution(trace, left, right, d0, d_inf)
    if once[0] * once[0] - 4 * once[1] * once[2] != scale * fixed:
        raise _CheckFailure("involution moved the branch combination")


# ---------------------------------------------------------------------------
# lattice identities


def _lattice_profile(lat: la.GramLattice) -> dict:
    profile = {
        "rank": lat.rank,
        "determinant": la.determinant(lat),
        "signature": list(la.signature(lat)),
        "even": lat.is_even,
    }
    inv = la.two_elementary_invariants(lat)
    if inv.is_two_elementary:
        profile["length"] = inv.length
        profile["parity"] = inv.parity
    return profile


# expectation -> (profile entry, its name in a failure message)
_LATTICE_INVARIANTS = {
    "det": ("determinant", "determinant"),
    "signature": ("signature", "signature"),
    "length": ("length", "discriminant-group length"),
    "parity": ("parity", "parity"),
}


def _run_lattice(sc: Scenario) -> dict:
    names = list(sc.lattices)
    profiles = {name: _lattice_profile(sc.lattices[name]) for name in names}
    artifacts: dict = {"lattices": profiles}

    # the invariants in file order, then the pairs
    for key, value in sc.expect.items():
        if key != "even" and key not in _LATTICE_INVARIANTS:
            continue
        for name in names:
            profile = profiles[name]
            if key == "even":
                if profile["even"] != value:
                    kind = "even" if value else "odd"
                    raise _CheckFailure(f"lattice {name} is not {kind}", artifacts)
                continue
            entry, label = _LATTICE_INVARIANTS[key]
            got = profile.get(entry)
            if key == "signature":
                got = tuple(got)
            if got != value:
                raise _CheckFailure(
                    f"lattice {name}: {label} {got} instead of {value}", artifacts
                )

    match = sc.expect.get("match")
    if match is not None:
        pairs = {}
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                verdict = la.nikulin_equivalent(sc.lattices[a], sc.lattices[b])
                pairs[f"{a}~{b}"] = verdict
                if verdict != match:
                    word = "equivalent" if match else "inequivalent"
                    artifacts["pairs"] = pairs
                    raise _CheckFailure(
                        f"lattices {a} and {b} should be {word}", artifacts
                    )
        artifacts["pairs"] = pairs
    return artifacts


# ---------------------------------------------------------------------------
# running and reporting


@dataclass
class Report:
    name: str
    kind: str
    family: str | None
    status: str  # pass | fail | error
    trials: int | None
    detail: str | None
    error: dict | None  # {"type", "message", "expected"}
    artifacts: dict
    wall_time: float

    @property
    def ok(self) -> bool:
        return self.status == "pass" or (
            self.status == "error" and bool(self.error and self.error["expected"])
        )


def _scenario_rng(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}/{name}".encode()).hexdigest()
    return random.Random(int(digest[:16], 16))


def _trials(family: Family, sc: Scenario, rng: random.Random, trials: int) -> dict:
    """Run ``trials`` trials of the family's check and collect the artifacts."""
    artifacts = {"trials": trials, **family.extra}
    if family.tally is not None:
        artifacts[family.tally] = 0
    for k in range(trials):
        try:
            result = family.check(sc, rng)
        except _CheckFailure as failure:
            raise failure.in_trial(k) from None
        if family.tally is not None:
            artifacts[family.tally] += bool(result)
        elif result is not None:
            artifacts.setdefault("first_instance", result)
    return artifacts


def run(scenario: Scenario, seed: int, trials_override: int | None = None) -> Report:
    """Run one scenario and return its report."""
    rng = _scenario_rng(seed, scenario.name)
    started = time.perf_counter()
    family = None if scenario.kind == "lattice-identity" else _FAMILIES[scenario.family]
    trials = None
    if family is not None and family.randomized:
        trials = trials_override or scenario.trials or DEFAULT_TRIALS

    expected_error = scenario.expect.get("error")
    status, detail, error, artifacts = "pass", None, None, {}
    try:
        if family is None:
            artifacts = _run_lattice(scenario)
        elif trials is None:
            artifacts = family.check(scenario, rng)
        else:
            artifacts = _trials(family, scenario, rng, trials)
    except _CheckFailure as failure:
        status, detail = "fail", str(failure)
        artifacts = failure.details
    except Exception as exc:  # module errors become per-scenario reports
        status = "error"
        error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "expected": type(exc).__name__ == expected_error,
        }
    else:
        if expected_error is not None:
            status = "fail"
            detail = f"expected error {expected_error} but the run completed"
    wall = time.perf_counter() - started
    return Report(
        name=scenario.name,
        kind=scenario.kind,
        family=scenario.family,
        status=status,
        trials=trials,
        detail=detail,
        error=error,
        artifacts=artifacts or {},
        wall_time=wall,
    )


def run_suite(
    scenarios: list[Scenario], seed: int, trials_override: int | None = None
) -> list[Report]:
    ordered = sorted(scenarios, key=lambda sc: sc.name)
    return [run(sc, seed, trials_override) for sc in ordered]


def _counts(reports: list[Report]) -> dict[str, int]:
    statuses = ("pass", "fail", "error")
    return {s: sum(1 for r in reports if r.status == s) for s in statuses}


def emit_json(reports: list[Report], seed: int) -> str:
    """Byte-stable JSON report: no timing data, sorted keys."""
    payload = {
        "schema_version": 1,
        "seed": seed,
        "counts": _counts(reports),
        "ok": all(r.ok for r in reports),
        "scenarios": [
            {
                "name": r.name,
                "kind": r.kind,
                "family": r.family,
                "status": r.status,
                "trials": r.trials,
                "detail": r.detail,
                "error": r.error,
                "artifacts": r.artifacts,
            }
            for r in reports
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render_columns(rows: list[list[str]], indent: str) -> list[str]:
    if not rows:
        return []
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return [
        indent + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]


def emit_text(reports: list[Report], seed: int) -> str:
    lines = [f"ellsurf verify: {len(reports)} scenarios, seed {seed}"]
    rows = []
    for r in reports:
        mark = r.status
        if r.status == "error" and r.error and r.error["expected"]:
            mark = "error*"
        note = ""
        if r.trials is not None:
            note = f"trials {r.trials}"
        rows.append(
            [
                f"[{mark}]",
                r.name,
                r.kind,
                note,
                f"{1000 * r.wall_time:.1f} ms",
            ]
        )
    lines.extend(_render_columns(rows, "  "))
    lines.append("")

    for r in reports:
        extras = []
        if r.detail:
            extras.append(f"detail: {r.detail}")
        if r.error is not None:
            qualifier = "expected" if r.error["expected"] else "unexpected"
            extras.append(
                f"{qualifier} error {r.error['type']}: {r.error['message']}"
            )
        table = (r.artifacts or {}).get("first_instance")
        places = table.get("places") if isinstance(table, dict) else None
        if r.artifacts.get("fiber_table"):
            places = r.artifacts["fiber_table"]
        if extras or places:
            lines.append(f"{r.name}:")
            for extra in extras:
                lines.append(f"  {extra}")
            if places:
                header = ["place", "v(c4)", "v(c6)", "v(delta)", "type", "count"]
                body = [
                    [
                        p["factor"],
                        "-" if p["v_c4"] is None else str(p["v_c4"]),
                        "-" if p["v_c6"] is None else str(p["v_c6"]),
                        str(p["v_delta"]),
                        p["type"],
                        str(p["count"]),
                    ]
                    for p in places
                ]
                lines.extend(_render_columns([header] + body, "  "))
            lines.append("")

    counts = _counts(reports)
    total = sum(r.wall_time for r in reports)
    lines.append(
        f"{counts['pass']} passed, {counts['fail']} failed, {counts['error']} errors"
        f" in {total:.2f} s"
    )
    lines.append("ok" if all(r.ok for r in reports) else "NOT OK")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _collect(args) -> list[Scenario]:
    chosen: list[Scenario] = []
    if args.all or args.filter:
        bundled = bundled_scenarios()
        if args.filter:
            bundled = [
                sc for sc in bundled if fnmatch.fnmatchcase(sc.name, args.filter)
            ]
        chosen.extend(bundled)
    for path in args.scenario or ():
        chosen.append(load_scenario(path))
    names = [sc.name for sc in chosen]
    for name in names:
        if names.count(name) > 1:
            raise ParseError(f"duplicate scenario name {name!r}", 1, 1)
    return chosen


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ellsurf",
        description="scenario-driven verification of the ellsurf toolkit",
    )
    sub = parser.add_subparsers(dest="command")
    verify = sub.add_parser("verify", help="run verification scenarios")
    verify.add_argument("--all", action="store_true", help="run every bundled scenario")
    verify.add_argument(
        "--scenario",
        action="append",
        metavar="PATH",
        help="run a scenario file (repeatable)",
    )
    verify.add_argument(
        "--filter", metavar="GLOB", help="run bundled scenarios matching a glob"
    )
    verify.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    verify.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    verify.add_argument(
        "--trials", type=int, help="override the trial count of randomized scenarios"
    )

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command != "verify":
        parser.print_usage(sys.stderr)
        return 2
    if not (args.all or args.scenario or args.filter):
        print("error: select scenarios with --all, --scenario or --filter", file=sys.stderr)
        return 2
    if args.trials is not None and args.trials < 1:
        print("error: --trials must be positive", file=sys.stderr)
        return 2
    if args.trials is not None and args.trials > MAX_TRIALS:
        print(f"error: --trials above {MAX_TRIALS}", file=sys.stderr)
        return 2

    try:
        scenarios = _collect(args)
    except (ParseError, DegreeMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not scenarios:
        print("error: the selection matched no scenarios", file=sys.stderr)
        return 2

    reports = run_suite(scenarios, args.seed, args.trials)
    if args.format == "json":
        sys.stdout.write(emit_json(reports, args.seed))
    else:
        sys.stdout.write(emit_text(reports, args.seed))
    return 0 if all(r.ok for r in reports) else 1


def _frs(values) -> list[str]:
    return [str(v) for v in values]


if __name__ == "__main__":
    sys.exit(main())
