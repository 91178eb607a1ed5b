"""Scenario text: the one module that turns it into values.

A scenario is a small text file that declares one check: its ``kind``, a
verification ``family``, named inputs (binary forms, rationals, quartic
curves, or lattice expressions), an optional trial count for randomized
families (refused for any other scenario), and ``expect`` lines.  A file
must be UTF-8 text; any other is refused at its first bad byte.  The
parser collects the expectations into one map, :attr:`Scenario.expect`;
``_KINDS`` states which expectations each kind takes, and every scenario
may expect a named error instead.  Validation reads ``_FAMILIES``, which
``cli`` fills as the package's ``__init__`` imports it.

Text is read in one place each: ``parse_rational``, ``parse_hompoly``,
``parse_kodaira_type`` and the directives here.  A declared degree is at
most ``MAX_POLY_DEGREE``, as is one read off the terms, and every other
number passes one digit rule, :func:`_over_digit_cap`, so a short text
never asks for a huge integer or coefficient list.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from math import prod
from typing import Callable

from . import lattice as la
from .elliptic import KodairaType
from .exactpoly import DegreeMismatch, HomPoly
from .hermite_aj import QuarticCurve
from .lattice import MAX_LATTICE_RANK

# the most trials a scenario line or --trials may ask for, far above the
# largest bundled count (200), so that a long digit string cannot ask for a
# run that never ends
MAX_TRIALS = 10_000

# the most digits a lattice determinant may have, as Python prints no longer
# int (fewer under a lower int-string limit).  A term is refused when Hadamard's
# bound, |det|^2 <= the product of the rows' squared lengths, reaches it.
MAX_DET_DIGITS = sys.int_info.default_max_str_digits

# the most digits a number in polynomial or scenario text may have, so that
# a long digit string is refused with its column: Python refuses to read an
# integer of more than 4 300 digits with a bare ValueError
MAX_DIGITS = 1000

# the largest degree of a form read from text, so that "s^10000000" or
# "deg 100000" cannot ask for a huge coefficient list; every bundled poly
# declares 4 or 8, and the largest form the paper uses, a K3 surface's
# discriminant, has degree 24
MAX_POLY_DEGREE = 48

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>[0-9]+(?:/[0-9]+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))"
)
_RATIONAL_RE = re.compile(r"-?([0-9]+)(?:/(0*[1-9][0-9]*))?")


class ParseError(ValueError):
    """Text could not be parsed; carries 1-based ``line`` and ``col``."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class NotHomogeneous(ParseError):
    """Form text whose terms do not share one total degree, or whose degree
    is not the declared one."""


def _over_digit_cap(*numbers: str) -> int | None:
    """The digit rule for every number read from text: the cap, ``MAX_DIGITS``
    or the interpreter's int-string limit if lower (0 is none), if a digit
    string in ``numbers`` is longer, else None."""
    cap = min(MAX_DIGITS, sys.get_int_max_str_digits() or MAX_DIGITS)
    return cap if any(len(number) > cap for number in numbers) else None


def parse_rational(text: str, line: int = 1, col: int = 1) -> Fraction:
    """A rational ``-?n`` or ``-?n/d`` in digits with d > 0, like ``-3/4``,
    each part under the digit rule; ``line`` and ``col`` place the first
    character of ``text``, and an error names the column of the number."""
    value, at = text.strip(), col + len(text) - len(text.lstrip())
    m = _RATIONAL_RE.fullmatch(value)
    if m is None:
        raise ParseError(f"bad rational {value!r}: expected n or n/d in digits, d > 0", line, at)
    if (cap := _over_digit_cap(*m.groups(""))) is not None:
        raise ParseError(f"rational with more than {cap} digits", line, at)
    return Fraction(value)


def parse_hompoly(
    text: str,
    vars: tuple[str, str],
    degree: int | None = None,
    line: int = 1,
    col: int = 1,
) -> HomPoly:
    """Parse a term-sum like ``3*s^2 - 2*s*t + t^2`` into a binary form.

    Every term must use only the two declared variables and all terms must
    share one total degree (which must equal ``degree`` when given).
    ``0`` parses to the zero form and needs an explicit ``degree``.  A
    degree above ``MAX_POLY_DEGREE``, declared or read off the terms, is
    refused before any coefficient list is built.
    ``line`` and ``col`` place the first character of ``text`` in its
    source; errors report positions relative to them.
    """
    if degree is not None and degree > MAX_POLY_DEGREE:
        raise ParseError(f"degree above {MAX_POLY_DEGREE}", line, col)
    terms = _parse_terms(text, set(vars), line, col - 1)
    degrees = {sum(e for _v, e in powers) for _c, powers in terms}
    if len(terms) == 1 and terms[0][0] == 0:
        if degree is None:
            raise ParseError("zero form needs an explicit degree", line, col)
        return HomPoly.zero(vars, degree)
    if len(degrees) != 1:
        raise NotHomogeneous(
            f"terms are not homogeneous (total degrees {sorted(degrees)})", line, col
        )
    d = degrees.pop()
    if degree is not None and degree != d:
        raise NotHomogeneous(f"declared degree {degree} but terms have degree {d}", line, col)
    if d > MAX_POLY_DEGREE:
        raise ParseError(f"terms of degree above {MAX_POLY_DEGREE}", line, col)
    coeffs = [Fraction(0)] * (d + 1)
    for c, powers in terms:
        es = {v: 0 for v in vars}
        for v, e in powers:
            es[v] += e
        coeffs[es[vars[1]]] += c
    return HomPoly.of(vars, coeffs)


def _parse_terms(
    text: str, allowed: set[str], line: int, offset: int
) -> list[tuple[Fraction, list[tuple[str, int]]]]:
    """The signed terms of ``text``, never empty; ``offset`` is added to
    every reported column."""
    pos = 0
    terms: list[tuple[Fraction, list[tuple[str, int]]]] = []
    sign = 1
    sign_col = 0
    current_coeff: Fraction | None = None
    current_pows: list[tuple[str, int]] = []
    started = False

    def fail(message: str, col: int) -> ParseError:
        return ParseError(message, line, offset + col)

    def check_digits(token: str, col: int) -> None:
        if (cap := _over_digit_cap(*token.split("/"))) is not None:
            raise fail(f"number with more than {cap} digits", col)

    def flush() -> None:
        nonlocal sign, current_coeff, current_pows, started
        c = current_coeff if current_coeff is not None else Fraction(1)
        terms.append((sign * c, current_pows))
        sign = 1
        current_coeff = None
        current_pows = []
        started = False

    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            if text[pos:].strip() == "":
                break
            bad = len(text) - len(text[pos:].lstrip())
            raise fail(f"unexpected character {text[bad]!r}", bad + 1)
        col = m.start(m.lastgroup) + 1 if m.lastgroup else m.start() + 1
        pos = m.end()
        if m.group("num"):
            check_digits(m.group("num"), col)
            try:
                val = Fraction(m.group("num"))
            except ZeroDivisionError:
                raise fail(f"zero denominator in {m.group('num')!r}", col) from None
            if current_coeff is None:
                current_coeff = val
            else:
                current_coeff *= val
            started = True
        elif m.group("name"):
            name = m.group("name")
            if name not in allowed:
                raise fail(f"unknown variable {name!r}", col)
            exp = 1
            m2 = _TOKEN_RE.match(text, pos)
            if m2 and m2.group("op") == "^":
                pos = m2.end()
                m3 = _TOKEN_RE.match(text, pos)
                if not m3 or not m3.group("num") or "/" in m3.group("num"):
                    raise fail("exponent must be a nonnegative integer", m2.start("op") + 1)
                check_digits(m3.group("num"), m3.start("num") + 1)
                exp = int(m3.group("num"))
                pos = m3.end()
            current_pows.append((name, exp))
            started = True
        else:
            op = m.group("op")
            if op in "+-":
                if started:
                    flush()
                if op == "-":
                    sign = -sign
                sign_col = col
            elif op == "*":
                if not started:
                    raise fail("'*' needs a left operand", col)
            else:
                raise fail(f"unsupported operator {op!r}", col)
    if started:
        flush()
    elif not terms:
        raise fail("empty polynomial text", 1)
    else:
        # the text ends in a '+' or '-' with no term after it
        raise fail("dangling sign", sign_col)
    return terms


def parse_kodaira_type(text: str) -> KodairaType:
    """The fiber type of a label like ``I3``, ``I0*`` or ``IV*``; any other
    label raises ``ParseError``."""
    t = text.strip()
    if t in ("II", "III", "IV", "II*", "III*", "IV*"):
        return KodairaType(t)
    star = t.endswith("*")
    body = t[:-1] if star else t
    index = body[1:] if body.startswith("I") else ""
    if index.isascii() and index.isdigit() and _over_digit_cap(index) is None:
        return KodairaType("I*" if star else "I", int(index))
    raise ParseError(f"unrecognized fiber label {text!r}")


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


@dataclass(frozen=True)
class Family:
    """One scenario family, declared next to its check with :func:`_family`.

    ``check(sc, rng)`` runs one trial: it raises ``_CheckFailure`` or
    returns the trial's witness, kept from the first trial as
    ``first_instance`` (or, when ``tally`` names an artifact, counted over
    the trials that return true).  A witness may come as a zero-argument
    callable that renders it; only the kept one is called.  A family that
    is not ``randomized`` runs its check once and the check returns every
    artifact.  ``inputs`` maps each input the check reads to its directive,
    ``constraint`` is a (predicate, message) pair the inputs must meet, and
    ``extra`` holds fixed artifacts.
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
    r"(?P<v2>[A-Za-z_]\w*)\s+deg\s+(?P<deg>[0-9]+)\s*=\s*(?P<expr>.+)$"
)
_ASSIGN_RE = re.compile(r"^\w+\s+(?P<name>\w+)\s*=\s*(?P<expr>.+)$")
_FIBER_ITEM_RE = re.compile(r"^\s*([0-9]+)\s*\*\s*([IV0-9*]+)\s*$")
_LATTICE_TERM_RE = re.compile(
    r"\s*(?P<atom><-?2>|[A-Z][A-Za-z0-9]*)\s*"
    r"(?:\(\s*(?P<scale>-?[0-9]+)\s*\))?\s*(?:\^\s*(?P<power>[0-9]+))?\s*$"
)
_ROOT_INDEX_RE = re.compile(r"[AD]([0-9]+)")
_INT_RE = re.compile(r"[+-]?[0-9]+")


def _parse_int(text: str, line: int, col: int, what: str) -> int:
    """An integer ``[+-]?[0-9]+`` under the digit rule; ``col`` is the
    column of the text's first character."""
    at = col + len(text) - len(text.lstrip())
    value = text.strip()
    if (cap := _over_digit_cap(value.lstrip("+-"))) is not None:
        raise ParseError(f"{what} has more than {cap} digits", line, at)
    if not _INT_RE.fullmatch(value):
        raise ParseError(f"{what} must be an integer, got {value!r}", line, at)
    return int(value)


def _parse_lattice_expr(text: str, line: int, col: int) -> la.GramLattice:
    """A sum of lattice terms; ``col`` is the column of the text's first
    character, so an error names the column of its term."""
    summands: list[la.GramLattice] = []
    offset = 0
    rank = 0
    hadamard = 1
    too_large = f"lattice rank above {MAX_LATTICE_RANK}"
    det_digits = min(MAX_DET_DIGITS, sys.get_int_max_str_digits() or MAX_DET_DIGITS)
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
        hadamard *= prod(sum(x * x for x in row) for row in base.gram) ** power
        # 2^(6.64 d) < 10^(2 d): a shorter bound needs no power of ten
        if hadamard.bit_length() > 6.64 * det_digits and hadamard >= 10 ** (2 * det_digits):
            raise ParseError(f"lattice determinant may exceed {det_digits} digits", line, at)
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
            label = parse_kodaira_type(text_label).label
        except ParseError:
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
    degree = m.group("deg").lstrip("0") or "0"  # int() refuses a long digit string
    if len(degree) > len(str(MAX_POLY_DEGREE)) or int(degree) > MAX_POLY_DEGREE:
        raise ParseError(f"poly degree above {MAX_POLY_DEGREE}", line, col + m.start("deg"))
    try:
        return parse_hompoly(expr, vars, int(degree), line=line, col=at)
    except NotHomogeneous as exc:
        raise DegreeMismatch(f"{source}:{line}: {exc}") from None


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
        if sc.trials is not None:
            raise bad("lattice-identity scenarios take no trials line")
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
    if sc.trials is not None and not fam.randomized:
        raise bad(f"family {sc.family!r} runs no trials and takes no trials line")
    for name, directive in fam.inputs.items():
        if name not in getattr(sc, _INPUTS[directive][0]):
            raise bad(f"family {sc.family!r} needs {directive} {name!r}")
    if fam.constraint is not None and not fam.constraint[0](sc):
        raise bad(fam.constraint[1])


def load_scenario(path: str) -> Scenario:
    """Parse the scenario file at ``path``; a file that is not UTF-8 text
    is a :class:`ParseError` at its first bad byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines as parse_scenario counts them, the last ending at the bad byte
        lines = (data[: exc.start].decode("utf-8") + "\ufffd").splitlines()
        message = f"{path}: not UTF-8 text (byte 0x{data[exc.start]:02x})"
        raise ParseError(message, len(lines), len(lines[-1])) from None
    return parse_scenario(text, source=path)


def bundled_scenarios() -> list[Scenario]:
    """All scenarios shipped inside the package, sorted by name."""
    root = resources.files(__package__).joinpath("scenarios")
    out = []
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".scn"):
            out.append(parse_scenario(entry.read_text("utf-8"), source=entry.name))
    return sorted(out, key=lambda sc: sc.name)
