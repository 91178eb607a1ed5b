"""Tests for the scenario harness and command-line entry point.

Covers the scenario grammar (including error positions), the bundled
corpus, report statuses and exit codes, the byte-stability of the JSON
emitter, pinned report digests of every bundled scenario, the sampler
draw budget, and the expected-error convention.
"""

import collections
import contextlib
import hashlib
import io
import json
import re
import time

from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corpus import affine
from ellsurf import cli, elliptic, exactpoly, hermite_aj
from ellsurf import lattice as la
from ellsurf import duality as du
from ellsurf.elliptic import DegenerateModel, invariants
from ellsurf.exactpoly import (
    DegreeMismatch,
    HomPoly,
    ParseError,
    UniPoly,
    divexact_form,
    homogenize,
    is_separable,
)


def parse(text: str, source: str = "inline.scn") -> cli.Scenario:
    return cli.parse_scenario(text, source)


def call_main(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


LATTICE_PAIR = """
name tiny-pair
kind lattice-identity
lattice first = H + E8(-2)
lattice second = H(2) + N
expect match
"""

FIBER_SMALL = """
name tiny-base
kind fiber-config
family rational-base
trials 2
expect fibers 12*I1
expect euler 12
"""


# ---------------------------------------------------------------------------
# grammar


def test_parse_full_scenario_fields():
    sc = parse(
        """
        # leading comment and blank lines are ignored

        name demo-check
        kind fiber-config
        family torsion-pair   # trailing comment
        trials 5
        expect fibers 8*I1 + 8*I2
        expect euler 24
        """
    )
    assert sc.name == "demo-check"
    assert sc.kind == "fiber-config"
    assert sc.family == "torsion-pair"
    assert sc.trials == 5
    assert sc.expect["fibers"] == {"I1": 8, "I2": 8}
    assert sc.expect["euler"] == 24


def test_parse_polynomial_inputs():
    sc = parse(
        """
        name explicit-pair
        kind fiber-config
        family alternate-pair
        poly trace on s,t deg 4 = s^4
        poly norm on s,t deg 8 = s^8 - t^8
        expect fibers 8*I1 + 8*I2
        """
    )
    assert sorted(sc.polys) == ["norm", "trace"]
    assert sc.polys["trace"].degree == 4
    assert sc.polys["norm"].degree == 8
    assert sc.polys["norm"].vars == ("s", "t")


def test_parse_rationals_and_quartic():
    sc = parse(
        """
        name anchor
        kind hermite-identity
        family pointwise-map-anchor
        quartic curve = 1, 2, 0, 0, 1
        rat base_x = 0
        rat base_w = -1
        rat point_x = 1
        rat point_w = 2
        rat image_xi = 0
        rat image_eta = -2
        expect pass
        """
    )
    assert sc.quartics["curve"].coeffs[0] == 1
    assert sc.quartics["curve"].coeffs[4] == 1
    assert sc.rats["image_eta"] == -2


def test_parse_lattice_expressions():
    sc = parse(
        """
        name profile
        kind lattice-identity
        lattice a = <2> + <-2> + D4(-1)^3
        expect det 64
        expect even
        """
    )
    lat = sc.lattices["a"]
    assert lat.rank == 14
    assert sc.expect["det"] == 64


def test_parse_error_positions():
    with pytest.raises(ParseError, match=r"line 2, col 1"):
        parse("name ok\nbogus directive\n")
    with pytest.raises(ParseError, match="unknown directive"):
        parse("name ok\nbogus directive\n")


def test_poly_term_errors_report_the_column_in_the_scenario_line():
    head = "name x\nkind fiber-config\nfamily alternate-pair\n"
    with pytest.raises(ParseError, match="zero denominator") as err:
        parse(head + "poly trace on s,t deg 4 = s^4 + 1/0*t^4\n")
    assert (err.value.line, err.value.col) == (4, 33)
    # an indented line shifts the column by its indentation
    with pytest.raises(ParseError, match="unknown variable 'w'") as err:
        parse(head + "  poly trace on s,t deg 4 = s^4 + w*t^3\n")
    assert (err.value.line, err.value.col) == (4, 35)


@pytest.mark.parametrize(
    "line, message, col",
    [
        ("lattice a = H + E7", "no lattice named 'E7'", 17),
        ("  lattice a = H + E8(0)", "lattice scale must be nonzero", 19),
        ("lattice a = H + E8(-2)^0", "lattice power must be positive", 17),
        ("lattice a = H +", "bad lattice term ''", 16),
        ("lattice a = H + + E8", "bad lattice term ''", 17),
        ("lattice a = H+E8(2", "bad lattice term 'E8\\(2'", 15),
    ],
)
def test_lattice_term_errors_report_the_column_in_the_scenario_line(line, message, col):
    head = "name x\nkind lattice-identity\n"
    with pytest.raises(ParseError, match=message) as err:
        parse(head + line + "\nexpect det -1\n")
    assert (err.value.line, err.value.col) == (3, col)


@pytest.mark.parametrize("deg", ["49", "100000", "1000000000", "0" * 9 + "49", "9" * 5000])
def test_poly_degrees_above_48_are_refused_at_their_column(deg):
    # refused before any coefficient list is built, even for a zero form
    head = "name x\nkind fiber-config\nfamily rational-base\n"
    with pytest.raises(ParseError, match="poly degree above 48") as err:
        parse(head + f"  poly junk on s,t deg {deg} = 0\n")
    assert (err.value.line, err.value.col) == (4, 24)


@pytest.mark.parametrize("deg", ["48", "0048"])
def test_poly_of_degree_48_parses(deg):
    body = f"poly junk on s,t deg {deg} = s^48 - t^48\nexpect fibers 12*I1"
    sc = parse(minimal_scenario("fiber-config", body))
    assert sc.polys["junk"].degree == 48


@pytest.mark.parametrize(
    "expr, col", [("A65", 13), ("A33^2", 13), ("A2^33", 13), ("H + A63", 17)]
)
def test_lattice_expressions_above_rank_64_are_refused_at_their_term(expr, col):
    head = "name x\nkind lattice-identity\n"
    with pytest.raises(ParseError, match="lattice rank above 64") as err:
        parse(head + f"lattice a = {expr}\nexpect det -1\n")
    assert (err.value.line, err.value.col) == (3, col)


@pytest.mark.parametrize("expr", ["A64", "A32^2"])
def test_lattice_expressions_of_rank_64_parse(expr):
    sc = parse(f"name x\nkind lattice-identity\nlattice a = {expr}\nexpect det -1\n")
    assert sc.lattices["a"].rank == 64


FIVE_THOUSAND_NINES = "9" * 5000
LATTICE_HEAD = "name x\nkind lattice-identity\n"
FIBER_HEAD = "name x\nkind fiber-config\nfamily rational-base\n"


@pytest.mark.parametrize(
    "head, line, message, col",
    [
        (LATTICE_HEAD, f"lattice a = A{FIVE_THOUSAND_NINES}", "root index", 13),
        (LATTICE_HEAD, f"lattice a = H + A1(-{FIVE_THOUSAND_NINES})", "lattice scale", 17),
        (LATTICE_HEAD, f"lattice a = A1^{FIVE_THOUSAND_NINES}", "lattice power", 13),
        (FIBER_HEAD, f"expect fibers 2*I2 + {FIVE_THOUSAND_NINES}*I1", "fiber count", 22),
        (FIBER_HEAD, f"trials {FIVE_THOUSAND_NINES}", "trials", 8),
        (FIBER_HEAD, f"poly f on s,t deg 4 = s^{FIVE_THOUSAND_NINES}", "number", 25),
        (FIBER_HEAD, f"poly f on s,t deg 4 = {FIVE_THOUSAND_NINES}*s^4", "number", 23),
        (FIBER_HEAD, f"poly f on s,t deg 4 = s^4 + 1/{FIVE_THOUSAND_NINES}*t^4", "number", 29),
        (FIBER_HEAD, f"rat level = -{FIVE_THOUSAND_NINES}", "rational", 13),
        (FIBER_HEAD, f"quartic q = 1, 2, 3, 4, 1/{FIVE_THOUSAND_NINES}", "rational", 25),
    ],
    ids=[
        "root-index", "lattice-scale", "lattice-power", "fiber-count", "trials",
        "poly-exponent", "poly-numerator", "poly-denominator", "rat", "quartic",
    ],
)
def test_integers_of_5000_digits_are_refused_at_their_column(head, line, message, col):
    # Python refuses to read an int of more than 4 300 digits with a bare
    # ValueError; the grammar refuses one of more than 1 000 first
    lineno = head.count("\n") + 1
    with pytest.raises(ParseError, match=f"{message} .*more than 1000 digits") as err:
        parse(head + line + "\nexpect det -1\n")
    assert (err.value.line, err.value.col) == (lineno, col)


def test_integers_of_1000_digits_parse():
    big = "7" * 1000
    sc = parse(LATTICE_HEAD + f"lattice a = A1({big})\nexpect det -1\n")
    assert sc.lattices["a"].gram == ((2 * int(big),),)
    body = f"poly f on s,t deg 4 = {big}*s^4 - 1/{big}*t^4\nexpect fibers {big}*I1"
    sc = parse(minimal_scenario("fiber-config", body))
    assert sc.polys["f"].coeffs == (int(big), 0, 0, 0, -Fraction(1, int(big)))
    assert sc.expect["fibers"] == {"I1": int(big)}


def test_trials_above_10000_are_refused():
    assert parse(FIBER_HEAD + "trials 10000\nexpect fibers 12*I1\n").trials == 10000
    with pytest.raises(ParseError, match="trials above 10000") as err:
        parse(FIBER_HEAD + "trials 10001\nexpect fibers 12*I1\n")
    assert (err.value.line, err.value.col) == (4, 8)
    for trials in ("10001", FIVE_THOUSAND_NINES):
        code, out, err = call_main(["verify", "--all", "--trials", trials])
        assert code == 2 and not out and "--trials" in err


def test_parse_error_duplicate_key():
    with pytest.raises(ParseError, match="duplicate"):
        parse("name one\nname two\nkind fiber-config\n")


def test_parse_error_bad_kind():
    with pytest.raises(ParseError, match="kind"):
        parse("name x\nkind sideways\n")


def test_parse_error_bad_scenario_name():
    with pytest.raises(ParseError):
        parse("name Bad_Name\nkind fiber-config\n")


def test_parse_error_bad_fiber_label():
    with pytest.raises(ParseError) as err:
        parse(
            "name x\nkind fiber-config\nfamily rational-base\n"
            "expect fibers 3*I1 + 2*XYZ\n"
        )
    assert (err.value.line, err.value.col) == (4, 22)


def test_parse_error_duplicate_fiber_label():
    with pytest.raises(ParseError) as err:
        parse(
            "name x\nkind fiber-config\nfamily rational-base\n"
            "expect fibers 3*I1 + 2*I1\n"
        )
    assert (err.value.line, err.value.col) == (4, 22)


@pytest.mark.parametrize(
    "line, message, col",
    [
        ("expect fibers 12*I1 + 0*I2", "fiber counts must be positive", 23),
        ("expect fibers 12*I1 + 2*I1", "fiber label I1 listed twice", 23),
        ("trials x", "trials must be an integer", 8),
        ("expect euler zz", "euler number must be an integer", 14),
        ("expect parity 3", "parity must be 0 or 1", 15),
        ("expect signature 1,x", "signature entry must be an integer", 20),
        ("rat level = 1/0", "bad rational '1/0'", 13),
        ("rat level = 1e50", "bad rational '1e50'", 13),
        ("rat level =  1_000", "bad rational '1_000'", 14),
        ("quartic q = 1, 2, x, 4, 5", "bad rational 'x'", 19),
        ("quartic q = 1e3, 2.5, 0, 0, 1", "bad rational '1e3'", 13),
        ("quartic q = 1, 2.5, 0, 0, 1", "bad rational '2.5'", 16),
        ("  poly f on s t = 3", "expected 'poly <name>", 3),
        ("  quartic q = 1, 2", "quartic expects five", 3),
        # numbers are ASCII digits 0-9, with no underscores, in every directive
        ("trials 1_0", "trials must be an integer", 8),
        ("trials \u0663", "trials must be an integer", 8),
        ("rat level = \u0663", "bad rational '\u0663'", 13),
        ("quartic q = 1, \u0663, 0, 0, 1", "bad rational '\u0663'", 16),
        ("poly f on s,t deg 4 = \u0663*s^4 + t^4", "unexpected character '\u0663'", 23),
        ("poly f on s,t deg \u0664 = s^4 + t^4", "expected 'poly <name>", 1),
        ("lattice L = H(\u0663)", "bad lattice term", 13),
        ("lattice L = H + E8^\u0663", "bad lattice term", 17),
        ("expect fibers \u0663*I1", "bad fiber item", 15),
        ("expect euler 1_2", "euler number must be an integer", 14),
        ("expect det \u0663", "det must be an integer", 12),
        ("expect signature \u0663,1", "signature entry must be an integer", 18),
    ],
)
def test_value_errors_report_the_column_in_the_scenario_line(line, message, col):
    head = "name x\nkind fiber-config\nfamily rational-base\n"
    with pytest.raises(ParseError, match=message) as err:
        parse(head + line + "\n")
    assert (err.value.line, err.value.col) == (4, col)


def _grammar_rational(entry: str) -> Fraction | None:
    """A rat or quartic entry read by the grammar: -?n or -?n/d in digits
    with d > 0, at most 1 000 digits a part; None if it is not one."""
    m = re.fullmatch(r"(-?)([0-9]+)(?:/([0-9]+))?", entry.strip())
    if m is None or max(len(part or "") for part in m.groups()) > 1000:
        return None
    den = int(m.group(3) or 1)
    return Fraction(int(m.group(1) + m.group(2)), den) if den else None


# the entries' tokens, near misses and long digit strings
_ENTRY_TOKENS = st.one_of(
    st.sampled_from(["-", "/", ",", " ", "0", "3", ".", "e", "_", "+"]),
    st.integers(1, 1200).map(lambda n: "7" * n),
)


@given(quartic=st.booleans(), tokens=st.lists(_ENTRY_TOKENS, max_size=14))
@example(quartic=False, tokens=["1", "e", "50"])
@example(quartic=True, tokens=["3", ",", " -", "3/7", ",", "0", ",", "0", ",", "7" * 1000])
@example(quartic=True, tokens=["1", ",", "2", ".", "5", ",", "0", ",", "0", ",", "1"])
@example(quartic=False, tokens=["-", "7" * 1000, "/", "3"])
@settings(max_examples=200, deadline=None)
def test_rat_and_quartic_lines_parse_or_raise_a_parse_error(quartic, tokens):
    text = "".join(tokens)
    entries = text.split(",") if quartic else [text]
    want = [_grammar_rational(entry) for entry in entries]
    valid = None not in want and len(want) == (5 if quartic else 1)
    line = f"quartic q = {text}" if quartic else f"rat level = {text}"
    try:
        sc = parse(FIBER_HEAD + line + "\nexpect fibers 12*I1\n")
    except ParseError:
        assert not valid
        return
    assert valid
    got = list(sc.quartics["q"].coeffs) if quartic else [sc.rats["level"]]
    assert got == want


def _grammar_int(entry: str) -> int | None:
    """An integer entry read by the grammar: [+-]?[0-9]{1,1000} between
    spaces; None if it is not one."""
    m = re.fullmatch(r" *([+-]?[0-9]{1,1000}) *", entry)
    return int(m.group(1)) if m else None


# directive -> (the scenario around its line, the line, how the parsed
# scenario holds the value, how many comma-separated entries it takes,
# and the range of an entry)
_INT_DIRECTIVES = {
    "trials": (FIBER_HEAD + "expect fibers 12*I1\n", "trials ", lambda sc: sc.trials, 1, (1, cli.MAX_TRIALS)),
    "euler": (FIBER_HEAD + "expect fibers 12*I1\n", "expect euler ", lambda sc: sc.expect["euler"], 1, None),
    "det": (LATTICE_HEAD + "lattice a = H\n", "expect det ", lambda sc: sc.expect["det"], 1, None),
    "signature": (
        LATTICE_HEAD + "lattice a = H\n", "expect signature ", lambda sc: sc.expect["signature"], 2, None
    ),
}

# an entry is a sign or near miss, then tokens: the integers' digits,
# digit strings at and over the 1 000-digit cap, and near misses (other
# Unicode digits: Arabic-Indic three, superscript two, fullwidth one)
_INT_PIECES = st.sampled_from(
    ["0", "1", "3"] * 4 + ["7" * 1000, "7" * 1001]
    + ["-", "+", " ", ".", "_", "\u0663", "\u00b2", "\uff11"]
)
_INT_ENTRY = st.tuples(
    st.sampled_from(["", "", "", "-", "+", " ", "+-"]), st.lists(_INT_PIECES, min_size=1, max_size=3)
).map(lambda parts: parts[0] + "".join(parts[1]))
_INT_TEXT = st.one_of(_INT_ENTRY, st.lists(_INT_ENTRY, min_size=2, max_size=3).map(",".join))


@given(directive=st.sampled_from(sorted(_INT_DIRECTIVES)), text=_INT_TEXT)
@example(directive="trials", text="10000")
@example(directive="trials", text="10001")
@example(directive="trials", text="-0")
@example(directive="euler", text="+" + "7" * 1000)
@example(directive="det", text="-" + "7" * 1001)
@example(directive="det", text="1_0")
@example(directive="signature", text=" 3 ,-1")
@example(directive="signature", text="\u0663,1")
@example(directive="trials", text=" +0031 ")
@settings(max_examples=300, deadline=None)
def test_integer_directives_parse_or_raise_a_parse_error(directive, text):
    around, head, read, entries, bounds = _INT_DIRECTIVES[directive]
    want = [_grammar_int(entry) for entry in text.split(",")]
    valid = None not in want and len(want) == entries
    if valid and bounds is not None:
        valid = all(bounds[0] <= value <= bounds[1] for value in want)
    try:
        sc = parse(around + head + text + "\n")
    except ParseError:
        assert not valid
        return
    assert valid
    got = read(sc)
    assert (list(got) if entries > 1 else [got]) == want


def _grammar_root_term(text: str) -> tuple[str, int, int, int] | None:
    """A root-lattice term read by the grammar: A or D, an index, an
    optional (scale) and ^power, each [0-9]{1,1000} (the scale with an
    optional minus), spaces around the brackets and the caret, a nonzero
    scale and a rank from 1 to 64; (letter, index, scale, power), or None
    if it is not one."""
    m = re.fullmatch(
        r"([AD])([0-9]{1,1000}) *(?:\( *(-?[0-9]{1,1000}) *\) *)?(?:\^ *([0-9]{1,1000}) *)?", text
    )
    if m is None:
        return None
    letter, index, scale, power = m.group(1), int(m.group(2)), int(m.group(3) or 1), int(m.group(4) or 1)
    smallest = 1 if letter == "A" else 2
    if index < smallest or scale == 0 or power < 1 or index * power > 64:
        return None
    # Hadamard's bound on the determinant, |det|^2 <= the product of the
    # rows' squared lengths, stays below 4 300 digits
    block = la.rescale(la.standard_lattice(f"{letter}{index}"), scale)
    if prod(sum(x * x for x in row) for row in block.gram) ** power >= 10 ** 8600:
        return None
    return letter, index, scale, power


@given(
    letter=st.sampled_from("AD"),
    index=_INT_ENTRY,
    scale=st.none() | _INT_ENTRY,
    power=st.none() | _INT_ENTRY,
)
@example(letter="A", index="3", scale="-2", power="2")
@example(letter="D", index="0004", scale=None, power=" 016")
@example(letter="A", index="1", scale=" -" + "7" * 1000, power=None)
@example(letter="A", index="1", scale="-" + "7" * 1001, power=None)
@example(letter="D", index="0" * 999 + "3", scale="3", power="0" * 999 + "1")
@example(letter="D", index="0" * 1000 + "3", scale=None, power=None)
@example(letter="A", index="65", scale=None, power=None)
@example(letter="A", index="1", scale=None, power="64")
@example(letter="A", index="1", scale="7" * 1000, power="4")
@example(letter="A", index="1", scale="7" * 1000, power="5")
@example(letter="A", index="1", scale="1_0", power=None)
@example(letter="D", index="\u0663", scale=None, power=None)
@settings(max_examples=300, deadline=None)
def test_lattice_lines_parse_or_raise_a_parse_error(letter, index, scale, power):
    text = letter + index
    text += "" if scale is None else f"({scale})"
    text += "" if power is None else f"^{power}"
    want = _grammar_root_term(text)
    try:
        sc = parse(LATTICE_HEAD + f"lattice a = {text}\nexpect det -1\n")
    except ParseError:
        assert want is None
        return
    assert want is not None
    letter, n, scale_value, times = want
    block = la.rescale(la.standard_lattice(f"{letter}{n}"), scale_value)
    assert sc.lattices["a"] == la.direct_sum(*[block] * times)


_FORM_TOKEN_RE = re.compile(r"[0-9]+(?:/[0-9]+)?|\w+|\S")


@given(
    vars=st.sampled_from([("s", "t"), ("U", "V"), ("x", "h0")]),
    coeffs=st.lists(st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)), min_size=1, max_size=7),
    rng=st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_a_rendered_form_reads_back_through_a_poly_line(vars, coeffs, rng):
    # HomPoly.text() respelled: spaces between its tokens, and a '*' kept
    # or left implicit
    form = HomPoly.of(vars, coeffs)
    text = ""
    for token in _FORM_TOKEN_RE.findall(form.text()):
        if token == "*" and rng.random() < 0.5:
            token = " "
        text += rng.choice(["", " ", "  "]) + token
    line = f"poly f on {vars[0]},{vars[1]} deg {form.degree} = {text}"
    assert parse(FIBER_HEAD + line + "\nexpect fibers 12*I1\n").polys["f"] == form


# tokens of a poly line's terms and near misses: rationals, a zero
# denominator, numbers at and over the 1 000-digit cap, the declared
# names and an undeclared one, the operators, brackets and a stray character
_POLY_PIECES = st.sampled_from(
    ["3", "2/5", "1/0", "7" * 1000, "7" * 1001, "s", "t", "w"]
    + ["^", "*", "+", "-", "(", ")", "$"]
)


@given(pieces=st.lists(st.tuples(st.sampled_from(["", " "]), _POLY_PIECES), min_size=1, max_size=8))
@example(pieces=[("", "3"), ("", "s"), ("", "^"), ("", "4"), (" ", "-"), (" ", "t"), ("", "^"), ("", "4")])
@example(pieces=[("", "s"), ("", "^")])
@example(pieces=[("", "s"), ("", "^"), (" ", "t")])
@example(pieces=[("", "s"), (" ", "+"), ("", "t")])
@settings(max_examples=200, deadline=None)
def test_poly_lines_parse_or_raise_an_error_at_a_column_of_the_line(pieces):
    line = "poly f on s,t deg 4 = " + "".join(space + piece for space, piece in pieces)
    try:
        parse(FIBER_HEAD + line + "\nexpect fibers 12*I1\n")
        return
    except ParseError as exc:
        where = (exc.line, exc.col)
    except DegreeMismatch as exc:  # a NotHomogeneous ParseError, renamed
        where = tuple(int(n) for n in re.search(r"line (\d+), col (\d+)\)$", str(exc)).groups())
    assert where[0] == 4 and 1 <= where[1] <= len(line.rstrip())


def _grammar_fiber_item(text: str) -> tuple[str, int] | None:
    """One fiber item read by the grammar: a count [0-9]{1,1000} of at
    least one, '*', and the label I<n>, with n in [0-9]{1,1000}, or
    I<n>*; spaces around the count and the '*'.  (label, count) with the
    label in its canonical spelling, or None if it is not one."""
    m = re.fullmatch(r" *([0-9]{1,1000}) *\* *I([0-9]{1,1000})(\*?) *", text)
    if m is None or int(m.group(1)) < 1:
        return None
    return f"I{int(m.group(2))}{m.group(3)}", int(m.group(1))


@given(count=_INT_ENTRY, index=_INT_ENTRY, star=st.booleans())
@example(count="3", index="0002", star=True)
@example(count=" " + "7" * 1000, index="0", star=False)
@example(count="7" * 1001, index="1", star=False)
@example(count="1", index="7" * 1000, star=True)
@example(count="1", index="7" * 1001, star=False)
@example(count="0", index="1", star=False)
@example(count="+2", index="1", star=False)
@example(count="2", index="1_0", star=False)
@example(count="2", index="\u00b2", star=True)
@settings(max_examples=300, deadline=None)
def test_fiber_lines_parse_or_raise_a_parse_error(count, index, star):
    text = f"{count}*I{index}" + ("*" if star else "")
    want = _grammar_fiber_item(text)
    try:
        sc = parse(FIBER_HEAD + f"expect fibers {text}\n")
    except ParseError:
        assert want is None
        return
    assert want is not None
    label, value = want
    assert sc.expect["fibers"] == {label: value}


FULL_TORSION_FIBERS = (
    "name full-torsion-alternate-fibers\nkind fiber-config\n"
    "family full-torsion-alternate\ntrials 2\nexpect fibers {}\nexpect euler 24\n"
)


def test_a_fiber_label_is_kept_in_its_canonical_spelling():
    sc = parse(FULL_TORSION_FIBERS.format("12*I02"))
    assert sc.expect["fibers"] == {"I2": 12}
    rep = cli.run(sc, seed=0)
    assert rep.status == "pass", rep.detail


def test_one_fiber_type_under_two_spellings_is_listed_twice():
    with pytest.raises(ParseError, match="fiber label I2 listed twice"):
        parse(FULL_TORSION_FIBERS.format("6*I2 + 6*I02"))


def test_parse_error_unknown_lattice_atom():
    with pytest.raises(ParseError, match="lattice"):
        parse("name x\nkind lattice-identity\nlattice a = Q7\nexpect even\n")


def test_parse_error_zero_lattice_scale():
    with pytest.raises(ParseError):
        parse("name x\nkind lattice-identity\nlattice a = H(0)\nexpect even\n")


def test_degree_mismatch_on_inhomogeneous_poly():
    with pytest.raises(DegreeMismatch, match=r"inline\.scn:4"):
        parse(
            "\nname x\nkind fiber-config\n"
            "poly f on s,t deg 4 = s^4 + t^3\n"
        )


def test_degree_mismatch_on_wrong_declared_degree():
    with pytest.raises(DegreeMismatch):
        parse("name x\nkind fiber-config\npoly f on s,t deg 5 = s^4\n")


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        (FIBER_HEAD + "  expect error 9lives\n", "bad error name '9lives'", 4, 16),
        (FIBER_HEAD + "expect weather sunny\n", "unknown expectation 'weather'", 4, 8),
        (FIBER_HEAD + "  poly f on s,s deg 4 = s^4\n", "the two variables must differ", 4, 3),
        ("kind fiber-config\nfamily rational-base\n", "missing name line", 1, 1),
        ("name x\nfamily rational-base\n", "missing kind line", 1, 1),
        (
            LATTICE_HEAD + "family rational-base\nlattice a = H\nexpect det -1\n",
            "lattice-identity scenarios take no family",
            1,
            1,
        ),
        (LATTICE_HEAD + "expect det -1\n", "lattice-identity needs at least one lattice", 1, 1),
        ("name x\nkind fiber-config\nexpect fibers 12*I1\n", "this kind needs a family line", 1, 1),
    ],
    ids=[
        "error-name", "expectation", "variables", "name-line", "kind-line",
        "lattice-family", "lattice-count", "family-line",
    ],
)
def test_grammar_errors_name_their_line_and_column(text, message, line, col):
    with pytest.raises(ParseError, match=message) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)


def test_a_variable_named_homogeneous_is_an_unknown_variable():
    # the parse error's class picks DegreeMismatch, not words in its message
    with pytest.raises(ParseError, match="unknown variable 'homogeneous'"):
        parse("name x\nkind fiber-config\npoly f on s,t deg 1 = homogeneous\n")


def test_validation_requires_expectation():
    with pytest.raises(ParseError, match="expect"):
        parse("name x\nkind fiber-config\nfamily rational-base\n")


def test_validation_error_excludes_other_expects():
    with pytest.raises(ParseError):
        parse(
            "name x\nkind hermite-identity\nfamily coupling-product\n"
            "expect error SingularCurve\nexpect pass\n"
        )


def test_validation_family_kind_must_agree():
    with pytest.raises(ParseError, match="family"):
        parse(
            "name x\nkind fiber-config\nfamily coupling-product\n"
            "expect fibers 1*I1\n"
        )


def test_validation_unknown_family():
    with pytest.raises(ParseError, match="family"):
        parse("name x\nkind fiber-config\nfamily warp-drive\nexpect fibers 1*I1\n")


def test_validation_lattice_match_needs_two():
    with pytest.raises(ParseError):
        parse("name x\nkind lattice-identity\nlattice a = H\nexpect match\n")


def test_validation_lattice_scenario_refuses_an_euler_expectation():
    with pytest.raises(ParseError, match="takes match/mismatch or invariants"):
        parse("name x\nkind lattice-identity\nlattice a = H\nexpect det -1\nexpect euler 24\n")


def test_validation_lattice_scenario_refuses_a_trials_line():
    # the lattice runner runs no trials, so the line would be ignored
    with pytest.raises(ParseError, match="lattice-identity scenarios take no trials line"):
        parse("name x\nkind lattice-identity\nlattice a = H\ntrials 7\nexpect det -1\n")


# a valid scenario of each family that runs its check once, with no trial loop
UNTRIED_FAMILY_SCENARIOS = {
    "alternate-pair": (
        "kind fiber-config\nfamily alternate-pair\npoly trace on s,t deg 4 = s^4\n"
        "poly norm on s,t deg 8 = s^8 - t^8\nexpect fibers 8*I1 + 8*I2\n"
    ),
    "pointwise-map-anchor": (
        "kind hermite-identity\nfamily pointwise-map-anchor\nquartic curve = 1, 0, 0, 0, 1\n"
        + "".join(f"rat {name} = 1\n" for name in cli._ANCHOR_RATS)
        + "expect pass\n"
    ),
    "quartic-double-cover": (
        "kind hermite-identity\nfamily quartic-double-cover\n"
        + "".join(f"rat {name} = 2\n" for name in cli._DOUBLE_COVER_RATS)
        + "expect pass\n"
    ),
}


def test_the_untried_families_are_those_that_run_no_trial_loop():
    untried = {name for name, fam in cli._FAMILIES.items() if not fam.randomized}
    assert untried == UNTRIED_FAMILY_SCENARIOS.keys()


@pytest.mark.parametrize("family", sorted(UNTRIED_FAMILY_SCENARIOS))
def test_validation_a_family_without_a_trial_loop_refuses_a_trials_line(family):
    text = "name x\n" + UNTRIED_FAMILY_SCENARIOS[family]
    assert parse(text).trials is None
    with pytest.raises(ParseError, match=f"family '{family}' runs no trials"):
        parse(text + "trials 7\n")


def test_validation_star_chain_level_range():
    with pytest.raises(ParseError, match="level"):
        parse(
            "name x\nkind fiber-config\nfamily star-chain\nrat level = 11\n"
            "expect fibers 1*I1\n"
        )


def test_validation_alternate_pair_degrees():
    with pytest.raises(ParseError, match="trace of degree 4"):
        parse(
            "name x\nkind fiber-config\nfamily alternate-pair\n"
            "poly trace on s,t deg 2 = s^2\npoly norm on s,t deg 8 = s^8\n"
            "expect fibers 8*I1 + 8*I2\n"
        )


def test_validation_missing_named_inputs():
    with pytest.raises(ParseError, match="norm"):
        parse(
            "name x\nkind fiber-config\nfamily alternate-pair\n"
            "poly trace on s,t deg 4 = s^4\nexpect fibers 8*I1 + 8*I2\n"
        )


# one well-formed line of each expectation head
EXPECTATION_LINES = {
    "pass": "expect pass",
    "error": "expect error SingularCurve",
    "fibers": "expect fibers 12*I1",
    "euler": "expect euler 12",
    "match": "expect match",
    "mismatch": "expect mismatch",
    "det": "expect det -4",
    "signature": "expect signature 1,1",
    "length": "expect length 2",
    "parity": "expect parity 1",
    "even": "expect even",
    "odd": "expect odd",
}

# the head and body lines of a minimal scenario of each kind
KIND_BODIES = {
    "fiber-config": "family rational-base",
    "lattice-identity": "lattice a = H\nlattice b = H(2)",
    "hermite-identity": "family coupling-product",
    "construction-roundtrip": "family isogeny-square",
    "table-consistency": "family extraction-identity",
}

# the expectation heads each kind takes, ``error`` aside
KIND_TAKES = {
    "fiber-config": {"fibers", "euler"},
    "lattice-identity": {"match", "mismatch", "det", "signature", "length", "parity", "even", "odd"},
    "hermite-identity": {"pass"},
    "construction-roundtrip": {"pass"},
    "table-consistency": {"pass"},
}

# an outcome each kind takes, for the one head (euler) that is not an outcome
KIND_OUTCOMES = {
    "fiber-config": "expect fibers 12*I1",
    "lattice-identity": "expect det -4",
    "hermite-identity": "expect pass",
    "construction-roundtrip": "expect pass",
    "table-consistency": "expect pass",
}


def minimal_scenario(kind: str, *lines: str) -> str:
    return "\n".join(["name x", f"kind {kind}", KIND_BODIES[kind], *lines]) + "\n"


@pytest.mark.parametrize("head", sorted(EXPECTATION_LINES))
@pytest.mark.parametrize("kind", sorted(KIND_BODIES))
def test_a_kind_takes_exactly_its_expectations(kind, head):
    lines = [EXPECTATION_LINES[head]]
    if head == "euler":
        lines.append(KIND_OUTCOMES[kind])
    text = minimal_scenario(kind, *lines)
    if head == "error" or head in KIND_TAKES[kind]:
        sc = parse(text)
        assert sc.kind == kind
    else:
        with pytest.raises(ParseError):
            parse(text)


@pytest.mark.parametrize(
    "first, second",
    [(head, head) for head in sorted(EXPECTATION_LINES)]
    + [("match", "mismatch"), ("mismatch", "match"), ("even", "odd"), ("odd", "even")],
)
def test_a_repeated_expectation_is_refused_by_its_second_head(first, second):
    text = minimal_scenario(
        "lattice-identity", EXPECTATION_LINES[first], EXPECTATION_LINES[second]
    )
    with pytest.raises(ParseError, match=f"duplicate expectation '{second}'") as err:
        parse(text)
    assert (err.value.line, err.value.col) == (6, 8)


@pytest.mark.parametrize(
    "line, message",
    [
        ("name y", "duplicate name line"),
        ("kind fiber-config", "duplicate kind line"),
        ("family rational-base", "duplicate family line"),
        ("trials 3\ntrials 3", "duplicate trials line"),
        ("rat r = 1\nrat r = 2", "duplicate rat 'r'"),
        ("quartic q = 1, 0, 0, 0, 1\nquartic q = 1, 0, 0, 0, 1", "duplicate quartic 'q'"),
        ("poly f on s,t deg 1 = s\npoly f on s,t deg 1 = t", "duplicate poly 'f'"),
        ("lattice a = H\nlattice a = H", "duplicate lattice 'a'"),
    ],
)
def test_a_repeated_directive_is_refused(line, message):
    with pytest.raises(ParseError, match=message):
        parse(minimal_scenario("fiber-config", line, "expect fibers 12*I1"))


@pytest.mark.parametrize("head", ["pass", "match", "mismatch", "even", "odd"])
def test_an_expectation_without_a_value_refuses_trailing_text(head):
    text = minimal_scenario("lattice-identity", f"expect {head}  please")
    with pytest.raises(ParseError, match=f"'expect {head}' takes no value") as err:
        parse(text)
    assert (err.value.line, err.value.col) == (5, 10 + len(head))


@pytest.mark.parametrize("gap", ["\t", " \t", "\t  "])
def test_an_expectation_head_ends_at_any_whitespace(gap):
    sc = parse(
        minimal_scenario("lattice-identity", f"expect det{gap}-4", f"expect signature{gap}1,1")
    )
    assert sc.expect["det"] == -4
    assert sc.expect["signature"] == (1, 1)
    # the value column counts every character of the gap
    with pytest.raises(ParseError, match="parity must be 0 or 1") as err:
        parse(minimal_scenario("lattice-identity", f"expect parity{gap}3"))
    assert (err.value.line, err.value.col) == (5, 14 + len(gap))
    with pytest.raises(ParseError, match="'expect even' takes no value") as err:
        parse(minimal_scenario("lattice-identity", f"expect even{gap}please"))
    assert (err.value.line, err.value.col) == (5, 12 + len(gap))


@pytest.mark.parametrize(
    "body",
    [
        "family alternate-pair\npoly trace on s,t deg 4 = s^4\n"
        "poly norm on s,t deg 8 = s^8 - t^8",
        "family rational-base\ntrials 1",
    ],
)
def test_a_fiber_scenario_whose_expected_error_never_comes_fails(body):
    sc = parse(f"name x\nkind fiber-config\n{body}\nexpect error DegenerateModel\n")
    rep = cli.run(sc, seed=0)
    assert rep.status == "fail"
    assert rep.detail == "expected error DegenerateModel but the run completed"


# ---------------------------------------------------------------------------
# bundled corpus


def test_bundled_corpus_parses_and_is_sorted():
    bundle = cli.bundled_scenarios()
    names = [sc.name for sc in bundle]
    assert len(bundle) == 43
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_bundled_corpus_covers_every_kind():
    kinds = {sc.kind for sc in cli.bundled_scenarios()}
    assert kinds == {
        "fiber-config",
        "lattice-identity",
        "hermite-identity",
        "construction-roundtrip",
        "table-consistency",
    }


# ---------------------------------------------------------------------------
# running scenarios


def test_run_lattice_pass_and_artifacts():
    sc = parse(LATTICE_PAIR)
    rep = cli.run(sc, seed=3)
    assert rep.status == "pass"
    assert rep.ok
    assert "lattices" in rep.artifacts
    assert rep.artifacts["lattices"]["first"]["determinant"] == -256


def test_run_lattice_invariant_failure_names_the_lattice():
    sc = parse(
        """
        name wrong-det
        kind lattice-identity
        lattice only = H + E8(-2)
        expect det 64
        """
    )
    rep = cli.run(sc, seed=3)
    assert rep.status == "fail"
    assert not rep.ok
    assert "determinant" in rep.detail


def test_run_fiber_failure_reports_table():
    sc = parse(
        """
        name wrong-counts
        kind fiber-config
        family rational-base
        trials 1
        expect fibers 3*I2
        """
    )
    rep = cli.run(sc, seed=3)
    assert rep.status == "fail"
    assert "fiber counts" in rep.detail
    rows = rep.artifacts["fiber_table"]
    assert rows and set(rows[0]) == {
        "factor", "v_c4", "v_c6", "v_delta", "type", "count",
    }


def test_run_lattice_parity_failure_names_the_lattice():
    sc = parse(LATTICE_HEAD + "lattice a = H\nexpect odd\n")
    rep = cli.run(sc, seed=3)
    assert rep.status == "fail"
    assert rep.detail == "lattice a is not odd"
    assert rep.artifacts["lattices"]["a"]["even"] is True


def test_run_lattice_mismatch_keeps_the_pairs_compared_so_far():
    sc = parse(
        LATTICE_HEAD
        + "lattice a = H + E8(-2)\nlattice b = H(2) + N\nlattice c = H\nexpect match\n"
    )
    rep = cli.run(sc, seed=3)
    assert rep.status == "fail"
    assert rep.detail == "lattices a and c should be equivalent"
    # the run stops at the first inequivalent pair, so b~c is never compared
    assert rep.artifacts["pairs"] == {"a~b": True, "a~c": False}


def test_run_fiber_euler_failure_reports_table():
    sc = parse(FIBER_SMALL.replace("expect euler 12", "expect euler 24"))
    rep = cli.run(sc, seed=3)
    assert rep.status == "fail"
    assert "Euler number 12 instead of 24" in rep.detail
    assert sum(row["count"] for row in rep.artifacts["fiber_table"]) == 12


def test_run_renders_only_the_kept_witness(monkeypatch):
    # every trial checks its fibers, but only the first trial's witness is
    # kept, so only its fiber table is built
    configs = []
    real = cli._fiber_table
    monkeypatch.setattr(cli, "_fiber_table", lambda cfg: configs.append(cfg) or real(cfg))
    (pencil,) = [sc for sc in cli.bundled_scenarios() if sc.name == "rational-base-pencil"]
    rep = cli.run(pencil, seed=0, trials_override=8)
    assert (rep.status, rep.trials) == ("pass", 8)
    assert len(configs) == 1
    assert rep.artifacts["first_instance"]["places"] == real(configs[0])


def test_the_fibers_checks_compute_each_models_invariants_once(monkeypatch):
    # a chain model reaches the fiber classification as the model its gate
    # accepted, a tower member keeps the invariants its builder checked,
    # and the correspondence checks build no branch form
    computed = collections.Counter()
    branch_forms = collections.Counter()
    rows, tensor_forms = elliptic._invariant_rows, exactpoly.tensor_forms
    current = None

    def counted_rows(a2, a4, a6):
        computed[a2, a4, a6] += 1
        return rows(a2, a4, a6)

    def counted_tensor_forms(p, q):
        branch_forms[current] += 1
        return tensor_forms(p, q)

    monkeypatch.setattr(elliptic, "_invariant_rows", counted_rows)
    for module in (exactpoly, du, hermite_aj, cli):
        monkeypatch.setattr(module, "tensor_forms", counted_tensor_forms)
    names = ("star-chain-two", "tower-fourfold-fibers", "correspondence-cover-fibers")
    for sc in cli.bundled_scenarios():
        if sc.name in names:
            current = sc.name
            assert cli.run(sc, seed=0).status == "pass"
    assert computed and set(computed.values()) == {1}
    assert branch_forms["correspondence-cover-fibers"] == 0


def test_the_refibered_pencil_classifies_the_model_it_gated(monkeypatch):
    # each draw's gate reads the refibration's own model, whose invariants
    # the fiber classification of the accepted draw then reuses
    calls = collections.Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(elliptic, "_invariant_rows", counted("rows", elliptic._invariant_rows))
    for name in ("three_lines_cubic_model", "refibration_jacobian"):
        monkeypatch.setattr(du, name, counted(name, getattr(du, name)))
    (sc,) = [sc for sc in cli.bundled_scenarios() if sc.name == "refibered-pencil-stars"]
    assert cli.run(sc, seed=0).status == "pass"
    assert calls["three_lines_cubic_model"] == 0
    assert calls["refibration_jacobian"] > 0
    assert calls["rows"] == calls["refibration_jacobian"]


def test_run_failure_details_name_the_trial(monkeypatch):
    sc = parse(
        "name wrong-counts\nkind fiber-config\nfamily rational-base\n"
        "trials 2\nexpect fibers 3*I2\n"
    )
    rep = cli.run(sc, seed=3)
    assert rep.detail == (
        "trial 0 (rational elliptic surface): fiber counts 12*I1 instead of 3*I2"
    )
    monkeypatch.setattr(cli, "j_invariant_22", lambda b: None)
    bundle = cli.bundled_scenarios()
    (fiberwise,) = [sc for sc in bundle if sc.name == "fiberwise-j-match"]
    rep = cli.run(fiberwise, seed=3, trials_override=2)
    assert rep.status == "fail"
    assert rep.detail == "trial 0: the two j-invariants differ"
    assert set(rep.artifacts) == {"quartic", "xi"}


def test_run_discriminant_relation_failure_names_the_trial(monkeypatch):
    real = hermite_aj.jacobian_quartic

    def shifted(h):
        cubic = real(h)
        return hermite_aj.ShortCubic(cubic.f, cubic.g + 1)

    monkeypatch.setattr(hermite_aj, "jacobian_quartic", shifted)
    (relation,) = [
        sc for sc in cli.bundled_scenarios() if sc.name == "discriminant-relation"
    ]
    rep = cli.run(relation, seed=0, trials_override=2)
    assert rep.status == "fail"
    assert rep.detail == (
        "trial 0: resolvent discriminant is not g^2 times the quartic one"
    )
    assert set(rep.artifacts) == {"quartic"}


def test_run_coupling_product_failure_names_the_first_failing_anchor(monkeypatch):
    real = cli.tensor_forms
    # (x + 2)^2 (x + 1)^2 (x0 + 2)^2 (x0 + 1)^2 is symmetric and vanishes,
    # for every x, at the anchors -2 and -1 and at no other anchor.  Added
    # to the right-hand side P(x)*P(x0), it is out of sight of the checks
    # on the diagonals, which read the coupling data and the quartic only
    roots = HomPoly.of(("U", "V"), (1, 3, 2)) ** 2
    bump = real(roots, roots.rename(("S", "T")))

    def perturbed(p, q):
        return real(p, q) + bump

    monkeypatch.setattr(cli, "tensor_forms", perturbed)
    (coupling,) = [sc for sc in cli.bundled_scenarios() if sc.name == "coupling-product"]
    rep = cli.run(coupling, seed=0, trials_override=2)
    assert rep.status == "fail"
    assert rep.detail == "trial 0: product identity failed at anchor 0"
    assert set(rep.artifacts) == {"quartic"}


def test_run_coupling_product_failure_carries_the_quartic(monkeypatch):
    (coupling,) = [sc for sc in cli.bundled_scenarios() if sc.name == "coupling-product"]
    passed = cli.run(coupling, seed=0, trials_override=1)
    real = cli.form_partials
    # doubled partials scale the Hessian by 16, off the cofactor diagonal
    monkeypatch.setattr(cli, "form_partials", lambda form: tuple(2 * d for d in real(form)))
    rep = cli.run(coupling, seed=0, trials_override=2)
    assert rep.status == "fail"
    assert rep.detail == "trial 0: cofactor diagonal formula failed"
    assert rep.artifacts == passed.artifacts["first_instance"]
    assert set(rep.artifacts) == {"quartic"}


def test_run_trials_override_wins():
    sc = parse(FIBER_SMALL)
    rep = cli.run(sc, seed=3, trials_override=1)
    assert rep.status == "pass"
    assert rep.trials == 1


def test_run_expected_error_counts_as_ok():
    gate = [
        sc for sc in cli.bundled_scenarios() if sc.name == "singular-quartic-gate"
    ][0]
    rep = cli.run(gate, seed=3)
    assert rep.status == "error"
    assert rep.error["expected"] is True
    assert rep.error["type"] == "SingularCurve"
    assert rep.ok


def test_run_unexpected_error_is_not_ok():
    sc = parse(
        """
        name wrong-gate
        kind hermite-identity
        family quartic-double-cover
        rat a0 = 0
        rat a1 = 0
        rat a2 = -1
        rat xi = 1
        rat c0 = 2
        rat c_inf = 3
        expect error DegenerateModel
        """
    )
    rep = cli.run(sc, seed=3)
    assert rep.status == "error"
    assert rep.error["expected"] is False
    assert not rep.ok


def test_run_missing_expected_error_fails():
    sc = parse(
        """
        name missing-gate
        kind hermite-identity
        family quartic-double-cover
        rat a0 = 1
        rat a1 = 2
        rat a2 = 0
        rat xi = 3
        rat c0 = 1/2
        rat c_inf = 3
        expect error SingularCurve
        """
    )
    rep = cli.run(sc, seed=3)
    assert rep.status == "fail"
    assert "SingularCurve" in rep.detail


def test_draw_gives_up_after_the_budget():
    attempts = []
    with pytest.raises(cli.SamplerExhausted):
        cli._draw(lambda: attempts.append(1) or len(attempts), lambda n: False)
    assert len(attempts) == cli.DRAW_BUDGET
    assert cli._draw(lambda: 0, lambda n: True) == 0


def test_run_reports_an_exhausted_sampler_as_an_error(monkeypatch):
    # no drawn pair of forms makes a rational surface; without a budget the
    # sampler would retry forever
    def refuse(f, g):
        raise ValueError("refused")

    monkeypatch.setattr(cli.du, "RESData", refuse)
    rep = cli.run(parse(FIBER_SMALL), seed=3)
    assert rep.status == "error"
    assert rep.error["type"] == "SamplerExhausted"
    assert not rep.ok


def test_scenario_rng_is_name_keyed():
    a = cli._scenario_rng(7, "alpha").random()
    b = cli._scenario_rng(7, "alpha").random()
    c = cli._scenario_rng(7, "beta").random()
    d = cli._scenario_rng(8, "alpha").random()
    assert a == b
    assert a != c and a != d


def _affine_at_chain_level(params: du.ThreeLinesCubicParams, level: int) -> bool:
    """The chain-level test read affinely: the finite factor as a
    polynomial in t, its level the drop of its degree below 12."""
    try:
        delta = invariants(du.three_lines_cubic_model(params)).delta
    except DegenerateModel:
        return False
    stars = (UniPoly.of(params.mu, 1) ** 6) * (UniPoly.of(params.nu, 1) ** 6)
    finite = affine(divexact_form(delta, homogenize(stars, delta.vars, 12)))
    if 12 - finite.degree != level:
        return False
    if finite.is_zero or not is_separable(homogenize(finite, delta.vars, finite.degree)):
        return False
    return finite(-params.mu) != 0 and finite(-params.nu) != 0


_LINE_CUBIC_NAMES = ("mu", "nu", "c0", "c1", "d0", "d1", "d2", "e0", "e1", "e2")
# zero half the time, so the chain zeros d2, e2, e1, d1 come up
_chain_entry = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=3)
)


@given(values=st.tuples(*(_chain_entry,) * 10))
@example(values=(4, -1, 0, 5, 3, -5, 2, -2, 5, -5))
@example(values=(-5, -2, 1, -1, -3, 1, 0, -4, -3, 4))
@example(values=(-1, 0, -2, 3, 5, 5, 0, -3, -2, 0))
@example(values=(2, 0, -3, 2, 2, 0, 0, -1, 0, 0))
@example(values=(Fraction(1, 2), -3, Fraction(2, 3), Fraction(-1, 2), 1, 0, 0, 2, 0, 0))
@settings(max_examples=60, deadline=None)
def test_chain_level_matches_the_affine_reading(values):
    try:
        params = du.ThreeLinesCubicParams.of(**dict(zip(_LINE_CUBIC_NAMES, values)))
    except du.ParameterConstraintViolated:
        assume(False)
    model = du.three_lines_cubic_model(params)
    for level in range(13):
        gated = cli._at_chain_level(model, params.mu, params.nu, level)
        assert gated == _affine_at_chain_level(params, level)


# ---------------------------------------------------------------------------
# report emission


def cheap_reports(seed: int):
    keep = {
        "polarization-classes",
        "rank12-selfglue-profile",
        "frozen-torsion-pair",
        "jacobian-image-anchor",
        "singular-quartic-gate",
    }
    chosen = [sc for sc in cli.bundled_scenarios() if sc.name in keep]
    assert len(chosen) == len(keep)
    return cli.run_suite(chosen, seed)


def test_emit_json_is_byte_stable():
    first = cli.emit_json(cheap_reports(7), 7)
    second = cli.emit_json(cheap_reports(7), 7)
    assert first == second
    assert first.encode() == second.encode()


def test_emit_json_schema():
    doc = json.loads(cli.emit_json(cheap_reports(7), 7))
    assert doc["schema_version"] == 1
    assert doc["seed"] == 7
    assert doc["ok"] is True
    assert doc["counts"] == {"pass": 4, "fail": 0, "error": 1}
    names = [entry["name"] for entry in doc["scenarios"]]
    assert names == sorted(names)
    for entry in doc["scenarios"]:
        assert set(entry) == {
            "name", "kind", "family", "status", "trials",
            "detail", "error", "artifacts",
        }
    gate = [e for e in doc["scenarios"] if e["name"] == "singular-quartic-gate"][0]
    assert gate["status"] == "error"
    assert gate["error"]["expected"] is True


def test_emit_json_carries_no_timing():
    text = cli.emit_json(cheap_reports(7), 7)
    assert "wall" not in text and "ms" not in json.loads(text)


# sha256 prefixes of emit_json for one scenario at root seeds 0-3, recorded
# before the exact primitives moved into exactpoly.  The scenarios are the
# ones that run through the rewired cubic roots, square root, form
# resultant, linear solve and determinant; a kernel change that alters any
# of their reports fails here even when the run is byte-stable.
_PINNED_DIGESTS = {
    "fiberwise-j-match": (
        "61f2f2da681b3bdc", "df1d76cb3b42fb4b",
        "9e33f72e931a786b", "71fc89101faab279",
    ),
    "glued-cover-lattice": (
        "5b2446d64eee2422", "409ac46f5bc02bae",
        "e0c4c0895260f327", "76aa2f0969b26abb",
    ),
    "nikulin-rank8-profile": (
        "7029bd1a4ab2eca7", "acd32a7c6328a847",
        "465c072240402fad", "53b03d2a8f497e24",
    ),
    "normalize-roundtrip": (
        "fdde760fd3bbfd5a", "3d6c11a2f6fa7301",
        "0d86e68a7997f636", "f17e5925b4dca0db",
    ),
    "polarization-classes": (
        "07467851bab5cf67", "10e83ac47880716c",
        "f925dac459b048d1", "2843a25ce6e21c51",
    ),
    "polarization-even-profile": (
        "e90da9013616898e", "af34c1b4f988333d",
        "9fbad0377da1a83e", "19f56729d81046b4",
    ),
    "polarization-odd-profile": (
        "c71b2c545da311d1", "2a01b9fa6521e48e",
        "4be85fd144f8e1a6", "8fda44ae3e958bad",
    ),
    "quadruple-cover-fibers": (
        "17f413097465177e", "6d0f5080ce24046c",
        "6bc0c6db1a062b60", "5c1f6c54e9225f2a",
    ),
    "rank10-lattice-match": (
        "f74a1898668edf0c", "7f7df71be1cf827c",
        "fe8d5a2bf9058efd", "24b4690887e155da",
    ),
    "rank12-selfglue-profile": (
        "55acba166d647ffa", "2cf3097b1af1ec80",
        "12cb5d3543e179b9", "2d333b138d6003e8",
    ),
    "rank14-lattice-chain": (
        "80d49561a74d3d53", "d345c147059522be",
        "a9d11e6c4742d650", "aaed77ec648226de",
    ),
    "refibered-pencil-stars": (
        "8db2fd19c8d3a0ee", "1eb53059e65bd832",
        "847b72b59ccf2c9a", "bc0aa283695b3e4a",
    ),
    "refibration-match": (
        "f918dec66798b213", "35f7c0848618dac8",
        "900090ec720d2f9d", "318d4868cda49b7b",
    ),
    "star-chain-one": (
        "c6dffa5c2ddf5603", "7df4c0af0642794e",
        "761a8198fa8374f8", "14a579d4a5174016",
    ),
    "star-chain-three": (
        "686887bf575d9dd0", "177846e665eed35d",
        "17e698df2965e204", "0d1ed4fab53242cb",
    ),
    "star-chain-two": (
        "73da718fb67dafe5", "aedadd0ab84f966b",
        "af92888fe8cfa567", "85e16c08d1141799",
    ),
    "three-lines-stars": (
        "de61779b340e4c8c", "fe1a2ea4d4c08173",
        "9a5905e7162cba50", "b3d4def1390311a6",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_DIGESTS))
def test_emit_json_digest_is_pinned(name):
    (scenario,) = [sc for sc in cli.bundled_scenarios() if sc.name == name]
    for seed, expected in enumerate(_PINNED_DIGESTS[name]):
        text = cli.emit_json(cli.run_suite([scenario], seed), seed)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == expected, seed


# sha256 prefixes of emit_json for every other bundled scenario at root
# seeds 0-4 with two trials, recorded before the families moved onto one
# driver.  The second trial runs through the driver's witness and counter
# logic (first_instance, mirror_branch_trials) after a trial has passed.
_PINNED_TWO_TRIAL_DIGESTS = {
    "correspondence-cover-fibers": (
        "b2fd10eb25ca9daf", "f02296deba31a751", "21bc16d100cd99a4",
        "f43e630d1298a4fd", "0d9e02c20b8af97e",
    ),
    "correspondence-quotient-fibers": (
        "02e488702b891f0c", "14d874bf886e9981", "d7708688065146eb",
        "a4134fb8925b1c86", "2968f06327a90ff6",
    ),
    "correspondence-rational-fibers": (
        "023d84c899ffa75c", "8d947b52cce908f6", "48fcb3a48182aed9",
        "a99c88dd199fd3fd", "1b4c9f86449afa52",
    ),
    "correspondence-routes": (
        "48c4d7361fc6ec51", "d1f5db21d8a14f24", "a930165f90055b63",
        "227ac1089638d54d", "f6443fe98eb0925b",
    ),
    "coupling-product": (
        "76ea4f3d99e15904", "0014ad248c0ad857", "f4aab11ce8a1e9b1",
        "ca3bd57568d77f93", "76323878538bc93e",
    ),
    "deformation-discriminant": (
        "ed3b99c0bc805480", "9c3754f4c8a0fafe", "96d91f121d6f2d0f",
        "bcf4dab46e24b6d9", "1752981f6c494749",
    ),
    "discriminant-relation": (
        "1fb56fd0a967544a", "459ef0e13bdad192", "b10a9fb4dd868e81",
        "aaed28d14da33ecf", "881a7c2571edd32d",
    ),
    "extraction-identity": (
        "9df232feb6437159", "0179524e0a39b0c8", "12f59a6e82480cab",
        "9159e0dd369e60ec", "33ed944e0a0c9990",
    ),
    "frozen-torsion-pair": (
        "27ec7964eee32756", "8fbe3a8ba777475b", "1286756d0dc30b36",
        "509f23ca531641b8", "a5cb40fd2da400e8",
    ),
    "full-torsion-alternate-fibers": (
        "c07a8d04ad17b63a", "d97bb6069ade2461", "fc03b3d2ff3329a4",
        "e78738029161b25e", "fc218bfc4e513225",
    ),
    "involution-square-scalar": (
        "a2dc65544879f767", "7ac24381e1af8c6a", "77ee59cf04677b29",
        "ceee8d4a2093fcb1", "5501657bfa356a7e",
    ),
    "isogeny-place-swap": (
        "3a4f4ecc6fa2bb48", "bd31a28b2501fe68", "1511b28a74722014",
        "dd3491e7b74f7bca", "8ec826c75223ee2b",
    ),
    "isogeny-square-scaling": (
        "094e90e52d4cdc79", "4cba280ca9a38d33", "0a6d7d02cb2cabfb",
        "6aff2961b0949996", "398555a3198d8c85",
    ),
    "jacobian-image": (
        "f9e17c10f05361f7", "4f8df8aac0d16460", "5a84a45586c18d4d",
        "6ead394076df7fb7", "7c6d188afd37520f",
    ),
    "jacobian-image-anchor": (
        "52ce0487c93dbe93", "65b2423dc43429d0", "bf4b13cbbbc58171",
        "8073dc5b360a26db", "d6d26dfe51afa9ed",
    ),
    "pullback-cover-fibers": (
        "c5d2cab3fdfed305", "038948df17275464", "9f0b2465e35d8f7e",
        "1b584c3f5f07891d", "4da1f4cf92ab4217",
    ),
    "quartic-double-cover": (
        "bae5427eb9ec609f", "371cfe09c129b371", "182a3198e103687a",
        "82233a204bb9ce93", "2e33c58b86b2e7a4",
    ),
    "rational-base-pencil": (
        "4884890cd62ccea0", "e9fed85d1fcccc00", "e65f5fd70b54f18d",
        "170af05a7c3b29c9", "701b215a4a23887f",
    ),
    "singular-quartic-gate": (
        "2ee06a30ac6a01fe", "28f81bd30138ed74", "ca8ea306e271c717",
        "0b1e5c49db9a3092", "4a97eb37bde35029",
    ),
    "torsion-pair-fibers": (
        "a82431ac88d7dfc3", "7b05873e8f4106c0", "d2532c1b77206d1a",
        "c1f9186c3ae8ee84", "4f98b815d8ab0bce",
    ),
    "torsion-tower-match": (
        "cd9215fff4594408", "c22231609c93227c", "ffb299daf9283dfd",
        "1f9552ec4a1bd4f8", "735dcdae753b48ad",
    ),
    "tower-double-cover-fibers": (
        "ca2ac44f8f6e2f82", "6c6861389c1fdc56", "cfd33d8eb901bc93",
        "bd5e1a2e07d66ccf", "84083ca868e11c6c",
    ),
    "tower-fourfold-fibers": (
        "90d160e475f6a396", "6d46141be64bb840", "bc4721495dbb52f5",
        "ee3de18fd8a41b0d", "359472a0dfabede7",
    ),
    "tower-rational-fibers": (
        "2ffadeef10a00e2b", "c80a415b8e9a1c37", "03496039f4bf7022",
        "323b8763b6548139", "8da63b6af9bee68e",
    ),
    "tower-twisted-fibers": (
        "359db3a8f0b8c31b", "dde6ac78ae02decc", "da3082a964a0a292",
        "2ddcaef588d91584", "985b78a1b0c6da8b",
    ),
    "twist-pencil-stars": (
        "d007e52965fc59ef", "b8534e31d9f0fde4", "61f5c369f084d417",
        "1dc79e2907d002fa", "2e8062bc25a408a7",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_TWO_TRIAL_DIGESTS))
def test_emit_json_two_trial_digest_is_pinned(name):
    (scenario,) = [sc for sc in cli.bundled_scenarios() if sc.name == name]
    for seed, expected in enumerate(_PINNED_TWO_TRIAL_DIGESTS[name]):
        text = cli.emit_json(cli.run_suite([scenario], seed, 2), seed)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == expected, seed


@pytest.mark.parametrize(
    "seed, prefix",
    enumerate(("bd0515e66fb0", "75538314a6ab", "29aee4fcdc72", "ea5f33ae5c15", "21ffbe851d77")),
)
def test_verify_all_json_digest_is_pinned(seed, prefix):
    # the whole bundle at its own trial counts, which the digests above pin
    # for most scenarios only at two trials
    code, out, _ = call_main(["verify", "--all", "--format", "json", "--seed", str(seed)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == prefix


def test_pinned_digests_cover_the_bundle():
    pinned = set(_PINNED_DIGESTS) | set(_PINNED_TWO_TRIAL_DIGESTS)
    assert pinned == {sc.name for sc in cli.bundled_scenarios()}


def test_emit_json_fiber_places_schema():
    doc = json.loads(cli.emit_json(cheap_reports(7), 7))
    frozen = [e for e in doc["scenarios"] if e["name"] == "frozen-torsion-pair"][0]
    places = frozen["artifacts"]["first_instance"]["places"]
    assert {p["type"]: p["count"] for p in places} == {"I1": 8, "I2": 8}
    for place in places:
        assert set(place) == {"factor", "v_c4", "v_c6", "v_delta", "type", "count"}


def test_emit_text_layout():
    reports = cheap_reports(7)
    text = cli.emit_text(reports, 7)
    assert text.splitlines()[0] == "ellsurf verify: 5 scenarios, seed 7"
    assert "[error*]" in text
    assert "v(delta)" in text
    assert text.rstrip().endswith("ok")


# ---------------------------------------------------------------------------
# command-line entry point


def test_main_pass_exit_zero():
    code, out, _ = call_main(
        ["verify", "--filter", "polarization-*", "--seed", "11"]
    )
    assert code == 0
    assert "3 scenarios" in out


def test_main_json_round_trip():
    argv = ["verify", "--filter", "rank1*", "--seed", "7", "--format", "json"]
    code1, out1, _ = call_main(argv)
    code2, out2, _ = call_main(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert [e["name"] for e in doc["scenarios"]] == [
        "rank10-lattice-match",
        "rank12-selfglue-profile",
        "rank14-lattice-chain",
    ]


def test_main_failing_scenario_exit_one(tmp_path):
    path = tmp_path / "wrong.scn"
    path.write_text(
        "name wrong-counts\nkind fiber-config\nfamily rational-base\n"
        "trials 1\nexpect fibers 3*I2\n"
    )
    code, out, _ = call_main(["verify", "--scenario", str(path), "--seed", "3"])
    assert code == 1
    assert "[fail]" in out
    assert "NOT OK" in out


def test_main_scenario_file_plus_filter(tmp_path):
    path = tmp_path / "extra.scn"
    path.write_text(
        "name zz-extra-pair\nkind lattice-identity\n"
        "lattice a = H + N\nlattice b = H(2) + D4(-1)^2\nexpect match\n"
    )
    code, out, _ = call_main(
        ["verify", "--filter", "polarization-classes",
         "--scenario", str(path), "--seed", "3"]
    )
    assert code == 0
    assert "2 scenarios" in out


def test_main_duplicate_names_rejected(tmp_path):
    path = tmp_path / "dup.scn"
    path.write_text(
        "name twin\nkind lattice-identity\nlattice a = H\nexpect det -1\n"
    )
    code, _, err = call_main(
        ["verify", "--scenario", str(path), "--scenario", str(path)]
    )
    assert code == 2
    assert "twin" in err


def test_main_trials_flag(tmp_path):
    code, out, _ = call_main(
        ["verify", "--filter", "rational-base-pencil", "--seed", "3",
         "--trials", "2", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["scenarios"][0]["trials"] == 2


def test_main_exit_two_paths(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("name x\nkind fiber-config\nnonsense\n")
    for argv in (
        ["verify"],
        ["verify", "--filter", "no-such-*"],
        ["verify", "--scenario", str(tmp_path / "missing.scn")],
        ["verify", "--scenario", str(bad)],
        ["verify", "--all", "--trials", "0"],
        ["verify", "--all", "--format", "yaml"],
        ["frobnicate"],
    ):
        code, _, _ = call_main(argv)
        assert code == 2, argv


def test_main_zero_denominator_is_a_parse_error(tmp_path):
    path = tmp_path / "zero.scn"
    path.write_text(
        "name zero-denominator\nkind fiber-config\nfamily alternate-pair\n"
        "poly trace on s,t deg 4 = 1/0*s^4\npoly norm on s,t deg 8 = s^8\n"
        "expect fibers 8*I1 + 8*I2\n"
    )
    code, _, err = call_main(["verify", "--scenario", str(path)])
    assert code == 2
    assert err.startswith("error: ") and "zero denominator" in err
    assert "line 4" in err


THOUSAND_DIGITS = "1" + "0" * 999


@pytest.mark.parametrize(
    "body, code, status, error",
    [
        # the determinant, about 5 000 digits, is more than Python prints
        (
            f"kind lattice-identity\nlattice first = A1({THOUSAND_DIGITS})^5\nexpect even\n",
            2,
            None,
            None,
        ),
        # one block fewer, and the determinant has 3 998 digits
        (
            f"kind lattice-identity\nlattice first = A1({THOUSAND_DIGITS})^4\nexpect even\n",
            0,
            "pass",
            None,
        ),
        (
            "kind hermite-identity\nfamily pointwise-map-anchor\n"
            f"quartic curve = {THOUSAND_DIGITS}, 2, 0, 0, 1\n"
            + "".join(f"rat {name} = 1\n" for name in cli._ANCHOR_RATS)
            + "expect pass\n",
            1,
            "error",
            "NotOnCurve",
        ),
        (
            "kind hermite-identity\nfamily quartic-double-cover\n"
            f"rat a0 = {THOUSAND_DIGITS}\nrat a1 = 2\nrat a2 = 0\nrat xi = 3\n"
            "rat c0 = 1/2\nrat c_inf = 3\nexpect pass\n",
            0,
            "pass",
            None,
        ),
    ],
    ids=["lattice-refused", "lattice", "pointwise-map-anchor", "quartic-double-cover"],
)
def test_main_reports_a_scenario_of_1000_digit_entries(tmp_path, body, code, status, error):
    path = tmp_path / "large.scn"
    path.write_text("name large\n" + body)
    for fmt in ("text", "json"):
        start = time.perf_counter()
        got, out, err = call_main(["verify", "--scenario", str(path), "--format", fmt])
        assert time.perf_counter() - start < 10
        assert got == code, fmt
        if status is None:
            assert out == ""
            assert err == "error: lattice determinant may exceed 4300 digits (line 3, col 17)\n"
        elif fmt == "json":
            report = json.loads(out)["scenarios"][0]
            assert report["status"] == status
            assert (report["error"] or {}).get("type") == error


def test_main_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.scn"
    path.write_bytes(
        b"name latin1\nkind fiber-config\nfamily rational-base\n"
        b"expect fibers 12*I1 # caf\xe9 \xff\n"
    )
    code, out, err = call_main(["verify", "--scenario", str(path)])
    assert code == 2 and not out
    assert err.startswith("error: ") and "not UTF-8 text (byte 0xe9)" in err
    assert "line 4, col 26" in err
    with pytest.raises(ParseError) as exc:
        cli.load_scenario(str(path))
    assert (exc.value.line, exc.value.col) == (4, 26)


def test_main_twist_at_seed_eight():
    # seed 8 draws a rational surface whose discriminant vanishes at (1, 1),
    # which no choice of cover parameters avoids; the surface is drawn again
    code, out, _ = call_main(
        ["verify", "--filter", "twist-pencil-stars", "--seed", "8", "--format", "json"]
    )
    assert code == 0
    (entry,) = json.loads(out)["scenarios"]
    assert entry["status"] == "pass"


def test_main_fiberwise_j_at_seed_four():
    # seed 4 draws a coupling coordinate at a two-torsion abscissa, where
    # the (2,2) curve is singular; the sampler must draw again
    code, out, _ = call_main(
        ["verify", "--filter", "fiberwise-j-match", "--seed", "4", "--format", "json"]
    )
    assert code == 0
    (entry,) = json.loads(out)["scenarios"]
    assert entry["status"] == "pass"
