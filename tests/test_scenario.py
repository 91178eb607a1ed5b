"""Tests for the scenario grammar in ``ellsurf.scenario``.

Covers scenario files (including error positions), their validation
against the kinds and the family registry, the number, form and fiber-label
readers under the digit rule, and the digit rule under a lower
interpreter int-string limit.
"""

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellsurf import cli, scenario
from ellsurf import lattice as la
from ellsurf.exactpoly import DegreeMismatch, HomPoly
from ellsurf.scenario import (
    MAX_DIGITS,
    MAX_POLY_DEGREE,
    NotHomogeneous,
    ParseError,
    parse_hompoly,
    parse_kodaira_type,
    parse_rational,
)

ST = ("s", "t")


def parse(text: str, source: str = "inline.scn") -> scenario.Scenario:
    return scenario.parse_scenario(text, source)


def call_main(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


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
    "trials": (FIBER_HEAD + "expect fibers 12*I1\n", "trials ", lambda sc: sc.trials, 1, (1, scenario.MAX_TRIALS)),
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
    untried = {name for name, fam in scenario._FAMILIES.items() if not fam.randomized}
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


class TestParsing:
    def test_rationals(self):
        assert parse_rational(" -3/4 ") == Fraction(-3, 4)
        with pytest.raises(ParseError):
            parse_rational("3/0")

    @pytest.mark.parametrize(
        "text", ["1e50", "2.5", "1_000", "1e999999999", "+3", "3/-4", "1/00", "\u0663", "1/1\u0664"]
    )
    def test_only_digits_over_digits_are_rationals(self, text):
        # Fraction(text) reads all but 3/-4 and 1/00; 1e999999999 would
        # build a 10^999999999 integer, so it must be refused unread, and
        # the digits are ASCII 0-9 only (Fraction reads Arabic-Indic ones)
        with pytest.raises(ParseError, match=f"bad rational '{re.escape(text)}'") as err:
            parse_rational(f"  {text}", line=3, col=7)
        assert (err.value.line, err.value.col) == (3, 9)

    def test_rationals_of_more_than_max_digits_are_refused(self):
        big = "7" * MAX_DIGITS
        assert parse_rational(f"-{big}/3") == Fraction(-int(big), 3)
        assert parse_rational(f"1/{big}") == Fraction(1, int(big))
        for text in (big + "7", f"1/{big}7", f"-{big}7/3"):
            with pytest.raises(ParseError, match="more than 1000 digits") as err:
                parse_rational(text, col=4)
            assert err.value.col == 4

    def test_positions_reported(self):
        with pytest.raises(ParseError) as err:
            parse_hompoly("s^2 + w*t", ("s", "t"))
        assert err.value.line == 1
        assert err.value.col == 7

    def test_homogeneity_enforced(self):
        with pytest.raises(NotHomogeneous):
            parse_hompoly("s^2 + t", ("s", "t"))
        with pytest.raises(NotHomogeneous):
            parse_hompoly("s^2 - t^2", ("s", "t"), degree=4)
        # the class, not the message, says what failed
        with pytest.raises(ParseError, match="unknown variable 'homogeneous'") as err:
            parse_hompoly("homogeneous", ("s", "t"), degree=1)
        assert not isinstance(err.value, NotHomogeneous)

    def test_zero_denominator_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_hompoly("s^4 + 1/0*t^4", ("s", "t"), 4, line=3)
        assert "zero denominator" in str(err.value)
        assert (err.value.line, err.value.col) == (3, 7)

    def test_trailing_sign_is_a_parse_error(self):
        for text in ("s +", "s -", "s + t +"):
            with pytest.raises(ParseError, match="dangling sign"):
                parse_hompoly(text, ("s", "t"), 1)
        with pytest.raises(ParseError) as err:
            parse_hompoly("s +", ("s", "t"), 1, line=2, col=30)
        assert (err.value.line, err.value.col) == (2, 32)

    def test_a_missing_exponent_is_reported_at_its_caret(self):
        # the caret is the last character of "s^", and a space follows it
        # in "s^ t"; "3/2" is no integer
        for text in ("s^", "s^ t", "s^+t", "s^3/2"):
            with pytest.raises(ParseError, match="exponent must be a nonnegative integer") as err:
                parse_hompoly(text, ("s", "t"), line=2, col=10)
            assert (err.value.line, err.value.col) == (2, 11)
        with pytest.raises(ParseError, match="exponent") as err:
            parse_hompoly("t*s ^ t", ("s", "t"))
        assert err.value.col == 5

    def test_zero_form_needs_degree(self):
        assert parse_hompoly("0", ("s", "t"), degree=3).is_zero
        with pytest.raises(ParseError):
            parse_hompoly("0", ("s", "t"))

    def test_cancelling_terms_keep_declared_degree(self):
        F = parse_hompoly("s*t - s*t", ("s", "t"))
        assert F.is_zero and F.degree == 2

    def test_degrees_above_the_cap_are_refused_before_any_coefficient_list(self):
        assert MAX_POLY_DEGREE == 48
        assert parse_hompoly("s^48", ST).degree == 48
        assert parse_hompoly("0", ST, degree=48).degree == 48
        # uncapped, "s^10000000" builds a 10^7-entry form, and a 1 000-digit
        # exponent asks for a list no machine holds
        for text in ("s^49", "s^30*t^19", "s^10000000", "s^" + "9" * MAX_DIGITS):
            with pytest.raises(ParseError, match="terms of degree above 48") as err:
                parse_hompoly(text, ST, line=2, col=5)
            assert (err.value.line, err.value.col) == (2, 5)
        for text in ("s^49", "0"):
            with pytest.raises(ParseError, match="degree above 48"):
                parse_hompoly(text, ST, degree=49)


class TestKodairaLabels:
    def test_labels_round_trip(self):
        labels = ["I0", "I1", "I7", "I13", "I0*", "I1*", "I4*",
                  "II", "III", "IV", "IV*", "III*", "II*"]
        for lab in labels:
            assert parse_kodaira_type(lab).label == lab

    @pytest.mark.parametrize("label", ["I\u0663", "I\u0663*", "I\u00b2", "I\uff11"])
    def test_an_index_is_written_in_ascii_digits(self, label):
        # Arabic-Indic three, superscript two, fullwidth one
        with pytest.raises(ValueError, match="unrecognized fiber label"):
            parse_kodaira_type(label)

    @pytest.mark.parametrize(
        "label",
        ["I" + "9" * 5000, "I" + "9" * 5000 + "*", "I" + "0" * 1001],
        ids=["I-5000-nines", "I-5000-nines-star", "I-1001-zeros"],
    )
    def test_an_index_of_more_than_1000_digits_is_unrecognized(self, label):
        # refused before int() reads it: Python refuses an int of more than
        # 4 300 digits with a bare ValueError of its own
        with pytest.raises(ValueError, match="unrecognized fiber label"):
            parse_kodaira_type(label)

    def test_an_index_of_1000_digits_parses(self):
        assert parse_kodaira_type("I" + "0" * 999 + "7*").label == "I7*"


# ---------------------------------------------------------------------------
# the digit rule under the interpreter's int-string limit, and the registry
# seen from a fresh interpreter

SRC = Path(scenario.__file__).parents[1]
SEVENS = "7" * 1000

# probe -> (its scenario text, the error's message, line and column)
_LIMIT_PROBES = {
    "lattice-scale": (
        f"name probe\nkind lattice-identity\nlattice a = A1({SEVENS})\nexpect det -1\n",
        "lattice scale has more than 640 digits", 3, 13,
    ),
    "poly-coefficient": (
        "name probe\nkind fiber-config\nfamily alternate-pair\n"
        f"poly trace on s,t deg 4 = {SEVENS}*s^4 + t^4\npoly norm on s,t deg 8 = s^8 - t^8\n"
        "expect fibers 8*I1 + 8*I2\n",
        "number with more than 640 digits", 4, 27,
    ),
    "rat": (
        f"name probe\nkind fiber-config\nfamily star-chain\nrat level = {SEVENS}\nexpect fibers 12*I1\n",
        "rational with more than 640 digits", 4, 13,
    ),
}


def _fresh_python(args: list[str], **env: str) -> subprocess.CompletedProcess:
    """Run ``python args`` in a new interpreter that imports the package from
    this source tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC), **env}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )


@pytest.mark.parametrize("probe", sorted(_LIMIT_PROBES))
def test_a_number_over_a_lower_int_string_limit_is_a_parse_error(probe, tmp_path):
    # under PYTHONINTMAXSTRDIGITS=640, int() refuses a 1 000-digit string,
    # which MAX_DIGITS allows; the digit rule refuses it first
    text, message, line, col = _LIMIT_PROBES[probe]
    path = tmp_path / "probe.scn"
    path.write_text(text)
    done = _fresh_python(
        ["-m", "ellsurf", "verify", "--scenario", str(path)], PYTHONINTMAXSTRDIGITS="640"
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert f"{message} (line {line}, col {col})" in done.stderr


def test_the_determinant_cap_follows_a_lower_int_string_limit(monkeypatch):
    # A1(10^400)^2 has an 801-digit determinant, printable under 4 300
    # digits but not under 640
    text = f"name x\nkind lattice-identity\nlattice a = A1(1{'0' * 400})^2\nexpect det -1\n"
    assert parse(text).lattices["a"].rank == 2
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640)
    with pytest.raises(ParseError, match="lattice determinant may exceed 640 digits") as err:
        parse(text)
    assert (err.value.line, err.value.col) == (3, 13)


def test_no_int_string_limit_keeps_the_digit_caps(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    with pytest.raises(ParseError, match="rational with more than 1000 digits"):
        parse_rational("7" * 1001)
    assert parse_rational(SEVENS) == int(SEVENS)


def test_a_fresh_interpreter_reads_the_bundle_through_the_scenario_module():
    # the family registry is filled when cli is imported; the package's
    # __init__ imports it, which only a new interpreter can show
    reads = _fresh_python(
        ["-c", "import ellsurf.scenario as s; print(len(s.bundled_scenarios()))"]
    )
    assert reads.returncode == 0, reads.stderr
    assert reads.stdout == "43\n"
    verify = _fresh_python(["-m", "ellsurf", "verify", "--all", "--format", "json", "--seed", "0"])
    assert verify.returncode == 0, verify.stderr
    assert hashlib.sha256(verify.stdout.encode()).hexdigest().startswith("bd0515e66fb0")
