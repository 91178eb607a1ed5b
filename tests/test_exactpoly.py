"""Unit tests for the exact polynomial kernel and its scalar primitives.

sympy appears here only as the independent cross-check oracle for
resultants, discriminants, squarefree parts, cubic roots, determinants
and the multiplicities of ``refine_against`` (through
``tate_oracle.form_multiplicities``); the package itself never imports it.
The discriminant oracle reads sympy's affine discriminant at the declared
degree by the classical degree-drop rule, not by the identity the package
uses.  The integer gcd is judged against sympy and against a test-local
copy of the primitive pseudo-remainder sequence it replaced, and its
cofactors by the schoolbook product; the squarefree split and
``refine_against``, which read those cofactors, against test-local copies
of the loops that divided by the gcd instead, and ``refine_against`` also
against a copy of its gcd passes, which the place at infinity now skips.
The integer pseudo-division is judged by its contract: the identity, the
bound on its scale, and scale 1 when the divisor's lead divides each top.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from sympy.polys.subresultants_qq_zz import sylvester
from hypothesis import strategies as st
from corpus import affine, bihom
from tate_oracle import form_multiplicities

from ellsurf import exactpoly
from ellsurf.exactpoly import (
    BiHomPoly,
    DegreeMismatch,
    DegreeTooLow,
    ExactDivisionError,
    HomPoly,
    UniPoly,
    _int_gcd,
    _xi_bits,
    _xi_candidate,
    bareiss_det,
    check_forms,
    discriminant_form,
    divexact_form,
    form_discriminant,
    form_partials,
    form_resultant,
    form_sqrt,
    gcd_form,
    gcd_poly,
    homogenize,
    is_separable,
    rat,
    rational_cubic_roots,
    rational_sqrt,
    refine_against,
    resultant,
    squarefree_split,
    tensor_forms,
)
from ellsurf.scenario import parse_hompoly

_X = sp.symbols("x")


def _to_sympy(p: UniPoly):
    return sp.Poly([sp.Rational(c) for c in reversed(p.coeffs)] or [0], _X, domain="QQ")


small_rational = st.fractions(
    min_value=-9, max_value=9, max_denominator=4
)


@st.composite
def unipolys(draw, max_degree=5, allow_zero=True):
    deg = draw(st.integers(min_value=-1 if allow_zero else 0, max_value=max_degree))
    if deg < 0:
        return UniPoly.zero()
    coeffs = [draw(small_rational) for _ in range(deg)]
    lead = draw(small_rational.filter(lambda c: c != 0))
    return UniPoly.from_coeffs(coeffs + [lead])


class TestUniPolyRing:
    @given(p=unipolys(), q=unipolys(), r=unipolys())
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r

    @given(p=unipolys(), q=unipolys(allow_zero=False))
    def test_division_identity(self, p, q):
        quo, rem = p.divmod(q)
        assert quo * q + rem == p
        assert rem.is_zero or rem.degree < q.degree

    @given(p=unipolys(), c=small_rational, extra=st.integers(0, 2))
    @example(p=UniPoly.zero(), c=Fraction(3, 2), extra=0)
    @example(p=UniPoly.of(-7), c=Fraction(-1, 4), extra=0)
    @example(p=UniPoly.of(Fraction(2, 3)), c=Fraction(0), extra=1)
    def test_shift_evaluates(self, p, c, extra):
        # the shift two_torsion_sections makes: p read as a form, with roots
        # at infinity when extra > 0, at s -> s + c*t, then at t = 1
        vars = ("s", "t")
        form = homogenize(p, vars, max(p.degree, 0) + extra)
        line = HomPoly.of(vars, (1, c))
        shifted = affine(form.substitute(line, HomPoly.var_power(vars, 1, 1)))
        for x in (Fraction(0), Fraction(1), Fraction(-2, 3)):
            assert shifted(x) == p(x + c)
        # three points do not pin a polynomial of degree 3 or more
        want = _loop_shift(p, c)
        assert (shifted.num, shifted.den) == (want.num, want.den)


def _loop_shift(p: UniPoly, c: Fraction) -> UniPoly:
    """p(x + c) by Horner's rule on UniPoly values."""
    result = UniPoly.zero()
    for a in reversed(p.coeffs):
        result = result * UniPoly.of(c, 1) + UniPoly.of(a)
    return result


def _divexact(p: UniPoly, q: UniPoly) -> UniPoly:
    """``p / q`` through ``divmod``; the remainder must be zero."""
    quo, rem = p.divmod(q)
    assert rem.is_zero, (p, q)
    return quo


def _leading_in_first(f: HomPoly) -> Fraction:
    """The coefficient of the highest power of the first variable present."""
    return f.coeffs[f.second_var_multiplicity()]


def _monic_in_first(f: HomPoly) -> HomPoly:
    """``f`` over its coefficient at the highest power of the first variable."""
    return f * (1 / _leading_in_first(f))


# ---------------------------------------------------------------------------
# the integer core, against a Fraction schoolbook oracle kept here


def _ref_strip(cs: list[Fraction]) -> list[Fraction]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ref_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Long division of ascending coefficient lists; b has a nonzero top."""
    rem = _ref_strip(a)
    quo = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        factor = rem[-1] / b[-1]
        quo[k] = factor
        for i, y in enumerate(b):
            rem[k + i] -= factor * y
        rem = _ref_strip(rem)
    return quo, rem


def _ref_value(cs: list[Fraction], x: Fraction) -> Fraction:
    return sum((c * x**i for i, c in enumerate(cs)), Fraction(0))


wide_rational = st.builds(
    lambda sign, n, d: Fraction(sign * n, d),
    st.sampled_from((1, -1)),
    st.integers(min_value=2**100, max_value=2**130),
    st.integers(min_value=2**100, max_value=2**130),
)
any_rational = st.one_of(small_rational, wide_rational, st.just(Fraction(0)))
coeff_lists = st.lists(any_rational, max_size=6)
nonzero_top_lists = st.lists(any_rational, max_size=5).flatmap(
    lambda cs: st.builds(lambda top: cs + [top], any_rational.filter(lambda c: c != 0))
)
ST = ("s", "t")


def _lowest_terms(num: tuple[int, ...], den: int) -> bool:
    return den > 0 and math.gcd(den, *num) == 1 and (any(num) or den == 1)


class TestIntegerCore:
    @given(a=coeff_lists, b=coeff_lists)
    def test_products_match_the_schoolbook(self, a, b):
        p, q = UniPoly.from_coeffs(a), UniPoly.from_coeffs(b)
        want = _ref_strip(_ref_mul(a, b)) if a and b else []
        assert list((p * q).coeffs) == want
        assert _lowest_terms((p * q).num, (p * q).den)
        if a and b:
            F, G = HomPoly.of(ST, a), HomPoly.of(ST, b)
            assert list((F * G).coeffs) == _ref_mul(a, b)
            assert (F * G).degree == len(a) + len(b) - 2

    @given(a=coeff_lists, b=coeff_lists, c=any_rational)
    def test_sums_and_scalar_multiples_match_the_schoolbook(self, a, b, c):
        n = max(len(a), len(b))
        pa, pb = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
        p, q = UniPoly.from_coeffs(a), UniPoly.from_coeffs(b)
        assert list((p + q).coeffs) == _ref_strip([x + y for x, y in zip(pa, pb)])
        assert list((p - q).coeffs) == _ref_strip([x - y for x, y in zip(pa, pb)])
        assert list((p * c).coeffs) == _ref_strip([c * x for x in a])
        assert list((-p).coeffs) == _ref_strip([-x for x in a])
        if n:
            F, G = HomPoly.of(ST, pa), HomPoly.of(ST, pb)
            assert list((F - G).coeffs) == [x - y for x, y in zip(pa, pb)]
            assert list((c * F).coeffs) == [c * x for x in pa]
            assert _lowest_terms((F - G).num, (F - G).den)

    @given(a=coeff_lists, b=nonzero_top_lists)
    def test_divmod_matches_long_division(self, a, b):
        p, f = UniPoly.from_coeffs(a), UniPoly.from_coeffs(b)
        q, r = p.divmod(f)
        assert q * f + r == p
        assert r.degree < f.degree
        want_q, want_r = _ref_divmod(a, b)
        assert list(q.coeffs) == _ref_strip(want_q)
        assert list(r.coeffs) == want_r
        assert _lowest_terms(q.num, q.den) and _lowest_terms(r.num, r.den)

    @given(a=coeff_lists, x=any_rational, y=any_rational)
    def test_evaluation_matches_the_schoolbook(self, a, x, y):
        assert UniPoly.from_coeffs(a)(x) == _ref_value(a, x)
        if a:
            d = len(a) - 1
            want = sum((c * x ** (d - k) * y**k for k, c in enumerate(a)), Fraction(0))
            assert HomPoly.of(ST, a)(x, y) == want

    @given(
        p=nonzero_top_lists, q=nonzero_top_lists, g=st.lists(wide_rational, min_size=2, max_size=3)
    )
    @settings(max_examples=40, deadline=None)
    def test_gcd_of_wide_coefficients_against_sympy(self, p, q, g):
        P = UniPoly.from_coeffs(p) * UniPoly.from_coeffs(g)
        Q = UniPoly.from_coeffs(q) * UniPoly.from_coeffs(g)
        ours = gcd_poly(P, Q)
        assert _to_sympy(ours) == sp.gcd(_to_sympy(P), _to_sympy(Q)).monic()
        assert ours.degree >= len(g) - 1

    def test_equal_values_have_equal_fields_and_hashes(self):
        half, two_quarters = UniPoly.of(Fraction(2, 4)), UniPoly.of(Fraction(1, 2))
        assert half == two_quarters and hash(half) == hash(two_quarters)
        assert (half.num, half.den) == ((1,), 2)
        assert UniPoly.of(3, 0, 0) == UniPoly.of(3) and UniPoly.of(0, 0) == UniPoly.zero()

    @given(cs=st.lists(any_rational, min_size=1, max_size=6), k=any_rational.filter(lambda c: c != 0))
    def test_forms_from_differently_scaled_inputs_are_equal(self, cs, k):
        F = HomPoly.of(ST, cs)
        G = HomPoly.of(ST, [k * c for c in cs]) * (1 / k)
        assert G == F and hash(G) == hash(F)
        assert (G.num, G.den) == (F.num, F.den)
        assert _lowest_terms(F.num, F.den)
        assert affine(F) == UniPoly.from_coeffs(cs[::-1])

    def test_zero_forms_of_every_degree(self):
        line = HomPoly.of(ST, [Fraction(1, 3), Fraction(-7, 2)])
        for d in range(9):
            Z = HomPoly.zero(ST, d)
            assert Z.is_zero and Z.degree == d and (Z.num, Z.den) == ((0,) * (d + 1), 1)
            assert Z == HomPoly.of(ST, [Fraction(0, 5)] * (d + 1)) == line**d * 0
            assert Z != HomPoly.zero(ST, d + 1)
            assert Z * line == HomPoly.zero(ST, d + 1)
            assert Z + Z == Z and -Z == Z
            assert Z(3, Fraction(1, 2)) == 0
            assert affine(Z) == UniPoly.zero()
            assert Z.text() == "0"

    def test_a_negative_degree_is_refused(self):
        for d in (-1, -2):
            with pytest.raises(DegreeTooLow):
                HomPoly.zero(ST, d)
            with pytest.raises(DegreeTooLow):
                parse_hompoly("0", ST, d)
            for which in (0, 1):
                with pytest.raises(DegreeTooLow):
                    HomPoly.var_power(ST, which, d)

    def test_a_variable_power_names_one_of_the_two_variables(self):
        for which in (-1, 2, 5):
            with pytest.raises(DegreeMismatch):
                HomPoly.var_power(ST, which, 2)
        for d in range(4):
            assert HomPoly.var_power(ST, 0, d) == HomPoly.of(ST, [1] + [0] * d)
            assert HomPoly.var_power(ST, 1, d) == HomPoly.of(ST, [0] * d + [1])

    def test_coeffs_is_a_view_of_fractions(self):
        p = UniPoly.of(1, 2, -3)
        F = HomPoly.of(ST, [4, Fraction(-6, 4), 0])
        for poly in (p, F, p * p, F * F, p.divmod(UniPoly.of(2, 1))[0], F.swap()):
            assert all(type(c) is Fraction for c in poly.coeffs)
        assert F.coeffs == (Fraction(4), Fraction(-3, 2), Fraction(0))
        assert F.coeffs is F.coeffs
        assert p.coeff(7) == 0 and type(p.coeff(1)) is Fraction

    def test_forms_need_two_distinct_variables(self):
        for vars in (("s", "s"), ("s",), ("s", "t", "u")):
            with pytest.raises(DegreeMismatch):
                HomPoly.of(vars, [1, 2, 1])
            with pytest.raises(DegreeMismatch):
                HomPoly.zero(vars, 2)
            with pytest.raises(DegreeMismatch):
                HomPoly.var_power(vars, 0, 2)
            with pytest.raises(DegreeMismatch):
                HomPoly.of(ST, [1, 2, 1]).rename(vars)
            with pytest.raises(DegreeMismatch):
                homogenize(UniPoly.of(1, 1), vars, 1)


class TestGcd:
    def test_gcd_of_zeros_is_zero(self):
        assert gcd_poly(UniPoly.zero(), UniPoly.zero()).is_zero

    @given(p=unipolys(allow_zero=False))
    def test_gcd_with_zero(self, p):
        assert gcd_poly(p, UniPoly.zero()) == p.monic()

    @given(
        p=unipolys(max_degree=3, allow_zero=False),
        q=unipolys(max_degree=3, allow_zero=False),
        g=unipolys(max_degree=2, allow_zero=False),
    )
    @settings(max_examples=60)
    def test_common_factor_detected(self, p, q, g):
        d = gcd_poly(p * g, q * g)
        assert not d.is_zero
        assert d.num[-1] == d.den
        _divexact(p * g, d)  # no remainder
        _divexact(d, gcd_poly(d, g.monic()))  # g | d up to the p,q part

    @given(p=unipolys(allow_zero=False), q=unipolys(allow_zero=False))
    @settings(max_examples=60)
    def test_against_sympy(self, p, q):
        ours = gcd_poly(p, q)
        theirs = sp.gcd(_to_sympy(p), _to_sympy(q)).monic()
        assert _to_sympy(ours) == theirs


def _primitive(row: list[int]) -> list[int]:
    """The primitive part of an integer row with a positive lead; ``[]`` for
    zero."""
    g = math.gcd(*row)
    if g == 0:
        return []
    return [x // g if row[-1] > 0 else -x // g for x in row]


def _prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive pseudo-remainder sequence the integer gcd ran before
    the heuristic gcd, kept as an oracle that shares no code with it."""

    def pseudo_remainder(p: list[int], q: list[int]) -> list[int]:
        r = list(p)
        while len(r) >= len(q):
            top, shift = r[-1], len(r) - len(q)
            r = [x * q[-1] for x in r]
            for i, y in enumerate(q):
                r[i + shift] -= top * y
            while r and r[-1] == 0:
                r.pop()
        return r

    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(pseudo_remainder(a, b))
    return a


def _row_product(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _stripped(row: list[int]) -> list[int]:
    """``row`` without its zero top entries: ``[]`` for zero."""
    top = max((i + 1 for i, x in enumerate(row) if x), default=0)
    return list(row[:top])


def _checked_gcd(a: list[int], b: list[int]) -> list[int]:
    """``h`` of ``_int_gcd(a, b) == (h, qa, qb)``, after checking its
    cofactor contract ``a == h * qa`` and ``b == h * qb`` with the
    schoolbook product; a zero input has the cofactor ``[]``."""
    h, qa, qb = _int_gcd(a, b)
    for row, cofactor in ((a, qa), (b, qb)):
        assert _stripped(_row_product(h, cofactor) if cofactor else []) == _stripped(row)
        assert (cofactor == []) == (_stripped(row) == [])
    return h


def _sympy_gcd(a: list[int], b: list[int]) -> list[int]:
    g = sp.gcd(sp.Poly(a[::-1], _X, domain="ZZ"), sp.Poly(b[::-1], _X, domain="ZZ"))
    return _primitive([int(c) for c in g.all_coeffs()[::-1]])


# coefficients of 100 to 400 bits, or zero below the top
_wide_bits = st.builds(
    lambda sign, x: sign * x, st.sampled_from((1, -1)), st.integers(1 << 99, (1 << 400) - 1)
)
_wide_entry = st.one_of(st.just(0), _wide_bits)


def _wide_rows(min_degree: int, max_degree: int):
    return st.builds(
        lambda low, top: low + [top],
        st.lists(_wide_entry, min_size=min_degree, max_size=max_degree),
        _wide_bits,
    )


class TestIntegerGcd:
    """The kernel under ``gcd_form``, ``is_separable`` and the squarefree split."""

    def test_the_contract(self):
        # primitive, positive lead; one zero input; a constant input
        assert _checked_gcd([4, -6], []) == [-2, 3]
        assert _checked_gcd([0], [0, -5]) == [0, 1]
        assert _checked_gcd([-6], [2, 4, 8]) == [1]
        assert _checked_gcd([2, 4, 8], [-6]) == [1]
        assert _checked_gcd([-3, 0, 3], [-2, -2]) == [1, 1]
        assert _checked_gcd([-2, -4], [0, 3, 6]) == [1, 2]
        assert _checked_gcd([1, 2, 1], [1, 2, 1]) == [1, 2, 1]

    def test_the_cofactors(self, monkeypatch):
        # a zero input leaves the other's signed content, a constant input
        # both inputs as they are; neither divides
        divisions = []
        divmod_ = exactpoly._int_divmod
        monkeypatch.setattr(
            exactpoly, "_int_divmod", lambda p, q: divisions.append(q) or divmod_(p, q)
        )
        assert _int_gcd([4, -6], []) == ([-2, 3], [-2], [])
        assert _int_gcd([0], [0, -5]) == ([0, 1], [], [-5])
        assert _int_gcd([-6], [2, 4, 8]) == ([1], [-6], [2, 4, 8])
        assert divisions == []
        # the contents stay in the cofactors
        assert _int_gcd([-6, 0, 6], [4, 4]) == ([1, 1], [-6, 6], [4])
        assert _int_gcd([3, 6, 3], [-1, 0, 1]) == ([1, 1], [3, 3], [-1, 1])

    def test_an_unlucky_point_is_refused_by_trial_division(self, monkeypatch):
        # a = 3x - 2 and b = -x - 1 are coprime, but at xi = 4 their values
        # 10 and -5 share 5 = 1 + 4, read back as x + 1
        a, b = [-2, 3], [-1, -1]
        assert _xi_bits(a, b)[0] == 2
        assert _xi_candidate(a, b, 2) == [1, 1]
        divisions = []
        divmod_ = exactpoly._int_divmod
        monkeypatch.setattr(
            exactpoly, "_int_divmod", lambda p, q: divisions.append(q) or divmod_(p, q)
        )
        # the bound is computed once, after the refusal
        bits = []
        xi_bits = exactpoly._xi_bits
        monkeypatch.setattr(exactpoly, "_xi_bits", lambda p, q: bits.append(1) or xi_bits(p, q))
        assert _checked_gcd(a, b) == [1]
        assert divisions == [[1, 1]]
        assert bits == [1]

    @given(g=_wide_rows(1, 4), p=_wide_rows(0, 4), q=_wide_rows(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_wide_rows_with_a_planted_factor_against_the_prs_and_sympy(self, g, p, q):
        a, b = _row_product(g, p), _row_product(g, q)
        ours = _checked_gcd(a, b)
        assert ours == _prs_gcd(a, b) == _sympy_gcd(a, b)
        assert math.gcd(*ours) == 1 and ours[-1] > 0
        assert len(ours) >= len(g)

    def test_the_candidate_at_the_last_point_is_the_gcd(self, monkeypatch):
        # seeded inputs on which the first candidate is not the gcd; the
        # last point must give it with no trial division.  With the first
        # point moved to k_max (through _xi_start, the one home of the first
        # point) the kernel takes that candidate, the only one it draws, and
        # its trial division accepts it.
        rng = random.Random(20261019)
        candidate = exactpoly._xi_candidate

        def row(degree: int) -> list[int]:
            return [rng.randint(-3, 3) for _ in range(degree)] + [rng.choice((-2, -1, 1, 2))]

        unlucky = 0
        for _ in range(3000):
            g = row(rng.randint(0, 3))
            a = _primitive(_row_product(g, row(rng.randint(1, 5))))
            b = _primitive(_row_product(g, row(rng.randint(1, 5))))
            k, k_max = _xi_bits(a, b)
            want = _prs_gcd(a, b)
            assert _checked_gcd(a, b) == want
            if _xi_candidate(a, b, k) != want:
                unlucky += 1
                assert _xi_candidate(a, b, k_max) == want
                points = []
                with monkeypatch.context() as patch:
                    patch.setattr(exactpoly, "_xi_start", lambda a, b: k_max)
                    patch.setattr(
                        exactpoly,
                        "_xi_candidate",
                        lambda a, b, k: points.append(k) or candidate(a, b, k),
                    )
                    assert _checked_gcd(a, b) == want
                assert points == [k_max]
        assert unlucky >= 20

    def test_the_results_are_new_lists(self):
        # a zero input, a constant input, a constant gcd, an accepted
        # candidate and a content of 1 that _int_primitive copies: each of
        # h and the cofactors is a list of its own, for tuple and list inputs
        pairs = [
            ((4, -6), ()),
            ((0,), (2, 3)),
            ((-6,), (2, 4, 8)),
            ((-2, 3), (-1, -1)),
            ((-6, 0, 6), (4, 4)),
            ((1, 2, 1), (1, 2, 1)),
        ]
        for a, b in pairs:
            for x, y in ((a, b), (list(a), list(b))):
                out = _int_gcd(x, y)
                assert all(type(r) is list for r in out)
                assert not any(r is x or r is y for r in out)
        assert _int_gcd((1, 2, 1), (1, 2, 1)) == ([1, 2, 1], [1], [1])


# integer rows with a nonzero top, negative and non-unit ones included
_int_tops = st.integers(-12, 12).filter(bool)


def _int_rows(min_degree: int, max_degree: int):
    return st.builds(
        lambda low, top: low + [top],
        st.lists(st.integers(-30, 30), min_size=min_degree, max_size=max_degree),
        _int_tops,
    )


def _row_sum(a: list[int], b: list[int]) -> list[int]:
    return [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]


class TestIntegerDivmod:
    """The pseudo-division contract, whether a step divides its top by the
    divisor's lead or scales first."""

    @given(a=_int_rows(0, 6), b=_int_rows(0, 3))
    @example(a=[1, 0, 0, 1], b=[1, -1])
    @example(a=[5, -7, 3], b=[2, 0, -6])
    @settings(max_examples=150, deadline=None)
    def test_the_identity_and_the_scale(self, a, b):
        quo, rem, scale = exactpoly._int_divmod(a, b)
        product = _row_product(quo, b) if quo else []
        assert _stripped(_row_sum(product, rem)) == [scale * x for x in a]
        assert len(rem) < len(b)
        lc = b[-1]
        assert scale > 0 and lc ** max(len(a) - len(b) + 1, 0) % scale == 0
        if abs(lc) == 1:
            assert scale == 1

    @given(b=_int_rows(0, 3), q=_int_rows(0, 3), r=st.lists(st.integers(-30, 30), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_a_planted_quotient_takes_no_scale(self, b, q, r):
        # a = b q + r with deg r < deg b: lc(b) divides every top on the way
        r = r[: len(b) - 1]
        a = _row_sum(_row_product(q, b), r)
        assert exactpoly._int_divmod(a, b) == (q, _stripped(r), 1)


def _disc(p: UniPoly):
    """The discriminant of ``p`` at its actual degree."""
    return discriminant_form(p, p.degree)


def _sympy_discriminant_form(p: UniPoly, degree: int):
    """sympy's discriminant of the affine polynomial ``p``, read at the
    declared ``degree`` by the drop rule: a drop of one (a simple root at
    infinity) multiplies it by lc^2, a drop of two or more makes it 0."""
    drop = degree - p.degree
    if drop >= 2:
        return 0
    base = sp.discriminant(_to_sympy(p)) if p.degree >= 2 else 1
    return base * sp.Rational(p.coeffs[-1]) ** (2 * drop)


@st.composite
def binary_forms(draw):
    """Forms (a square) * (a factor) * t^k of declared degree 0..7: a
    repeated factor when the squared part has degree 1, zero leading
    coefficients (roots at infinity) when k > 0, the zero form when a part
    is zero."""
    square = HomPoly.of(ST, draw(st.lists(small_rational, min_size=1, max_size=2)))
    rest = HomPoly.of(ST, draw(st.lists(small_rational, min_size=1, max_size=4)))
    at_infinity = HomPoly.var_power(ST, 1, draw(st.integers(0, 2)))
    return square * square * rest * at_infinity


invertible_matrices = st.tuples(*[st.integers(-3, 3)] * 4).filter(
    lambda m: m[0] * m[3] != m[1] * m[2]
)


class TestResultantDiscriminant:
    def test_frozen_values(self):
        assert _disc(UniPoly.of(0, -4, 0, 1)) == 256
        assert _disc(UniPoly.of(1, 0, 0, 0, 1)) == 256

    def test_short_cubic_convention(self):
        f, g = Fraction(-4), Fraction(4)
        cubic = UniPoly.of(g, f, 0, 1)
        assert _disc(cubic) == -4 * f**3 - 27 * g**2

    def test_degree_too_low(self):
        with pytest.raises(DegreeTooLow):
            _disc(UniPoly.of(3, 1))
        with pytest.raises(DegreeTooLow):
            _disc(UniPoly.of(5))

    @given(p=unipolys(max_degree=4, allow_zero=False), q=unipolys(max_degree=4, allow_zero=False))
    @settings(max_examples=60)
    def test_resultant_against_sylvester_determinant(self, p, q):
        # independent oracle: build the classical Sylvester matrix here and
        # let sympy evaluate its determinant (sympy's own `resultant` uses a
        # different sign convention when both leading signs conspire)
        m, n = p.degree, q.degree
        if m == 0 or n == 0:
            ours = resultant(p, q)
            base = p.coeffs[0] if m == 0 else q.coeffs[0]
            other = n if m == 0 else m
            assert ours == base**other
            return
        size = m + n
        rows = []
        for i in range(n):
            rows.append(
                [0] * i
                + [sp.Rational(c) for c in reversed(p.coeffs)]
                + [0] * (size - i - m - 1)
            )
        for i in range(m):
            rows.append(
                [0] * i
                + [sp.Rational(c) for c in reversed(q.coeffs)]
                + [0] * (size - i - n - 1)
            )
        assert sp.Rational(resultant(p, q)) == sp.Matrix(rows).det()

    @given(
        p=unipolys(max_degree=3, allow_zero=False),
        q=unipolys(max_degree=3, allow_zero=False),
        r=unipolys(max_degree=3, allow_zero=False),
    )
    @settings(max_examples=60)
    def test_resultant_multiplicative(self, p, q, r):
        assert resultant(p * q, r) == resultant(p, r) * resultant(q, r)

    @given(p=unipolys(max_degree=5, allow_zero=False), c=small_rational)
    @settings(max_examples=60)
    def test_discriminant_shift_invariant(self, p, c):
        if p.degree < 2:
            return
        assert _disc(_loop_shift(p, c)) == _disc(p)

    def test_form_discriminant_degree_drop(self):
        # declared degree 4 on an actual cubic multiplies disc by lc^2
        q = UniPoly.of(-1, 0, 4, 4)
        assert _disc(q) == -176
        assert discriminant_form(q, 4) == 16 * -176
        # drop of two or more kills it
        assert discriminant_form(UniPoly.of(1, 1), 4) == 0
        assert discriminant_form(UniPoly.of(3, 1), 2) == 1 * 1
        with pytest.raises(DegreeMismatch):
            discriminant_form(UniPoly.of(1, 0, 0, 1), 2)

    def test_form_discriminant_against_the_drop_rule_oracle(self):
        rng = random.Random(20261018)
        for degree in range(2, 9):
            for drop in (0, 0, 1, 1, 2, 3):
                actual = degree - drop
                cs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(actual)]
                if rng.random() < 0.3 and actual >= 2:
                    cs[0] = cs[1] = Fraction(0)  # a double root at 0
                p = UniPoly.from_coeffs(cs + [Fraction(rng.choice([1, -2, 3]), rng.randint(1, 2))])
                expected = _sympy_discriminant_form(p, degree)
                assert sp.Rational(discriminant_form(p, degree)) == expected
                assert sp.Rational(form_discriminant(homogenize(p, ST, degree))) == expected

    @given(f=binary_forms(), g=binary_forms(), m=invertible_matrices)
    @settings(max_examples=80)
    def test_resultant_under_a_change_of_coordinates(self, f, g, m):
        a, b, c, d = m
        det = a * d - b * c
        moved = [h.substitute(HomPoly.of(ST, (a, b)), HomPoly.of(ST, (c, d))) for h in (f, g)]
        expected = det ** (f.degree * g.degree) * form_resultant(f, g)
        assert form_resultant(*moved) == expected

    @given(f=binary_forms(), m=invertible_matrices)
    @settings(max_examples=80)
    def test_discriminant_under_a_change_of_coordinates(self, f, m):
        n = f.degree
        if n < 2 or f.is_zero:
            return
        a, b, c, d = m
        moved = f.substitute(HomPoly.of(ST, (a, b)), HomPoly.of(ST, (c, d)))
        det = a * d - b * c
        assert form_discriminant(moved) == det ** (n * (n - 1)) * form_discriminant(f)


@st.composite
def separability_cases(draw):
    """The zero form of degree 0..6; a monomial ``c * s^a * t^b`` of degree
    0..8 (among them the constants, ``s^n`` and ``t^n``, whose partial in
    the other variable is zero); or ``g^2 * h * t^k`` of degree up to 10,
    with a repeated factor when ``g`` has degree 1 or 2 and a simple or
    double root at infinity when ``k`` is 1 or 2."""
    kind = draw(st.sampled_from(["zero", "monomial", "product", "product"]))
    if kind == "zero":
        return HomPoly.zero(ST, draw(st.integers(0, 6)))
    if kind == "monomial":
        c = draw(small_rational.filter(lambda c: c != 0))
        a, b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        return c * HomPoly.var_power(ST, 0, a) * HomPoly.var_power(ST, 1, b)
    g_size = draw(st.sampled_from([1, 1, 2, 3]))
    g = HomPoly.of(ST, draw(st.lists(small_rational, min_size=g_size, max_size=g_size)))
    h = HomPoly.of(ST, draw(st.lists(small_rational, min_size=1, max_size=5)))
    return g * g * h * HomPoly.var_power(ST, 1, draw(st.integers(0, 2)))


def _sympy_separable(f: HomPoly) -> bool:
    """The oracle verdict: a nonzero form of degree below 2 is separable,
    and one of degree ``n >= 2`` is when sympy's discriminant, read at
    degree ``n`` by the drop rule, is nonzero."""
    if f.is_zero:
        return False
    if f.degree < 2:
        return True
    return _sympy_discriminant_form(affine(f), f.degree) != 0


class TestIsSeparable:
    @pytest.mark.parametrize(
        "coeffs, separable",
        [
            ([1, 0, -1], True),  # s^2 - t^2
            ([0, 1, 0, -1], True),  # t (s^2 - t^2): a simple root at infinity
            ([0, 0, 1, 0, -1], False),  # t^2 (s^2 - t^2): a double one
            ([1, 1, -1, -1], False),  # (s + t)^2 (s - t)
            ([0, 1, 0], True),  # s t
            ([1, 0, 0], False),  # s^2
            ([1, 0, 0, 0, 0], False),  # s^4
            ([0, 0, 0, 0, 2], False),  # 2 t^4
            ([Fraction(1, 2), 0, Fraction(-1, 3)], True),
            ([5], True),
            ([0, 2], True),
            ([3, 1], True),
            ([0], False),
            ([0, 0], False),
            ([0, 0, 0, 0, 0], False),
        ],
    )
    def test_verdicts(self, coeffs, separable):
        assert is_separable(HomPoly.of(ST, coeffs)) is separable

    @given(f=separability_cases())
    @settings(max_examples=200)
    def test_against_the_sympy_discriminant(self, f):
        assert is_separable(f) == _sympy_separable(f)

    @given(f=separability_cases(), m=invertible_matrices)
    @settings(max_examples=100)
    def test_invariant_under_a_change_of_coordinates(self, f, m):
        a, b, c, d = m
        moved = f.substitute(HomPoly.of(ST, (a, b)), HomPoly.of(ST, (c, d)))
        assert is_separable(moved) == is_separable(f)


class TestPartials:
    @given(f=separability_cases())
    @settings(max_examples=60)
    def test_the_partials_are_sympys_at_one_degree_less(self, f):
        s, t = sp.symbols("s t")

        def expr(g: HomPoly):
            return sum(sp.Rational(c) * s ** (g.degree - k) * t**k for k, c in enumerate(g.coeffs))

        if f.degree == 0:
            with pytest.raises(DegreeTooLow):
                form_partials(f)
            return
        for got, var in zip(form_partials(f), (s, t)):
            assert (got.vars, got.degree) == (f.vars, f.degree - 1)
            assert sp.expand(expr(got) - sp.diff(expr(f), var)) == 0


def _reconstruct(split) -> HomPoly:
    """``unit * product(factor^multiplicity)``: the form a split describes."""
    unit, factors = split
    result = HomPoly.constant(ST, unit)
    for f, m in factors:
        result = result * f**m
    return result


def _round_trip_squarefree_split(f: HomPoly) -> tuple[Fraction, tuple]:
    """Yun's loop on ``UniPoly``: dehomogenize, split, homogenize each
    factor back.  The integer-row loop must give the same fields."""
    if f.is_zero:
        raise DegreeTooLow("zero form has no squarefree decomposition")
    e = f.second_var_multiplicity()
    u = affine(f)
    factors = [(HomPoly.var_power(f.vars, 1, 1), e)] if e else []
    c = u.monic()
    dc = c.derivative()
    g = gcd_poly(c, dc)
    c = _divexact(c, g)
    d = _divexact(dc, g) - c.derivative()
    for i in range(1, u.degree + 1):
        if c.degree == 0:
            break
        g = gcd_poly(c, d)
        if g.degree > 0:
            factors.append((homogenize(g, f.vars, g.degree), i))
        c = _divexact(c, g)
        d = _divexact(d, g) - c.derivative()
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return u.coeffs[-1], tuple(factors)


def _split_fields(split: tuple[Fraction, tuple]):
    unit, factors = split
    return type(unit), unit, [(_fields(f), m) for f, m in factors]


@st.composite
def yun_forms(draw):
    """``c * g^a * h^b * t^e``: ``c`` a nonzero rational, ``g`` and ``h``
    nonzero forms of degree up to 2, all with denominators up to 4."""
    part = st.lists(small_rational, min_size=1, max_size=3).filter(any)
    c = draw(small_rational.filter(lambda c: c != 0))
    g, h = HomPoly.of(ST, draw(part)), HomPoly.of(ST, draw(part))
    a, b, e = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return c * g**a * h**b * HomPoly.var_power(ST, 1, e)


class TestSquarefree:
    @given(f=yun_forms())
    @settings(max_examples=200, deadline=None)
    def test_the_row_loop_matches_the_unipoly_round_trip(self, f):
        split = squarefree_split(f)
        assert _split_fields(split) == _split_fields(_round_trip_squarefree_split(f))
        assert _reconstruct(split) == f

    @pytest.mark.parametrize(
        "text, unit, factors",
        [
            # d becomes zero: the last factor is c itself
            ("s^2", 1, [("s", 2)]),
            ("s^3*t^2", 1, [("t", 2), ("s", 3)]),
            ("2*t^4", 2, [("t", 4)]),
            ("7", 7, []),
            ("-1/3", Fraction(-1, 3), []),
            # (s + t)^3 (s - t)^2 t
            (
                "s^5*t + s^4*t^2 - 2*s^3*t^3 - 2*s^2*t^4 + s*t^5 + t^6",
                1,
                [("t", 1), ("s - t", 2), ("s + t", 3)],
            ),
            ("-4*s^2 - 4*s*t - t^2", -4, [("s + 1/2*t", 2)]),
        ],
    )
    def test_edge_cases(self, text, unit, factors):
        f = parse_hompoly(text, ST)
        split = squarefree_split(f)
        assert split[0] == unit and type(split[0]) is Fraction
        assert [(g.text(), m) for g, m in split[1]] == factors
        assert _split_fields(split) == _split_fields(_round_trip_squarefree_split(f))

    def test_the_zero_form_has_no_split(self):
        for d in range(4):
            with pytest.raises(DegreeTooLow):
                squarefree_split(HomPoly.zero(ST, d))

    def test_two_hundred_random_products_reconstruct(self):
        rng = random.Random(20260819)
        for _ in range(200):
            n_factors = rng.randint(1, 3)
            p = UniPoly.of(Fraction(rng.choice([1, 2, -3, 5]), rng.choice([1, 2])))
            for _ in range(n_factors):
                deg = rng.randint(1, 2)
                coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(deg)] + [
                    Fraction(rng.choice([1, 2, 3, -1]))
                ]
                p = p * (UniPoly.from_coeffs(coeffs) ** rng.randint(1, 3))
            form = homogenize(p, ST, p.degree)
            split = squarefree_split(form)
            assert _reconstruct(split) == form
            for f, _m in split[1]:
                assert _leading_in_first(f) == 1
                u = affine(f)
                assert gcd_poly(u, u.derivative()).degree == 0

    @given(p=unipolys(max_degree=4, allow_zero=False))
    @settings(max_examples=60)
    def test_squarefree_part_matches_sympy(self, p):
        if p.degree == 0:
            return
        ours = HomPoly.constant(ST, 1)
        for f, _m in squarefree_split(homogenize(p, ST, p.degree))[1]:
            ours = ours * f
        theirs = _to_sympy(p).div(_to_sympy(gcd_poly(p, p.derivative())))[0].monic()
        assert _to_sympy(affine(ours).monic()).as_expr() == theirs.as_expr()

    def test_form_split_keeps_second_variable_factor(self):
        F = HomPoly.of(("s", "t"), [0, 0, 2, 0, -2])
        split = squarefree_split(F)
        assert split[0] == 2
        assert _reconstruct(split) == F
        factor_texts = {(f.text(), m) for f, m in split[1]}
        assert factor_texts == {("t", 2), ("s^2 - t^2", 1)}

    def test_refine_against_uniform_powers(self):
        rng = random.Random(7)
        quad = HomPoly.of(ST, (1, 0, 1))  # s^2 + t^2, irreducible over Q
        outside = HomPoly.of(ST, (1, 0, -2))  # s^2 - 2 t^2, coprime to f
        for _ in range(50):
            lines = [HomPoly.of(ST, (1, -r)) for r in rng.sample(range(-6, 7), k=3)]
            lines.append(HomPoly.of(ST, (0, 1)))  # the place t at infinity
            rng.shuffle(lines)
            f = quad
            for line in lines:
                f = f * line
            q = outside
            for g in (lines[0], lines[1], quad):
                q = q * g ** rng.randint(0, 3)
            pieces = refine_against(f, q)
            product = HomPoly.constant(ST, 1)
            for piece, _k in pieces:
                product = product * piece
            assert product == _monic_in_first(f)
            ks = [k for _piece, k in pieces]
            assert len(set(ks)) == len(ks)
            in_q = form_multiplicities(q.coeffs)
            for piece, k in pieces:
                assert _leading_in_first(piece) == 1
                for factor in form_multiplicities(piece.coeffs):
                    assert in_q.get(factor, 0) == k

    def test_refine_against_a_top_power_takes_every_pass(self):
        # a linear factor dividing q to the power deg q is only split off
        # on the last of the deg q + 1 passes
        for f in (HomPoly.of(ST, (1, -1)), HomPoly.of(ST, (0, 1))):
            for n in range(1, 7):
                assert refine_against(f, f**n) == [(f, n)]

    def test_refine_against_zero_is_identity(self):
        f = HomPoly.of(ST, (0, 1, 0))
        assert refine_against(f, HomPoly.zero(ST, 3)) == [(f, None)]

    def test_refine_against_refuses_a_zero_form(self):
        # a zero form has no places to split, whatever its degree
        q = HomPoly.of(ST, (1, 0, -1))
        for d in range(1, 4):
            with pytest.raises(DegreeTooLow):
                refine_against(HomPoly.zero(ST, d), q)


def _rows_of(f: HomPoly) -> tuple[int, list[int]]:
    """The power of ``t`` in ``f`` and the numerators of ``f(s, 1)`` in
    ascending powers of ``s``."""
    e = f.second_var_multiplicity()
    return e, list(f.num[e:][::-1])


def _pseudo_divexact(p: HomPoly, f: HomPoly) -> HomPoly:
    """``p / f`` for an exact division, by one pseudo-division of the rows."""
    (ep, a), (ef, b) = _rows_of(p), _rows_of(f)
    quo, rem, scale = exactpoly._int_divmod(a, b)
    assert ep >= ef and not rem
    tail = [Fraction(x * f.den, scale * p.den) for x in reversed(quo)]
    return HomPoly.of(p.vars, [0] * (ep - ef) + tail)


def _gcd_then_divide_split(f: HomPoly) -> tuple[Fraction, tuple]:
    """Yun's loop as it ran before the gcd returned its cofactors: each
    pass reads the gcd alone and pseudo-divides ``c`` and ``d`` by it."""
    e, row = _rows_of(f)
    factors = [(HomPoly.var_power(f.vars, 1, 1), e)] if e else []
    c, d = row, [i * x for i, x in enumerate(row)][1:]
    for i in range(len(row)):
        g = _int_gcd(c, d)[0]
        if i and len(g) > 1:
            factors.append((HomPoly(f.vars, tuple(g[::-1]), g[-1]), i))
        c = exactpoly._int_divmod(c, g)[0]
        d = exactpoly._int_divmod(d, g)[0]
        dc = [i * x for i, x in enumerate(c)][1:]
        d = [x - y for x, y in itertools.zip_longest(d, dc, fillvalue=0)]
        if len(c) == 1:
            break
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return Fraction(row[-1], f.den), tuple(factors)


def _gcd_then_divide_refine(f: HomPoly, q: HomPoly) -> list:
    """``refine_against`` as it ran before the gcd returned its cofactors:
    each pass takes ``gcd_form`` and divides ``g`` and ``r`` by it."""
    if q.is_zero:
        return [(f, None)]
    pieces = []
    g, r = f, q
    for k in range(q.degree + 1):
        d = gcd_form(g, r)
        e = _pseudo_divexact(g, d)
        if e.degree > 0:
            pieces.append((_monic_in_first(e), k))
        if d.degree == 0:
            break
        g, r = d, _pseudo_divexact(r, d)
    return pieces


def _gcd_pass_refine(f: HomPoly, q: HomPoly) -> list:
    """``refine_against`` with every ``f`` taking its passes of the integer
    gcd, as it ran before ``f = c * t`` was read off the power of ``t`` in
    ``q``: pass ``k`` takes ``d = gcd(g, r)`` with the cofactors ``g / d``,
    the piece, and ``r / d``."""
    if q.is_zero:
        return [(f, None)]
    pieces = []
    (eg, g), (er, r) = _rows_of(f), _rows_of(q)
    for k in range(q.degree + 1):
        d, piece, r = _int_gcd(g, r)
        ed = min(eg, er)
        if eg > ed or len(piece) > 1:
            tail = [Fraction(x, piece[-1]) for x in reversed(piece)]
            pieces.append((HomPoly.of(f.vars, [0] * (eg - ed) + tail), k))
        if ed == 0 and len(d) == 1:
            break
        eg, g, er = ed, d, er - ed
    return pieces


def _seeded_refinements(seed: int, count: int):
    """``(f, q)`` pairs: ``f`` is ``c * t``, a constant ``c`` or ``c`` times
    distinct lines (and now and then ``t``), for ``c`` not +-1; ``q`` is
    zero now and then, else a scalar times ``t`` to a power up to 9 times
    powers of some of f's lines and of one line outside f."""
    rng = random.Random(seed)
    t = HomPoly.var_power(ST, 1, 1)
    roots = sorted({Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)})
    scalars = [Fraction(n, d) for n in (2, -3, 5, -7) for d in (1, 4, 9)]
    for trial in range(count):
        lines = [HomPoly.of(ST, (x.denominator, -x.numerator)) for x in rng.sample(roots, 4)]
        f = HomPoly.constant(ST, rng.choice(scalars))
        if trial % 3 == 0:
            f = f * t
        elif trial % 3 == 2:
            for line in lines[: rng.randint(1, 3)]:
                f = f * line
            if rng.random() < 0.5:
                f = f * t
        if rng.random() < 0.15:
            q = HomPoly.zero(ST, rng.randint(0, 4))
        else:
            q = HomPoly.constant(ST, rng.choice(scalars)) * t ** rng.randint(0, 9)
            for line in lines:
                q = q * line ** rng.randint(0, 2)
        yield f, q


# primitive forms of degree 1 or 2 prime to t, and scalars that are not
# integers: a scalar times a product of them has that scalar's denominator
_parts = (
    st.lists(st.integers(-4, 4), min_size=2, max_size=3)
    .filter(lambda row: row[0] != 0 and math.gcd(*row) == 1)
    .map(lambda row: HomPoly.of(ST, row))
)
_scalars = st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(2, 5)).filter(
    lambda c: c.denominator > 1
)


@st.composite
def planted_multiplicities(draw):
    """``c * t^e * product(part^m)``: one to three parts, multiplicities and
    ``e`` up to 3, and a denominator of 2 to 5."""
    form = draw(_scalars) * HomPoly.var_power(ST, 1, draw(st.integers(0, 3)))
    for part in draw(st.lists(_parts, min_size=1, max_size=3)):
        form = form * part ** draw(st.integers(1, 3))
    return form


@st.composite
def planted_refinements(draw):
    """``(f, q)``: ``f`` a scalar times ``t`` (now and then) times one to
    three parts; ``q`` a scalar times ``t^e`` times each part of ``f`` and
    one more part, each to a power up to 3."""
    parts = draw(st.lists(_parts, min_size=1, max_size=3))
    f = draw(_scalars) * HomPoly.var_power(ST, 1, draw(st.integers(0, 1)))
    q = draw(_scalars) * HomPoly.var_power(ST, 1, draw(st.integers(0, 3)))
    for part in parts + [draw(_parts)]:
        if part in parts:
            f = f * part
        q = q * part ** draw(st.integers(0, 3))
    return f, q


class TestCofactorLoops:
    """The loops that read the gcd's cofactors give what the loops that
    divided by the gcd gave."""

    @given(f=planted_multiplicities())
    @settings(max_examples=80, deadline=None)
    def test_the_squarefree_split(self, f):
        assert f.den > 1
        assert _split_fields(squarefree_split(f)) == _split_fields(_gcd_then_divide_split(f))

    @given(pair=planted_refinements())
    @settings(max_examples=80, deadline=None)
    def test_refine_against(self, pair):
        f, q = pair
        assert f.den > 1 and q.den > 1
        want = [(_fields(piece), k) for piece, k in _gcd_then_divide_refine(f, q)]
        assert [(_fields(piece), k) for piece, k in refine_against(f, q)] == want

    def test_refine_against_reads_the_place_at_infinity_off_q(self):
        # c * t, for c not +-1, gives the monic t with t's power in q, a
        # constant f gives no piece, and q = 0 gives f itself
        t = HomPoly.var_power(ST, 1, 1)
        kinds = set()
        for f, q in _seeded_refinements(20261021, 300):
            want = [(_fields(piece), k) for piece, k in _gcd_pass_refine(f, q)]
            got = refine_against(f, q)
            assert [(_fields(piece), k) for piece, k in got] == want
            if q.is_zero:
                kinds.add("q = 0")
                assert got == [(f, None)]
            elif f.degree == 0:
                kinds.add("constant f")
                assert got == []
            elif f.degree == 1 and f.second_var_multiplicity() == 1:
                kinds.add("c * t")
                assert got == [(t, q.second_var_multiplicity())]
                kinds.add("t^7 | q" if got[0][1] >= 7 else "c * t")
        assert kinds == {"q = 0", "constant f", "c * t", "t^7 | q"}


class TestHomPoly:
    def test_arithmetic_and_degree_guards(self):
        a = HomPoly.of(("s", "t"), [1, 2, 3])
        b = HomPoly.of(("s", "t"), [0, 1, 0])
        assert (a + b).coeffs == (Fraction(1), Fraction(3), Fraction(3))
        with pytest.raises(DegreeMismatch):
            a + HomPoly.of(("s", "t"), [1, 1])
        with pytest.raises(DegreeMismatch):
            a + HomPoly.of(("u", "v"), [1, 1, 1])

    def test_check_forms_reads_one_pair_and_the_degrees_in_order(self):
        quadric = HomPoly.of(("s", "t"), [1, 0, 1])
        quartic = HomPoly.of(("s", "t"), [1, 0, 0, 0, 1])
        check_forms((quadric, quartic), (2, 4), "data")
        with pytest.raises(DegreeMismatch, match=r"data needs degrees \(4, 2\), got \(2, 4\)"):
            check_forms((quadric, quartic), (4, 2), "data")
        with pytest.raises(DegreeMismatch, match="data needs degrees"):
            check_forms((quadric, quadric), (2,), "data")
        with pytest.raises(DegreeMismatch, match="data needs forms on one variable pair"):
            check_forms((quadric, quartic.rename(("u", "v"))), (2, 4), "data")

    def test_swap_is_an_involution_and_reverses(self):
        a = HomPoly.of(("s", "t"), [1, 2, 3, 4])
        assert a.swap().coeffs == (4, 3, 2, 1)
        assert a.swap().swap() == a

    def test_homogenize_round_trip(self):
        p = UniPoly.of(1, 0, -2)
        F = homogenize(p, ("s", "t"), 4)
        assert F.second_var_multiplicity() == 2
        assert affine(F) == p
        with pytest.raises(DegreeMismatch):
            homogenize(p, ("s", "t"), 1)

    def test_substitute_composes_degrees(self):
        F = HomPoly.of(("s", "t"), [1, 0, -1])  # s^2 - t^2
        sq_s = HomPoly.of(("u", "v"), [1, 0, 0])
        sq_t = HomPoly.of(("u", "v"), [0, 0, 1])
        G = F.substitute(sq_s, sq_t)  # u^4 - v^4
        assert G == HomPoly.of(("u", "v"), [1, 0, 0, 0, -1])

    def test_evaluate_matches_text_round_trip(self):
        F = HomPoly.of(("s", "t"), [2, Fraction(-1, 2), 0, 1])
        assert parse_hompoly(F.text(), ("s", "t")) == F
        assert F(2, 3) == 2 * 8 + Fraction(-1, 2) * 4 * 3 + 27

    def test_gcd_and_division_of_forms(self):
        s_min_t = HomPoly.of(("s", "t"), [1, -1])
        t_ = HomPoly.of(("s", "t"), [0, 1])
        F = s_min_t**2 * t_ * 3
        G = s_min_t * t_**2 * HomPoly.of(("s", "t"), [5])
        d = gcd_form(F, G)
        assert d == s_min_t * t_
        assert divexact_form(F, d) == s_min_t * 3
        with pytest.raises(ExactDivisionError):
            divexact_form(F, HomPoly.of(("s", "t"), [1, 1]))

    def test_division_and_gcd_need_one_variable_pair(self):
        st_square = HomPoly.of(("s", "t"), [1, 0, -1])  # s^2 - t^2
        uv_line = HomPoly.of(("u", "v"), [1, -1])  # u - v
        with pytest.raises(DegreeMismatch):
            divexact_form(st_square, uv_line)
        with pytest.raises(DegreeMismatch):
            gcd_form(st_square, uv_line)
        with pytest.raises(DegreeMismatch):
            gcd_form(HomPoly.zero(("s", "t"), 2), uv_line)
        with pytest.raises(DegreeMismatch):
            refine_against(uv_line, st_square)
        with pytest.raises(DegreeMismatch):
            refine_against(uv_line, HomPoly.zero(("s", "t"), 2))

    def test_form_discriminant_conventions(self):
        quad = HomPoly.of(("s", "t"), [1, 0, -1])
        assert form_discriminant(quad) == 4
        double = HomPoly.of(("s", "t"), [0, 0, 1, 0, 0])  # s^2 t^2
        assert form_discriminant(double) == 0

    def test_form_sqrt(self):
        t_ = HomPoly.of(ST, (0, 1))
        for root in (
            HomPoly.of(ST, (2, -1, Fraction(3, 2))),
            t_ * HomPoly.of(ST, (Fraction(1, 3), 0, -4)),  # the square has a t^2 factor
            t_**2,
            HomPoly.of(ST, (5,)),
        ):
            assert form_sqrt(root * root) == root
            assert form_sqrt((-root) * (-root)) == root
        assert form_sqrt(HomPoly.zero(ST, 4)) == HomPoly.zero(ST, 2)
        # non-squares: an odd degree, a sum of squares, non-square leading
        # coefficients, and s^3 (s + t)
        for text in ("s^3", "s^2 + t^2", "2*s^2", "-s^2*t^2", "s^4 + s^3*t"):
            assert form_sqrt(parse_hompoly(text, ST)) is None
        # an odd power of t is never part of a square, even in an even degree
        for text in ("s*t^3", "s^3*t", "s^3*t^3"):
            assert form_sqrt(parse_hompoly(text, ST)) is None


# ---------------------------------------------------------------------------
# the form kernels on the integer rows, against the affine round trip they
# replace: dehomogenize, work on UniPoly, homogenize, and make monic
# through a Fraction scalar


def _round_trip_gcd_form(p: HomPoly, q: HomPoly) -> HomPoly:
    if p.is_zero and q.is_zero:
        return HomPoly.zero(p.vars, 0)
    if p.is_zero or q.is_zero:
        return _monic_in_first(q if p.is_zero else p)
    e = min(p.second_var_multiplicity(), q.second_var_multiplicity())
    g = gcd_poly(affine(p), affine(q))
    return _monic_in_first(homogenize(g, p.vars, g.degree + e))


def _round_trip_divexact_form(p: HomPoly, f: HomPoly) -> HomPoly:
    if p.is_zero:
        return HomPoly.zero(p.vars, max(p.degree - f.degree, 0))
    if p.degree >= f.degree and p.second_var_multiplicity() >= f.second_var_multiplicity():
        quo, rem = affine(p).divmod(affine(f))
        if rem.is_zero:
            return homogenize(quo, p.vars, p.degree - f.degree)
    raise ExactDivisionError("form division left a remainder")


def _fields(f: HomPoly):
    return f.vars, f.num, f.den


_S, _T = sp.symbols("s t")


def _form_expr(f: HomPoly):
    d = f.degree
    return sum(
        (sp.Rational(c.numerator, c.denominator) * _S ** (d - k) * _T**k for k, c in enumerate(f.coeffs)),
        sp.Integer(0),
    )


@st.composite
def forms_at_infinity(draw, max_part=3):
    """``c * g * t^e`` with ``e <= 3``: ``g`` has rational coefficients with
    denominators up to 4 and up to ``max_part + 1`` of them, and ``c`` is
    zero now and then, which gives the zero form of that degree."""
    g = HomPoly.of(ST, draw(st.lists(small_rational, min_size=1, max_size=max_part + 1)))
    t_e = HomPoly.var_power(ST, 1, draw(st.integers(0, 3)))
    return draw(st.sampled_from([1, 1, 1, 1, 0])) * g * t_e


# a zero operand in either place, against a form with a factor t^e, a
# negative lead and fractional entries, and the zero form against itself
_ZERO_GCD_OPERANDS = [
    dict(
        common=HomPoly.constant(ST, 1),
        a=HomPoly.zero(ST, 3),
        b=HomPoly.of(ST, [0, Fraction(-3, 2), 0, Fraction(5, 4)]),
    ),
    dict(
        common=HomPoly.var_power(ST, 1, 2),
        a=HomPoly.of(ST, [Fraction(-2, 3), Fraction(1, 5)]),
        b=HomPoly.zero(ST, 1),
    ),
    dict(common=HomPoly.constant(ST, 1), a=HomPoly.zero(ST, 2), b=HomPoly.zero(ST, 3)),
]


class TestFormKernelsOnTheRows:
    @given(common=forms_at_infinity(2), a=forms_at_infinity(), b=forms_at_infinity())
    @settings(max_examples=150)
    @example(**_ZERO_GCD_OPERANDS[0])
    @example(**_ZERO_GCD_OPERANDS[1])
    @example(**_ZERO_GCD_OPERANDS[2])
    def test_gcd_matches_the_affine_round_trip_and_sympy(self, common, a, b):
        p, q = common * a, common * b
        ours = gcd_form(p, q)
        assert _fields(ours) == _fields(_round_trip_gcd_form(p, q))
        theirs = sp.gcd(_form_expr(p), _form_expr(q))
        if theirs == 0:
            assert ours.is_zero
            return
        ratio = sp.cancel(_form_expr(ours) / theirs)
        assert ratio.is_Rational and ratio != 0
        if not common.is_zero:
            divexact_form(ours, _monic_in_first(common))

    @given(f=forms_at_infinity(), quo=forms_at_infinity(), other=forms_at_infinity())
    @settings(max_examples=150)
    def test_divexact_matches_the_affine_round_trip(self, f, quo, other):
        if f.is_zero:
            return
        for p in (f * quo, other):
            try:
                want = _round_trip_divexact_form(p, f)
            except ExactDivisionError:
                with pytest.raises(ExactDivisionError):
                    divexact_form(p, f)
            else:
                assert _fields(divexact_form(p, f)) == _fields(want)
        assert divexact_form(f * quo, f) == quo

    @pytest.mark.parametrize(
        "dividend, divisor, want",
        [
            # the degree and the power of t both allow it, but the affine
            # part s of the dividend is below the affine part s^2
            ("s*t^3", "s^2", None),
            ("s*t^3", "s^2*t", None),
            ("s^2 - t^2", "s + 2*t", None),
            # constant divisors
            ("2*s^2 - 3*s*t", "3/2", "4/3*s^2 - 2*s*t"),
            ("t^3", "-5", "-1/5*t^3"),
            ("7", "2", "7/2"),
            # a zero dividend is the zero form of degree max(dp - df, 0)
            ((2, "0"), "s^3 + t^3", (0, "0")),
            ((5, "0"), "s^2", (3, "0")),
            ((4, "0"), "s*t - 1/2*t^2", (2, "0")),
            # quotients divisible by t keep their leading zeros
            ("s*t^2 + t^3", "s + t", "t^2"),
            ("t^3", "t", "t^2"),
            ("1/3*s*t^4 - t^5", "t^2", "1/3*s*t^2 - t^3"),
            ("s^2*t^2 - t^4", "s*t - t^2", "s*t + t^2"),
            # a monomial divisor: a shift and a scale, refused above the
            # dividend's power of t
            ("2*s*t^2 - 4*t^3", "-2/3*t^2", "-3*s + 6*t"),
            ("s*t^2", "t^3", None),
            ("s^3", "-2*t^2", None),
        ],
    )
    def test_divexact_edge_cases(self, dividend, divisor, want):
        def form(text):
            degree, text = text if isinstance(text, tuple) else (None, text)
            return parse_hompoly(text, ST, degree)

        p, f = form(dividend), form(divisor)
        if want is None:
            with pytest.raises(ExactDivisionError):
                divexact_form(p, f)
            with pytest.raises(ExactDivisionError):
                _round_trip_divexact_form(p, f)
            return
        got = divexact_form(p, f)
        assert _fields(got) == _fields(form(want))
        assert _fields(got) == _fields(_round_trip_divexact_form(p, f))
        assert _lowest_terms(got.num, got.den)


    def test_a_monomial_divisor_takes_the_one_pseudo_division(self, monkeypatch):
        # a one-entry divisor row is divided as any other row is; a power of
        # t the dividend lacks is refused before any division
        divisions = []
        divmod_ = exactpoly._int_divmod
        monkeypatch.setattr(
            exactpoly, "_int_divmod", lambda p, q: divisions.append(q) or divmod_(p, q)
        )
        p = parse_hompoly("1/3*s^2*t^2 - 5*s*t^3 + 7/2*t^4", ST)
        for divisor in ("6", "-1/4*t", "3/5*t^2"):
            f = parse_hompoly(divisor, ST)
            got = divexact_form(p, f)
            assert _fields(got) == _fields(_pseudo_divexact(p, f))
            assert got * f == p
        # divexact_form's, then the oracle's
        assert [list(q) for q in divisions] == [[6], [6], [-1], [-1], [3], [3]]
        with pytest.raises(ExactDivisionError):
            divexact_form(p, parse_hompoly("-t^3", ST))
        assert len(divisions) == 6


class TestPowers:
    @given(p=unipolys(), f=forms_at_infinity())
    @settings(max_examples=60)
    def test_powers_equal_repeated_products(self, p, f):
        by_uni, by_form = UniPoly.of(1), HomPoly.constant(ST, 1)
        for n in range(7):
            assert ((p**n).num, (p**n).den) == (by_uni.num, by_uni.den)
            assert _fields(f**n) == _fields(by_form)
            by_uni, by_form = by_uni * p, by_form * f

    def test_zero_powers(self):
        for n in range(7):
            assert UniPoly.zero() ** n == (UniPoly.of(1) if n == 0 else UniPoly.zero())
            want = HomPoly.constant(ST, 1) if n == 0 else HomPoly.zero(ST, 2 * n)
            assert HomPoly.zero(ST, 2) ** n == want

    def test_a_negative_power_is_refused(self):
        for poly in (UniPoly.of(1, 2), UniPoly.zero(), HomPoly.of(ST, [1, 2]), HomPoly.zero(ST, 1)):
            with pytest.raises(ValueError):
                poly ** -1


# ---------------------------------------------------------------------------
# bidegree forms, against Fraction grids kept here


UV = ("u", "v")


@st.composite
def grids(draw, d1=None, d2=None):
    """A (d1 + 1) x (d2 + 1) Fraction grid, sometimes with a zero row."""
    d1 = draw(st.integers(0, 3)) if d1 is None else d1
    d2 = draw(st.integers(0, 3)) if d2 is None else d2
    rows = [draw(st.lists(any_rational, min_size=d2 + 1, max_size=d2 + 1)) for _ in range(d1 + 1)]
    blank = draw(st.integers(-1, d1))
    if blank >= 0:
        rows[blank] = [Fraction(0)] * (d2 + 1)
    return rows


@st.composite
def grid_pairs(draw):
    d1, d2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return draw(grids(d1, d2)), draw(grids(d1, d2))


def _ref_grid_mul(a, b):
    out = [[Fraction(0)] * (len(a[0]) + len(b[0]) - 1) for _ in range(len(a) + len(b) - 1)]
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            for k, orow in enumerate(b):
                for l, y in enumerate(orow):
                    out[i + k][j + l] += x * y
    return out


def _ref_grid_value(grid, s, t, u, v):
    d1, d2 = len(grid) - 1, len(grid[0]) - 1
    return sum(
        (
            c * s ** (d1 - i) * t**i * u ** (d2 - j) * v**j
            for i, row in enumerate(grid)
            for j, c in enumerate(row)
        ),
        Fraction(0),
    )


def _ref_affine22(grid, x, x0):
    """phi(x, x0) with grid[i][j] the coefficient of x^(2-i) * x0^(2-j)."""
    return sum(
        (c * x ** (2 - i) * x0 ** (2 - j) for i, row in enumerate(grid) for j, c in enumerate(row)),
        Fraction(0),
    )


def _grid(B: BiHomPoly) -> list[list[Fraction]]:
    assert _lowest_terms(tuple(n for row in B.num for n in row), B.den)
    assert all(type(c) is Fraction for row in B.rows for c in row)
    return [list(row) for row in B.rows]


class TestBiHomPoly:
    def test_tensor_and_coefficient_extraction(self):
        p = HomPoly.of(("s", "t"), [1, 2])
        q = HomPoly.of(("u", "v"), [3, 0, -1])
        B = tensor_forms(p, q)
        assert B.deg1 == 1 and B.deg2 == 2
        assert B.rows[0] == q.coeffs
        assert B.pair2_coefficient(2) == p * -1
        assert B(1, 1, 2, 1) == p(1, 1) * q(2, 1)

    def test_substitute_pair2(self):
        p = HomPoly.of(("s", "t"), [1, 0])
        q = HomPoly.of(("u", "v"), [1, 0, -1])  # u^2 - v^2
        B = tensor_forms(p, q)
        uu = HomPoly.of(("a", "b"), [1, 0, 0])
        vv = HomPoly.of(("a", "b"), [0, 0, 1])
        C = B.substitute_pair2(uu, vv)
        assert C == tensor_forms(p, HomPoly.of(("a", "b"), [1, 0, 0, 0, -1]))

    @given(a=grids(), b=grids(), p=st.lists(any_rational, min_size=1, max_size=4),
           q=st.lists(any_rational, min_size=1, max_size=4))
    @settings(deadline=None)
    def test_products_and_tensors_match_the_grid_schoolbook(self, a, b, p, q):
        A, B = bihom(ST, UV, a), bihom(ST, UV, b)
        assert _grid(A * B) == _ref_grid_mul(a, b)
        assert _grid(tensor_forms(HomPoly.of(ST, p), HomPoly.of(UV, q))) == [
            [x * y for y in q] for x in p
        ]

    @given(ab=grid_pairs(), c=any_rational)
    def test_sums_and_scalar_multiples_match_the_grid_schoolbook(self, ab, c):
        a, b = ab
        A, B = bihom(ST, UV, a), bihom(ST, UV, b)
        pairs = [list(zip(ra, rb)) for ra, rb in zip(a, b)]
        assert _grid(A + B) == [[x + y for x, y in row] for row in pairs]
        assert _grid(A - B) == [[x - y for x, y in row] for row in pairs]
        assert _grid(c * A) == _grid(A * c) == [[c * x for x in row] for row in a]
        assert _grid(A - A) == [[0] * len(row) for row in a] and (A - A).den == 1

    @given(a=grids(), f=st.lists(any_rational, min_size=1, max_size=3), data=st.data())
    @settings(deadline=None)
    def test_coefficients_substitution_and_values_match_the_grid(self, a, f, data):
        A = bihom(ST, UV, a)
        for j in range(len(a[0])):
            assert list(A.pair2_coefficient(j).coeffs) == [row[j] for row in a]
        s, t, u, v = (data.draw(any_rational) for _ in range(4))
        assert A(s, t, u, v) == _ref_grid_value(a, s, t, u, v)
        d2 = len(a[0]) - 1
        assert list(A.specialize_pair2(u, v).coeffs) == [
            sum((c * u ** (d2 - j) * v**j for j, c in enumerate(row)), Fraction(0)) for row in a
        ]
        g = data.draw(st.lists(any_rational, min_size=len(f), max_size=len(f)))
        pieces = []
        for j in range(d2 + 1):
            piece = [Fraction(1)]
            for factor in [f] * (d2 - j) + [g] * j:
                piece = _ref_grid_mul([piece], [factor])[0]
            pieces.append(piece)
        want = [
            [sum((c * piece[k] for c, piece in zip(row, pieces)), Fraction(0)) for k in range(len(pieces[0]))]
            for row in a
        ]
        AB = ("a", "b")
        C = A.substitute_pair2(HomPoly.of(AB, f), HomPoly.of(AB, g))
        assert C.vars2 == AB and _grid(C) == want

    @given(a=grids(), k=any_rational.filter(lambda c: c != 0))
    def test_differently_scaled_inputs_give_equal_fields_and_hashes(self, a, k):
        A = bihom(ST, UV, a)
        B = bihom(ST, UV, [[k * c for c in row] for row in a]) * (1 / k)
        assert B == A and hash(B) == hash(A)
        assert (B.num, B.den) == (A.num, A.den)
        assert _grid(A) == a

    @given(a=grids(), den=st.integers(1, 72))
    def test_integer_rows_over_a_denominator_match_the_fraction_rows(self, a, den):
        num = [[c.numerator for c in row] for row in a]
        A = BiHomPoly.from_num(ST, UV, num, den)
        assert A == bihom(ST, UV, [[Fraction(n, den) for n in row] for row in num])
        assert _grid(A) == [[Fraction(n, den) for n in row] for row in num]

    def test_rows_must_form_a_rectangle(self):
        for rows in ([], [[]], [[1, 2], [3]]):
            with pytest.raises(DegreeMismatch):
                BiHomPoly.from_num(ST, UV, rows, 1)
        for den in (0, -3):
            with pytest.raises(ValueError, match="positive"):
                BiHomPoly.from_num(ST, UV, [[1, 2]], den)
        with pytest.raises(DegreeMismatch):
            BiHomPoly.from_num(ST, ("u", "u"), [[1]])

    @given(a=grids(2, 2), symmetric=st.booleans(), x=any_rational, x0=any_rational)
    def test_22_readings_match_the_affine_grid(self, a, symmetric, x, x0):
        if symmetric:
            a = [[a[min(i, j)][max(i, j)] for j in range(3)] for i in range(3)]
        A = bihom(ST, UV, a)
        assert affine(A.diagonal())(x) == _ref_affine22(a, x, x)
        assert affine(A.specialize_pair2(x0, 1))(x) == _ref_affine22(a, x, x0)
        # a bidegree-(2,2) polynomial is pinned by its values on a 3 x 3 grid
        points = (Fraction(0), Fraction(1), Fraction(-2, 3))
        swapped = all(
            _ref_affine22(a, y, y0) == _ref_affine22(a, y0, y) for y in points for y0 in points
        )
        assert A.is_symmetric == swapped
        assert symmetric <= A.is_symmetric


# ---------------------------------------------------------------------------
# scalar primitives


def _sympy_rational_roots(p2, p1, p0):
    poly = sp.Poly(
        [1, sp.Rational(p2), sp.Rational(p1), sp.Rational(p0)], _X, domain="QQ"
    )
    return sorted(sp.roots(poly, filter="Q"))


class TestScalarPrimitives:
    def test_rat_refuses_text(self):
        # text goes through parse_rational: Fraction(str) reads more than the grammar
        with pytest.raises(TypeError):
            rat("3/4")
        with pytest.raises(TypeError):
            HomPoly.of(("s", "t"), ["1"])
        assert rat(3) == Fraction(3) and rat(Fraction(3, 4)) == Fraction(3, 4)

    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rational_sqrt(Fraction(0)) == 0
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(4, 3)) is None
        assert rational_sqrt(Fraction(-4)) is None

    def test_cubic_roots_of_random_cubics_against_sympy(self):
        rng = random.Random(301)
        for _ in range(150):
            p2, p1, p0 = (
                Fraction(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(3)
            )
            ours = rational_cubic_roots(p2, p1, p0)
            assert [sp.Rational(r) for r in ours] == _sympy_rational_roots(p2, p1, p0)

    def test_cubic_roots_of_split_cubics_against_sympy(self):
        # products of rational linear factors, with repeated roots and zero
        rng = random.Random(302)
        for _ in range(150):
            roots = [Fraction(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(3)]
            pick = rng.random()
            if pick < 0.25:
                roots[1] = roots[0]  # double root
            elif pick < 0.35:
                roots[1] = roots[2] = roots[0]  # triple root
            elif pick < 0.5:
                roots[2] = Fraction(0)  # zero constant term
            r0, r1, r2 = roots
            p2 = -(r0 + r1 + r2)
            p1 = r0 * r1 + r0 * r2 + r1 * r2
            p0 = -r0 * r1 * r2
            ours = rational_cubic_roots(p2, p1, p0)
            assert ours == sorted(set(roots))
            assert [sp.Rational(r) for r in ours] == _sympy_rational_roots(p2, p1, p0)

    def test_cubic_roots_with_large_constant_term(self):
        # |p0| near 10^14: enumerating divisors of p0 would take seconds
        big = 10**9 + 7
        cases = [
            (Fraction(7), Fraction(-3), Fraction(10**14 + 31)),
            # (x - big) (x^2 + 3 x + 100003)
            (Fraction(3 - big), Fraction(100003 - 3 * big), Fraction(-100003 * big)),
            # (x - big/3)^2 (x + 5)
            (
                Fraction(5) - Fraction(2 * big, 3),
                Fraction(big * big, 9) - Fraction(10 * big, 3),
                Fraction(5 * big * big, 9),
            ),
        ]
        for p2, p1, p0 in cases:
            ours = rational_cubic_roots(p2, p1, p0)
            assert [sp.Rational(r) for r in ours] == _sympy_rational_roots(p2, p1, p0)
        assert rational_cubic_roots(*cases[1]) == [Fraction(big)]

    def test_bareiss_det_against_sympy(self):
        rng = random.Random(303)
        for n in range(0, 7):
            for _ in range(15):
                m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
                if n >= 2 and rng.random() < 0.3:
                    m[-1] = list(m[0])  # singular
                if n >= 1 and rng.random() < 0.3:
                    m[0][0] = 0  # forces a row swap
                frozen = [list(row) for row in m]
                assert bareiss_det(m) == sp.Matrix(n, n, [x for row in m for x in row]).det()
                assert m == frozen  # the input is not consumed


_S, _T = sp.symbols("s t")


def _sympy_form_resultant(p: HomPoly, q: HomPoly):
    # The resultant of binary forms is unchanged by the unimodular move
    # t -> t + lam*s.  Pick lam so both moved forms keep their declared
    # degree in s, then take the affine resultant at t = 1 as the
    # determinant of sympy's own Sylvester matrix (sympy's `resultant`
    # flips the sign of that determinant for some degree pairs, e.g. it
    # gives 1 for (s + 1, s^3) where the Sylvester determinant is -1).
    def expr(f):
        d = f.degree
        return sum(sp.Rational(c) * _S ** (d - k) * _T**k for k, c in enumerate(f.coeffs))

    ep, eq = expr(p), expr(q)
    lam = next(
        lam for lam in range(10) if ep.subs({_S: 1, _T: lam}) != 0 and eq.subs({_S: 1, _T: lam}) != 0
    )
    moved_p = sp.expand(ep.subs(_T, 1 + lam * _S))
    moved_q = sp.expand(eq.subs(_T, 1 + lam * _S))
    return sylvester(moved_p, moved_q, _S, 1).det()


class TestFormResultant:
    ST = ("s", "t")

    def test_against_sympy_including_roots_at_infinity(self):
        rng = random.Random(305)
        done = 0
        while done < 80:
            forms = []
            for _ in range(2):
                deg = rng.randint(1, 4)
                cs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(deg + 1)]
                if rng.random() < 0.4:
                    cs[0] = Fraction(0)  # a root at infinity
                forms.append(HomPoly.of(self.ST, cs))
            p, q = forms
            if p.is_zero or q.is_zero:
                continue
            assert sp.Rational(form_resultant(p, q)) == _sympy_form_resultant(p, q)
            done += 1

    def test_shared_root_at_infinity_is_seen(self):
        t_ = HomPoly.of(self.ST, (0, 1))
        p = t_ * HomPoly.of(self.ST, (1, -1))
        q = t_ * HomPoly.of(self.ST, (1, 2))
        assert form_resultant(p, q) == 0
        # the affine resultant drops the common zero at [1:0]
        assert resultant(affine(p), affine(q)) != 0

    def test_matches_affine_resultant_at_full_degree(self):
        p = HomPoly.of(self.ST, (2, -1, 3))
        q = HomPoly.of(self.ST, (1, 0, 0, -5))
        assert form_resultant(p, q) == resultant(affine(p), affine(q))

    def test_constant_and_zero_forms(self):
        c = HomPoly.of(self.ST, (3,))
        q = HomPoly.of(self.ST, (1, 0, 0, -5))
        assert form_resultant(c, q) == 27
        assert form_resultant(HomPoly.zero(self.ST, 2), q) == 0

    def test_variable_pairs_must_agree(self):
        with pytest.raises(DegreeMismatch):
            form_resultant(HomPoly.of(self.ST, (1, 1)), HomPoly.of(("u", "v"), (1, 1)))
