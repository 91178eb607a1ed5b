"""Unit tests for the exact polynomial kernel and its scalar primitives.

sympy appears here only as the independent cross-check oracle for
resultants, discriminants, squarefree parts, cubic roots and
determinants; the package itself never imports it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from sympy.polys.subresultants_qq_zz import sylvester
from hypothesis import strategies as st

from ellsurf.exactpoly import (
    BiHomPoly,
    DegreeMismatch,
    DegreeTooLow,
    ExactDivisionError,
    HomPoly,
    ParseError,
    SingularSystem,
    UniPoly,
    bareiss_det,
    discriminant_form,
    discriminant_univ,
    divexact_form,
    form_discriminant,
    form_resultant,
    gcd_form,
    gcd_poly,
    homogenize,
    multiplicity_in,
    parse_hompoly,
    parse_rational,
    rational_cubic_roots,
    rational_sqrt,
    refine_against,
    resultant,
    solve_linear,
    squarefree_split,
    tensor_forms,
)

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

    @given(p=unipolys(), c=small_rational)
    def test_shift_evaluates(self, p, c):
        shifted = p.shift(c)
        for x in (Fraction(0), Fraction(1), Fraction(-2, 3)):
            assert shifted(x) == p(x + c)


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
        assert d.leading == 1
        (p * g).divexact(d)  # no remainder
        d.divexact(gcd_poly(d, g.monic()))  # g | d up to the p,q part

    @given(p=unipolys(allow_zero=False), q=unipolys(allow_zero=False))
    @settings(max_examples=60)
    def test_against_sympy(self, p, q):
        ours = gcd_poly(p, q)
        theirs = sp.gcd(_to_sympy(p), _to_sympy(q)).monic()
        assert _to_sympy(ours) == theirs


class TestResultantDiscriminant:
    def test_frozen_values(self):
        assert discriminant_univ(UniPoly.of(0, -4, 0, 1)) == 256
        assert discriminant_univ(UniPoly.of(1, 0, 0, 0, 1)) == 256

    def test_short_cubic_convention(self):
        f, g = Fraction(-4), Fraction(4)
        cubic = UniPoly.of(g, f, 0, 1)
        assert discriminant_univ(cubic) == -4 * f**3 - 27 * g**2

    def test_degree_too_low(self):
        with pytest.raises(DegreeTooLow):
            discriminant_univ(UniPoly.of(3, 1))
        with pytest.raises(DegreeTooLow):
            discriminant_univ(UniPoly.constant(5))

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
        assert discriminant_univ(p.shift(c)) == discriminant_univ(p)

    def test_form_discriminant_degree_drop(self):
        # declared degree 4 on an actual cubic multiplies disc by lc^2
        q = UniPoly.of(-1, 0, 4, 4)
        assert discriminant_univ(q) == -176
        assert discriminant_form(q, 4) == 16 * -176
        # drop of two or more kills it
        assert discriminant_form(UniPoly.of(1, 1), 4) == 0
        assert discriminant_form(UniPoly.of(3, 1), 2) == 1 * 1
        with pytest.raises(DegreeMismatch):
            discriminant_form(UniPoly.of(1, 0, 0, 1), 2)


class TestSquarefree:
    def test_two_hundred_random_products_reconstruct(self):
        rng = random.Random(20260819)
        for _ in range(200):
            n_factors = rng.randint(1, 3)
            p = UniPoly.constant(Fraction(rng.choice([1, 2, -3, 5]), rng.choice([1, 2])))
            for _ in range(n_factors):
                deg = rng.randint(1, 2)
                coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(deg)] + [
                    Fraction(rng.choice([1, 2, 3, -1]))
                ]
                p = p * (UniPoly.from_coeffs(coeffs) ** rng.randint(1, 3))
            split = squarefree_split(p)
            assert split.reconstruct() == p
            for f, _m in split.factors:
                assert f.leading == 1
                assert gcd_poly(f, f.derivative()).degree == 0

    @given(p=unipolys(max_degree=4, allow_zero=False))
    @settings(max_examples=60)
    def test_squarefree_part_matches_sympy(self, p):
        if p.degree == 0:
            return
        ours = UniPoly.constant(1)
        for f, _m in squarefree_split(p).factors:
            ours = ours * f
        theirs = _to_sympy(p).div(_to_sympy(gcd_poly(p, p.derivative())))[0].monic()
        assert _to_sympy(ours.monic()).as_expr() == theirs.as_expr()

    def test_form_split_keeps_second_variable_factor(self):
        F = HomPoly.of(("s", "t"), [0, 0, 2, 0, -2])
        split = squarefree_split(F)
        assert split.unit == 2
        assert split.reconstruct() == F
        factor_texts = {(str(f), m) for f, m in split.factors}
        assert factor_texts == {("t", 2), ("s^2 - t^2", 1)}

    def test_refine_against_uniform_powers(self):
        rng = random.Random(7)
        x = UniPoly.of(0, 1)
        for _ in range(50):
            roots = rng.sample(range(-6, 7), k=4)
            delta = UniPoly.constant(1)
            for r in roots:
                delta = delta * (x - UniPoly.constant(r)) ** rng.randint(1, 3)
            q = UniPoly.constant(1)
            for r in roots[:2]:
                q = q * (x - UniPoly.constant(r)) ** rng.randint(0, 3)
            q = q * UniPoly.of(1, 0, 1)
            split = refine_against(squarefree_split(delta), q)
            assert split.reconstruct() == delta
            for f, _m in split.factors:
                v = multiplicity_in(q, f)
                # uniform: no further subfactor divides q more often
                extra = gcd_poly(f, q.divexact(f**v))
                assert extra.degree == 0

    def test_refine_against_zero_is_identity(self):
        split = squarefree_split(UniPoly.of(0, 0, 1))
        assert refine_against(split, UniPoly.zero()) == split

    def test_multiplicity_of_a_constant_divisor_is_refused(self):
        with pytest.raises(DegreeTooLow):
            multiplicity_in(UniPoly.of(1, 1), UniPoly.of(2))
        assert multiplicity_in(UniPoly.of(1, 1) ** 3 * 5, UniPoly.of(2, 2)) == 3

    def test_form_multiplicity_of_a_constant_divisor_is_refused(self):
        ST = ("s", "t")
        with pytest.raises(DegreeTooLow):
            multiplicity_in(HomPoly.of(ST, (1, 1)), HomPoly.of(ST, (3,)))
        t_ = HomPoly.of(ST, (0, 1))
        assert multiplicity_in(t_**4 * HomPoly.of(ST, (1, 1)), t_) == 4


class TestHomPoly:
    def test_arithmetic_and_degree_guards(self):
        a = HomPoly.of(("s", "t"), [1, 2, 3])
        b = HomPoly.of(("s", "t"), [0, 1, 0])
        assert (a + b).coeffs == (Fraction(1), Fraction(3), Fraction(3))
        with pytest.raises(DegreeMismatch):
            a + HomPoly.of(("s", "t"), [1, 1])
        with pytest.raises(DegreeMismatch):
            a + HomPoly.of(("u", "v"), [1, 1, 1])

    def test_swap_is_an_involution_and_reverses(self):
        a = HomPoly.of(("s", "t"), [1, 2, 3, 4])
        assert a.swap().coeffs == (4, 3, 2, 1)
        assert a.swap().swap() == a

    def test_homogenize_round_trip(self):
        p = UniPoly.of(1, 0, -2)
        F = homogenize(p, ("s", "t"), 4)
        assert F.second_var_multiplicity() == 2
        assert F.as_unipoly() == p
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
        assert parse_hompoly(str(F), ("s", "t")) == F
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
            multiplicity_in(st_square, uv_line)
        with pytest.raises(DegreeMismatch):
            refine_against(squarefree_split(uv_line), st_square)

    def test_form_discriminant_conventions(self):
        quad = HomPoly.of(("s", "t"), [1, 0, -1])
        assert form_discriminant(quad) == 4
        double = HomPoly.of(("s", "t"), [0, 0, 1, 0, 0])  # s^2 t^2
        assert form_discriminant(double) == 0


class TestBiHomPoly:
    def test_tensor_and_coefficient_extraction(self):
        p = HomPoly.of(("s", "t"), [1, 2])
        q = HomPoly.of(("u", "v"), [3, 0, -1])
        B = tensor_forms(p, q)
        assert B.deg1 == 1 and B.deg2 == 2
        assert B.pair1_coefficient(0) == q * 1
        assert B.pair2_coefficient(2) == p * -1
        assert B(1, 1, 2, 1) == p(1, 1) * q(2, 1)

    def test_swap_pairs_transposes(self):
        p = HomPoly.of(("s", "t"), [1, 2])
        q = HomPoly.of(("u", "v"), [3, 0, -1])
        B = tensor_forms(p, q)
        assert B.swap_pairs() == tensor_forms(q, p)

    def test_substitute_pair2(self):
        p = HomPoly.of(("s", "t"), [1, 0])
        q = HomPoly.of(("u", "v"), [1, 0, -1])  # u^2 - v^2
        B = tensor_forms(p, q)
        uu = HomPoly.of(("a", "b"), [1, 0, 0])
        vv = HomPoly.of(("a", "b"), [0, 0, 1])
        C = B.substitute_pair2(uu, vv)
        assert C.pair1_coefficient(0) == HomPoly.of(("a", "b"), [1, 0, 0, 0, -1])


class TestParsing:
    def test_rationals(self):
        assert parse_rational(" -3/4 ") == Fraction(-3, 4)
        with pytest.raises(ParseError):
            parse_rational("3/0")

    def test_positions_reported(self):
        with pytest.raises(ParseError) as err:
            parse_hompoly("s^2 + w*t", ("s", "t"))
        assert err.value.line == 1
        assert err.value.col == 7

    def test_homogeneity_enforced(self):
        with pytest.raises(ParseError):
            parse_hompoly("s^2 + t", ("s", "t"))
        with pytest.raises(ParseError):
            parse_hompoly("s^2 - t^2", ("s", "t"), degree=4)

    def test_zero_denominator_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_hompoly("s^4 + 1/0*t^4", ("s", "t"), 4, line=3)
        assert "zero denominator" in str(err.value)
        assert (err.value.line, err.value.col) == (3, 7)

    def test_zero_form_needs_degree(self):
        assert parse_hompoly("0", ("s", "t"), degree=3).is_zero
        with pytest.raises(ParseError):
            parse_hompoly("0", ("s", "t"))

    def test_cancelling_terms_keep_declared_degree(self):
        F = parse_hompoly("s*t - s*t", ("s", "t"))
        assert F.is_zero and F.degree == 2


# ---------------------------------------------------------------------------
# scalar primitives


def _sympy_rational_roots(p2, p1, p0):
    poly = sp.Poly(
        [1, sp.Rational(p2), sp.Rational(p1), sp.Rational(p0)], _X, domain="QQ"
    )
    return sorted(sp.roots(poly, filter="Q"))


class TestScalarPrimitives:
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

    def test_solve_linear_against_sympy(self):
        rng = random.Random(304)
        done = 0
        while done < 20:
            n = rng.randint(1, 5)
            m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            rhs = [rng.randint(-9, 9) for _ in range(n)]
            sm = sp.Matrix(n, n, [sp.Rational(x) for row in m for x in row])
            if sm.det() == 0:
                continue
            expected = sm.LUsolve(sp.Matrix(rhs))
            assert [sp.Rational(x) for x in solve_linear(m, rhs)] == list(expected)
            done += 1

    def test_solve_linear_refuses_a_singular_system(self):
        with pytest.raises(SingularSystem):
            solve_linear([[1, 2], [2, 4]], [1, 2])
        with pytest.raises(SingularSystem):
            solve_linear([[0, 0, 1], [0, 1, 0], [0, 1, 1]], [1, 1, 1])


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
        assert resultant(p.as_unipoly(), q.as_unipoly()) != 0

    def test_matches_affine_resultant_at_full_degree(self):
        p = HomPoly.of(self.ST, (2, -1, 3))
        q = HomPoly.of(self.ST, (1, 0, 0, -5))
        assert form_resultant(p, q) == resultant(p.as_unipoly(), q.as_unipoly())

    def test_constant_and_zero_forms(self):
        c = HomPoly.of(self.ST, (3,))
        q = HomPoly.of(self.ST, (1, 0, 0, -5))
        assert form_resultant(c, q) == 27
        assert form_resultant(HomPoly.zero(self.ST, 2), q) == 0

    def test_variable_pairs_must_agree(self):
        with pytest.raises(DegreeMismatch):
            form_resultant(HomPoly.of(self.ST, (1, 1)), HomPoly.of(("u", "v"), (1, 1)))
