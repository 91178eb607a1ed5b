"""Tests for quartic Jacobians, the pointwise map, and the (2,2) coupling.

The reduction formulas are validated against sympy resultants and a
symbolic check of the pointwise map in the function field of the curve,
and the map's values against its affine formulas in sympy; the coupling
polynomials are pinned by their defining product identity, and the
cofactor's diagonal by the Hessian of the quartic form.
"""

import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corpus import affine, bihom
from ellsurf.duality import correspondence_surfaces
from ellsurf.exactpoly import (
    BiHomPoly,
    DegreeMismatch,
    HomPoly,
    UniPoly,
    discriminant_form,
    form_discriminant,
    form_partials,
)
from ellsurf.hermite_aj import (
    BasePointRamified,
    FamilyParams,
    NormalizationViolated,
    NotOnCurve,
    QuarticCurve,
    ShortCubic,
    SingularCurve,
    UnitViolation,
    ZeroScale,
    abel_jacobi,
    correspondence_22,
    correspondence_polys,
    discr_relation_check,
    double_quadric_from_quartic,
    exchange_constraint,
    hermite_pair_forms,
    j_invariant_22,
    j_invariant_quartic,
    jacobian_quartic,
    surface_symmetry,
)

UV = ("U", "V")


def rand_frac(rng, lo=-9, hi=9):
    return Fraction(rng.randint(lo, hi))


def rand_curve(rng, lo=-9, hi=9):
    return QuarticCurve.of(*(rand_frac(rng, lo, hi) for _ in range(5)))


def sympy_poly(h: QuarticCurve, x):
    return sum(sp.Rational(c) * x**i for i, c in enumerate(h.coeffs))


# ---------------------------------------------------------------------------
# reduction to the short cubic


def test_reduction_frozen_pairs():
    cases = [
        ((1, 0, 0, 0, 1), (Fraction(-4), Fraction(0))),
        ((0, 0, -1, 0, 1), (Fraction(-1, 3), Fraction(-2, 27))),
        ((0, 0, 0, 0, 0), (Fraction(0), Fraction(0))),
        ((1, 2, 0, 0, 1), (Fraction(-4), Fraction(4))),
    ]
    for coeffs, pair in cases:
        cub = jacobian_quartic(QuarticCurve.of(*coeffs))
        assert (cub.f, cub.g) == pair


def test_reduction_frozen_discriminants():
    assert jacobian_quartic(QuarticCurve.of(0, 0, -1, 0, 1)).discriminant == 0
    assert jacobian_quartic(QuarticCurve.of(1, 2, 0, 0, 1)).discriminant == -176


def test_reduction_discriminant_matches_quartic():
    rng = random.Random(101)
    for _ in range(40):
        h = rand_curve(rng)
        cub = jacobian_quartic(h)
        assert cub.discriminant == h.discriminant()


def test_reduction_discriminant_against_sympy():
    # independent route: sympy discriminant of the genuine quartic
    rng = random.Random(102)
    x = sp.symbols("x")
    done = 0
    while done < 15:
        h = rand_curve(rng)
        if h.coeffs[4] == 0:
            continue
        expected = sp.discriminant(sympy_poly(h, x), x)
        assert sp.Rational(h.discriminant()) == expected
        done += 1


def test_reduction_degree_drop_scales_by_leading_square():
    # declared-degree-four reading: a4 = 0 multiplies the cubic
    # discriminant by the square of the cubic leading coefficient
    x = sp.symbols("x")
    h = QuarticCurve.of(3, -1, 2, 5, 0)
    cubic = sympy_poly(h, x)
    assert sp.Rational(h.discriminant()) == sp.Rational(25) * sp.discriminant(cubic, x)


def test_form_level_reduction_specializes():
    rng = random.Random(103)
    for _ in range(10):
        consts = [rand_frac(rng) for _ in range(5)]
        forms = [HomPoly.of(UV, (c,)) for c in consts]
        f, g = hermite_pair_forms(*forms)
        cub = jacobian_quartic(QuarticCurve.of(*consts))
        assert f.coeffs == (cub.f,)
        assert g.coeffs == (cub.g,)


def test_form_level_reduction_degree_gate():
    a = HomPoly.of(UV, (1, 2))
    b = HomPoly.of(UV, (1, 2, 3))
    with pytest.raises(DegreeMismatch):
        hermite_pair_forms(a, a, a, a, b)


def test_form_level_reduction_restricts_to_points():
    # restricting the coefficient forms commutes with the reduction
    rng = random.Random(104)
    for _ in range(8):
        forms = [
            HomPoly.of(UV, tuple(rand_frac(rng, -5, 5) for _ in range(3)))
            for _ in range(5)
        ]
        f, g = hermite_pair_forms(*forms)
        for point in ((1, 2), (3, 1), (-1, 1), (5, 7)):
            h = QuarticCurve.of(*(p(*point) for p in forms))
            cub = jacobian_quartic(h)
            assert f(*point) == cub.f
            assert g(*point) == cub.g


# ---------------------------------------------------------------------------
# coupling polynomials


def test_coupling_product_identity():
    # pairing^2 + cofactor*(x - x0)^2 = P(x) P(x0), checked as a
    # polynomial in x at enough x0 samples to pin the bidegree
    rng = random.Random(105)
    samples = [Fraction(v) for v in (0, 1, -1, 2, -3)] + [Fraction(1, 2)]
    for _ in range(25):
        h = rand_curve(rng)
        p = affine(h.form)
        pairing, cofactor = correspondence_polys(h)
        assert pairing.is_symmetric
        assert cofactor.is_symmetric
        assert affine(pairing.diagonal()) == p
        for x0 in samples:
            lhs = (
                affine(pairing.specialize_pair2(x0, 1)) ** 2
                + affine(cofactor.specialize_pair2(x0, 1)) * UniPoly.of(-x0, 1) ** 2
            )
            assert lhs == p * p(x0)


def test_coupling_cofactor_diagonal_formula():
    rng = random.Random(106)
    for _ in range(25):
        h = rand_curve(rng)
        p = affine(h.form)
        expected = Fraction(1, 3) * (p * p.derivative().derivative()) - Fraction(
            1, 4
        ) * (p.derivative() * p.derivative())
        assert affine(correspondence_polys(h)[1].diagonal()) == expected


def test_coupling_cofactor_degenerates_for_pure_power():
    assert correspondence_polys(QuarticCurve.of(0, 0, 0, 0, 1))[1].diagonal().is_zero


def test_coupling_cofactor_keeps_leading_coefficient_factors():
    # the three entries that are quadratic in the leading coefficient;
    # rows[i][j] multiplies x^(2-i) * x0^(2-j)
    h = QuarticCurve.of(1, 1, 1, 1, 3)
    cof = correspondence_polys(h)[1]
    assert cof.rows[0][0] == Fraction(8 * 1 * 3 - 3 * 1, 12)
    assert cof.rows[2][0] == Fraction(36 * 1 * 3 - 1, 36)
    assert cof.rows[1][1] == Fraction(36 * 1 * 3 + 9 * 1 * 1 - 5 * 1, 18)


def test_discriminant_relation_frozen_rows():
    assert discr_relation_check(QuarticCurve.of(1, 0, 0, 0, 1)) == (256, 0, 0)
    assert discr_relation_check(QuarticCurve.of(1, 2, 0, 0, 1)) == (-176, -2816, 4)
    dp, dq, _ = discr_relation_check(QuarticCurve.of(0, 0, -1, 0, 1))
    assert dp == 0 and dq == 0


def test_discriminant_relation_random():
    rng = random.Random(107)
    for _ in range(30):
        h = rand_curve(rng)
        dp, dq, g = discr_relation_check(h)
        assert dq == g**2 * dp


# ---------------------------------------------------------------------------
# the quartic as a form, against the coefficient-tuple reading


small_rational = st.fractions(min_value=-9, max_value=9, max_denominator=6)
quartics = st.builds(QuarticCurve.of, *(small_rational,) * 5)


def _fraction_correspondence_polys(h: QuarticCurve):
    """(pairing, cofactor), each entry computed in Fraction arithmetic from
    the five coefficients."""
    a0, a1, a2, a3, a4 = h.coeffs
    pairing = bihom(
        UV,
        ("S", "T"),
        (
            (a4, a3 / 2, a2 / 6),
            (a3 / 2, Fraction(2, 3) * a2, a1 / 2),
            (a2 / 6, a1 / 2, a0),
        ),
    )
    corner = (8 * a0 * a2 - 3 * a1**2) / 12
    edge = (6 * a0 * a3 - a1 * a2) / 6
    outer = (36 * a0 * a4 - a2**2) / 36
    center = (36 * a0 * a4 + 9 * a1 * a3 - 5 * a2**2) / 18
    upper_edge = (6 * a1 * a4 - a2 * a3) / 6
    upper_corner = (8 * a2 * a4 - 3 * a3**2) / 12
    cofactor = bihom(
        UV,
        ("S", "T"),
        (
            (upper_corner, upper_edge, outer),
            (upper_edge, center, edge),
            (outer, edge, corner),
        ),
    )
    return pairing, cofactor


def _assert_the_fraction_entries(h: QuarticCurve) -> None:
    polys = correspondence_polys(h)
    for got, want in zip(polys, _fraction_correspondence_polys(h)):
        assert (got.vars1, got.vars2, got.num, got.den) == (
            want.vars1, want.vars2, want.num, want.den
        )


@given(h=quartics)
@example(h=QuarticCurve.of(Fraction(1, 2), Fraction(-1, 3), Fraction(5, 6), 0, Fraction(1, 4)))
@example(h=QuarticCurve.of(0, 0, 0, 0, 0))
@settings(max_examples=80, deadline=None)
def test_correspondence_polys_match_the_fraction_entries(h):
    _assert_the_fraction_entries(h)


@st.composite
def shared_den_quartics(draw):
    """Quartics whose coefficients share one denominator from 2 to 12; the
    leading coefficient vanishes about half the time."""
    den = draw(st.integers(2, 12))
    nums = draw(st.lists(st.integers(-60, 60), min_size=4, max_size=4))
    lead = draw(st.just(0) | st.integers(-60, 60))
    return QuarticCurve.of(*(Fraction(n, den) for n in nums + [lead]))


def _fraction_jacobian_pair(h: QuarticCurve) -> tuple[Fraction, Fraction]:
    """(f, g) of the Jacobian cubic in Fraction arithmetic from the five
    coefficients."""
    a0, a1, a2, a3, a4 = h.coeffs
    f = -4 * a0 * a4 + a1 * a3 - a2**2 / 3
    g = (
        Fraction(-8, 3) * a0 * a2 * a4
        + a0 * a3**2
        + a1**2 * a4
        - a1 * a2 * a3 / 3
        + Fraction(2, 27) * a2**3
    )
    return f, g


@given(h=shared_den_quartics())
@example(h=QuarticCurve.of(Fraction(1, 12), Fraction(-5, 6), Fraction(7, 4), Fraction(1, 3), 0))
@example(h=QuarticCurve.of(Fraction(1, 6), 0, Fraction(-1, 6), 0, 0))
@example(h=QuarticCurve.of(0, 0, 0, 0, 0))
@settings(max_examples=120, deadline=None)
def test_the_integer_hermite_data_match_the_fraction_routes(h):
    cubic = jacobian_quartic(h)
    assert (cubic.f, cubic.g) == _fraction_jacobian_pair(h)
    if not h.form.is_zero:
        assert -4 * cubic.f**3 - 27 * cubic.g**2 == form_discriminant(h.form)
    _assert_the_fraction_entries(h)
    # the coupling-product check's route: the Hessian of the quartic form
    (f_uu, f_uv), (_, f_vv) = (form_partials(d) for d in form_partials(h.form))
    assert 36 * correspondence_polys(h)[1].diagonal() == f_uu * f_vv - f_uv * f_uv


@given(h=quartics, x=small_rational)
@example(h=QuarticCurve.of(1, 2, 0, 0, 0), x=Fraction(-1, 2))
@settings(max_examples=80, deadline=None)
def test_the_quartic_form_reads_as_its_coefficients(h, x):
    assert QuarticCurve.of(*h.coeffs) == h
    assert (h.form.vars, h.form.degree) == (UV, 4)
    assert h.rhs(x) == affine(h.form)(x) == sum(c * x**i for i, c in enumerate(h.coeffs))
    # the discriminant of the affine polynomial read at declared degree four
    p = affine(h.form)
    assert h.discriminant() == (0 if p.is_zero else discriminant_form(p, 4))


# ---------------------------------------------------------------------------
# the pointwise map


def test_pointwise_map_hand_case():
    h = QuarticCurve.of(1, 2, 0, 0, 1)
    img = abel_jacobi(h, (0, -1), (1, 2))
    assert (img.xi, img.eta) == (0, -2)
    assert jacobian_quartic(h).contains(img.xi, img.eta)


def test_pointwise_map_base_and_conjugate():
    h = QuarticCurve.of(1, 2, 0, 0, 1)
    assert abel_jacobi(h, (0, -1), (0, -1)).is_infinity
    conj = abel_jacobi(h, (0, -1), (0, 1))
    assert jacobian_quartic(h).contains(conj.xi, conj.eta)


def test_pointwise_map_conjugate_lands_on_cubic():
    # the conjugate of the base point, on random curves through a
    # rational point with fractional coordinates
    rng = random.Random(116)
    done = 0
    while done < 25:
        x0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        w0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if w0 == 0:
            continue
        a1, a2, a3, a4 = (rand_frac(rng, -5, 5) for _ in range(4))
        a0 = w0**2 - (a1 * x0 + a2 * x0**2 + a3 * x0**3 + a4 * x0**4)
        h = QuarticCurve.of(a0, a1, a2, a3, a4)
        conj = abel_jacobi(h, (x0, -w0), (x0, w0))
        assert jacobian_quartic(h).contains(conj.xi, conj.eta)
        done += 1


def test_pointwise_map_error_gates():
    h = QuarticCurve.of(1, 2, 0, 0, 1)
    with pytest.raises(NotOnCurve):
        abel_jacobi(h, (0, -1), (5, 1))
    with pytest.raises(NotOnCurve):
        abel_jacobi(h, (0, 2), (0, -1))
    p0 = UniPoly.of(0, 1) * UniPoly.of(-1, 1) * UniPoly.of(1, 1) * UniPoly.of(-2, 1)
    ramified = QuarticCurve.of(*(p0.coeff(i) for i in range(5)))
    with pytest.raises(BasePointRamified):
        abel_jacobi(ramified, (0, 0), (0, 0))
    # a different ramified point goes through the generic chart
    img = abel_jacobi(ramified, (0, 0), (1, 0))
    assert jacobian_quartic(ramified).contains(img.xi, img.eta)


def test_pointwise_map_symbolic_identity():
    # the image satisfies the cubic identically in the function field
    # Q(x)[w] / (w^2 - P(x))
    x, w = sp.symbols("x w")
    rng = random.Random(108)
    done = 0
    while done < 4:
        x0 = Fraction(rng.randint(-3, 3))
        w0 = Fraction(rng.randint(1, 4))
        a1, a2, a3, a4 = (rand_frac(rng, -4, 4) for _ in range(4))
        a0 = w0**2 - (a1 * x0 + a2 * x0**2 + a3 * x0**3 + a4 * x0**4)
        h = QuarticCurve.of(a0, a1, a2, a3, a4)
        if h.discriminant() == 0:
            continue
        p_sym = sympy_poly(h, x)
        cub = jacobian_quartic(h)
        pairing = correspondence_polys(h)[0]
        # anchor exactly as the implementation does for base (x0, -w0)
        ax, aw = sp.Rational(x0), sp.Rational(w0)
        r_sym = sum(
            sp.Rational(pairing.rows[2 - i][2 - j]) * x**i * ax**j
            for i in range(3)
            for j in range(3)
        )
        dp_sym = sp.diff(p_sym, x)
        dx = x - ax
        xi = 2 * (r_sym - w * aw) / dx**2
        eta = 4 * w * aw * (w - aw) / dx**3 - (dp_sym * aw + dp_sym.subs(x, ax) * w) / dx**2
        excess = eta**2 - (xi**3 + sp.Rational(cub.f) * xi + sp.Rational(cub.g))
        numer, _ = sp.fraction(sp.together(excess))
        rem = sp.rem(sp.expand(numer), w**2 - p_sym, w)
        assert sp.expand(rem) == 0
        done += 1


def test_pointwise_map_lands_on_cubic():
    rng = random.Random(109)
    done = 0
    while done < 25:
        x0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        w0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        px = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        pw = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if w0 == 0 or px == x0:
            continue
        # interpolate a curve through both points
        a2, a3, a4 = (rand_frac(rng, -5, 5) for _ in range(3))
        rhs0 = w0**2 - (a2 * x0**2 + a3 * x0**3 + a4 * x0**4)
        rhs1 = pw**2 - (a2 * px**2 + a3 * px**3 + a4 * px**4)
        a1 = (rhs1 - rhs0) / (px - x0)
        a0 = rhs0 - a1 * x0
        h = QuarticCurve.of(a0, a1, a2, a3, a4)
        cub = jacobian_quartic(h)
        img = abel_jacobi(h, (x0, -w0), (px, pw))
        assert cub.contains(img.xi, img.eta)
        done += 1


def _affine_image(coeffs, base, point):
    """The image of ``point`` under the pointwise map anchored at ``base``,
    from its affine formulas in sympy.  With (x0, w0) = (bx, -bw): off the
    base's x-coordinate, xi = 2 (R(x, x0) - w w0) / (x - x0)^2 for the
    pairing R, and eta = 4 w w0 (w - w0) / (x - x0)^3 - (P'(x) w0 + P'(x0) w)
    / (x - x0)^2; at the conjugate (x0, w0), xi = -Q(x0) / P(x0) and eta =
    (P'(x0) Q(x0) - P(x0) Q'(x0)) / (2 w0^3) for Q = P P'' / 3 - P'^2 / 4."""
    x, y = sp.symbols("x y")
    a0, a1, a2, a3, a4 = map(sp.Rational, coeffs)
    p = sp.Poly(a0 + a1 * x + a2 * x**2 + a3 * x**3 + a4 * x**4, x, domain="QQ")
    dp = p.diff(x)
    x0, w0 = sp.Rational(base[0]), -sp.Rational(base[1])
    px, pw = map(sp.Rational, point)
    if px == x0:
        q = p * p.diff(x).diff(x) * sp.Rational(1, 3) - dp**2 * sp.Rational(1, 4)
        p_at, q_at, dp_at, dq_at = (e.eval(x0) for e in (p, q, dp, q.diff(x)))
        return -q_at / p_at, (dp_at * q_at - p_at * dq_at) / (2 * w0**3)
    r = sp.Poly(
        a4 * x**2 * y**2 + a3 * x * y * (x + y) / 2 + a2 * (x**2 + y**2) / 6
        + 2 * a2 * x * y / 3 + a1 * (x + y) / 2 + a0,
        x, y, domain="QQ",
    )
    dx = px - x0
    xi = 2 * (r.eval({x: px, y: x0}) - pw * w0) / dx**2
    eta = 4 * pw * w0 * (pw - w0) / dx**3 - (dp.eval(px) * w0 + dp.eval(x0) * pw) / dx**2
    return xi, eta


@given(
    base=st.tuples(small_rational, small_rational),
    point=st.tuples(small_rational, small_rational),
    tail=st.tuples(small_rational, small_rational, small_rational),
    conjugate=st.booleans(),
)
@example(base=(0, -1), point=(1, 2), tail=(0, 0, 1), conjugate=False)
@example(base=(0, -1), point=(2, 0), tail=(0, 0, 1), conjugate=True)
@example(base=(Fraction(1, 2), 0), point=(-1, 3), tail=(1, -2, 0), conjugate=False)
@example(base=(Fraction(-1, 3), Fraction(5, 2)), point=(4, 1), tail=(0, 0, 0), conjugate=True)
@settings(max_examples=60, deadline=None)
def test_the_pointwise_map_matches_its_affine_formulas(base, point, tail, conjugate):
    # a curve through the base and the point; the conjugate of the base
    # keeps the point's x-coordinate only as the coefficient a1
    bx, bw, px, pw, a2, a3, a4 = map(Fraction, (*base, *point, *tail))
    rest = a2 * bx**2 + a3 * bx**3 + a4 * bx**4
    if conjugate:
        assume(bw != 0)
        a1 = px
        point = (bx, -bw)
    else:
        assume(px != bx)
        a1 = (pw**2 - bw**2 - a2 * px**2 - a3 * px**3 - a4 * px**4 + rest) / (px - bx)
    h = QuarticCurve.of(bw**2 - rest - a1 * bx, a1, a2, a3, a4)
    img = abel_jacobi(h, base, point)
    assert (sp.Rational(img.xi), sp.Rational(img.eta)) == _affine_image(h.coeffs, base, point)


# ---------------------------------------------------------------------------
# the symmetric (2,2) presentation


def phi_from_triple(gamma: HomPoly, alpha: HomPoly, delta: HomPoly) -> BiHomPoly:
    rows = tuple(zip(gamma.coeffs, alpha.coeffs, delta.coeffs))
    return bihom(UV, ("S", "T"), rows)


def test_22_symmetry_and_reading():
    rng = random.Random(110)
    done = 0
    while done < 15:
        h = rand_curve(rng, -6, 6)
        if h.discriminant() == 0:
            continue
        xi = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        phi = correspondence_22(h, xi)
        gamma, alpha, delta = (phi.pair2_coefficient(j) for j in range(3))
        assert phi.is_symmetric
        for xs in (Fraction(2), Fraction(-1), Fraction(1, 2)):
            for x0s in (Fraction(3), Fraction(-2)):
                val = gamma(xs, 1) * x0s**2 + alpha(xs, 1) * x0s + delta(xs, 1)
                assert val == phi(xs, 1, x0s, 1)
        done += 1


def test_22_preserves_j_invariant():
    rng = random.Random(111)
    done = 0
    while done < 20:
        h = rand_curve(rng, -6, 6)
        if h.discriminant() == 0:
            continue
        xi = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        phi = correspondence_22(h, xi)
        assert j_invariant_quartic(h) == j_invariant_22(phi)
        done += 1


def test_22_diagonal_at_zero_coordinate():
    h = QuarticCurve.of(1, 2, 0, 0, 1)
    phi = correspondence_22(h, 0)
    assert phi.diagonal() == -4 * correspondence_polys(h)[1].diagonal()


def test_j_invariant_gates():
    assert j_invariant_quartic(QuarticCurve.of(1, 0, 0, 0, 1)) == 1728
    with pytest.raises(SingularCurve):
        j_invariant_quartic(QuarticCurve.of(0, 0, -1, 0, 1))
    with pytest.raises(SingularCurve):
        ShortCubic(Fraction(0), Fraction(0)).j_invariant()


def test_exchange_constraint_tracks_cubic_term():
    rng = random.Random(112)
    done = 0
    while done < 15:
        h = rand_curve(rng, -6, 6)
        if h.discriminant() == 0:
            continue
        xi = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        phi = correspondence_22(h, xi)
        params = FamilyParams.from_triple(*(phi.pair2_coefficient(j) for j in range(3)), 0, 0)
        cub = jacobian_quartic(h)
        assert exchange_constraint(params) == -8 * h.coeffs[3] * cub.rhs(xi)
        if h.coeffs[3] == 0:
            assert exchange_constraint(params) == 0
        done += 1


def test_triple_roundtrip_and_normalization_gate():
    params = FamilyParams.of(3, -2, 5, 7, -1, 4, 2, 3)
    gamma, alpha, delta = params.triple()
    assert FamilyParams.from_triple(gamma, alpha, delta, 2, 3) == params
    bad = HomPoly.of(UV, (4, -1, 5 + 1))
    with pytest.raises(NormalizationViolated):
        FamilyParams.from_triple(bad, alpha, delta, 2, 3)


# ---------------------------------------------------------------------------
# the four parameter moves


def j_of_params(params: FamilyParams) -> Fraction:
    gamma, alpha, delta = params.triple()
    return j_invariant_22(phi_from_triple(gamma, alpha, delta))


def sample_params(rng) -> FamilyParams:
    return FamilyParams.of(*(rand_frac(rng, -5, 5) for _ in range(8)))


def test_moves_fix_points():
    p = FamilyParams.of(3, -2, 5, 7, -1, 4, 2, 3)
    assert surface_symmetry(p, "a", lam=1) == p
    assert surface_symmetry(p, "b", mu=1) == p
    p0 = FamilyParams.of(3, -2, 5, 7, -1, 4, 0, 0)
    assert surface_symmetry(p0, "d") == p0


def test_moves_involutions():
    rng = random.Random(113)
    for _ in range(20):
        p = sample_params(rng)
        if p.c0 != 0 and p.c_inf != 0:
            assert surface_symmetry(surface_symmetry(p, "c"), "c") == p
        if p.c0 * p.c_inf == 1:
            continue
        # absorbing the line components twice rescales by the unit factor
        twice = surface_symmetry(surface_symmetry(p, "d"), "d")
        scale = (1 - p.c0 * p.c_inf) ** 4
        assert twice == surface_symmetry(p, "a", lam=scale)


def phi_at(p: FamilyParams, u, v, s, t) -> Fraction:
    """gamma(u,v) s^2 + alpha(u,v) s t + delta(u,v) t^2, read from the six
    coefficients."""
    gamma = p.gamma2 * u * u + p.alpha2 * u * v + p.gamma0 * v * v
    alpha = p.alpha2 * u * u + p.alpha1 * u * v + p.alpha0 * v * v
    delta = p.gamma0 * u * u + p.alpha0 * u * v + p.delta0 * v * v
    return gamma * s * s + alpha * s * t + delta * t * t


def test_absorbing_the_lines_moves_both_rulings_pointwise():
    # case "d" is (U, V) -> (U + c0 V, c_inf U + V) on both rulings
    rng = random.Random(116)
    for _ in range(30):
        p = sample_params(rng)
        c0, ci = p.c0, p.c_inf
        moved = surface_symmetry(p, "d")
        assert (moved.c0, moved.c_inf) == (-c0, -ci)
        for _ in range(3):
            u, v, s, t = (rand_frac(rng) for _ in range(4))
            assert phi_at(moved, u, v, s, t) == phi_at(
                p, u + c0 * v, ci * u + v, s + c0 * t, ci * s + t
            )


def test_moves_scaling_group_laws():
    rng = random.Random(114)
    for _ in range(10):
        p = sample_params(rng)
        lam, m = Fraction(3, 2), Fraction(2)
        via_ab = surface_symmetry(surface_symmetry(p, "a", lam=lam), "b", mu=m)
        via_ba = surface_symmetry(surface_symmetry(p, "b", mu=m), "a", lam=lam)
        assert via_ab == via_ba
        twice = surface_symmetry(surface_symmetry(p, "b", mu=m), "b", mu=m)
        assert twice == surface_symmetry(p, "b", mu=m * m)


def test_moves_preserve_fiber_class():
    # all four moves keep the j-invariant of the (2,2) fiber
    rng = random.Random(115)
    done = 0
    while done < 12:
        p = sample_params(rng)
        if p.c0 * p.c_inf == 1:
            continue
        try:
            j = j_of_params(p)
            jd = j_of_params(surface_symmetry(p, "d"))
        except (SingularCurve, ZeroDivisionError):
            continue
        assert j_of_params(surface_symmetry(p, "a", lam=Fraction(5, 3))) == j
        assert j_of_params(surface_symmetry(p, "b", mu=Fraction(7, 2))) == j
        assert jd == j
        if p.c0 != 0 and p.c_inf != 0:
            assert j_of_params(surface_symmetry(p, "c")) == j
        done += 1


def test_moves_error_gates():
    p = FamilyParams.of(3, -2, 5, 7, -1, 4, 2, 3)
    with pytest.raises(ZeroScale):
        surface_symmetry(p, "a", lam=0)
    with pytest.raises(ZeroScale):
        surface_symmetry(p, "b", mu=0)
    with pytest.raises(ZeroScale):
        surface_symmetry(FamilyParams.of(3, -2, 5, 7, -1, 4, 0, 1), "c")
    with pytest.raises(ValueError):
        surface_symmetry(p, "e")


# ---------------------------------------------------------------------------
# the double-quadric attached to a depressed curve


def test_double_quadric_structure():
    data = double_quadric_from_quartic(1, 2, 0, Fraction(3), Fraction(1, 2), 3)
    gamma, alpha, delta = (data.correspondence.pair2_coefficient(j) for j in range(3))
    from ellsurf.exactpoly import tensor_forms

    first = ("S", "T")
    s_sq = HomPoly.var_power(first, 0, 1) ** 2
    s_t = HomPoly.var_power(first, 0, 1) * HomPoly.var_power(first, 1, 1)
    t_sq = HomPoly.var_power(first, 1, 1) ** 2
    expected_quadric = (
        tensor_forms(s_sq, gamma)
        + tensor_forms(s_t, alpha)
        + tensor_forms(t_sq, delta)
    )
    assert data.quadric == expected_quadric
    line0, line_inf = data.line_factors
    u, v = data.ruling_factors
    assert data.branch == tensor_forms(line0 * line_inf, u * v) * data.quadric
    assert (data.branch.deg1, data.branch.deg2) == (4, 4)
    assert data.params.c0 == Fraction(1, 2)
    assert data.params.c_inf == 3
    # the depressed curve satisfies the exchange constraint
    assert exchange_constraint(data.params) == 0
    surfaces = correspondence_surfaces(gamma, alpha, delta)
    for key in ("cover1", "quot1", "rat1", "cover2", "quot2", "rat2"):
        assert key in surfaces


def test_double_quadric_gates():
    with pytest.raises(UnitViolation):
        double_quadric_from_quartic(1, 2, 0, 1, 2, Fraction(1, 2))
    with pytest.raises(SingularCurve):
        double_quadric_from_quartic(0, 0, -1, 1, 2, 3)
