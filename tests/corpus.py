"""Constructed model families and samplers shared by the test suite.

The first half builds one-parameter models sweeping every realizable
valuation triple for the fiber classifier.  The second half samples the
random families of the golden fiber-configuration suites: every sampler
enforces a genericity predicate stated in terms of squarefreeness and
coprimality of specific discriminant factors, never in terms of the
expected fiber counts, so resampling cannot bias the assertions.
``shift_x`` is the coordinate change the tests use as a metamorphic move,
``affine`` the one affine reading of a form that the tests share, and
``bihom`` the one way they build a bidegree form from rational rows.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from ellsurf import duality as du
from ellsurf.elliptic import WeierstrassModel
from ellsurf.exactpoly import BiHomPoly, HomPoly, UniPoly, discriminant_form, form_discriminant


def affine(form: HomPoly) -> UniPoly:
    """The form read at ``vars[1] = 1``, as a polynomial in ``vars[0]``."""
    return UniPoly.from_coeffs(form.coeffs[::-1])


def bihom(vars1: tuple[str, str], vars2: tuple[str, str], rows) -> BiHomPoly:
    """The bidegree form whose coefficient rows are the rationals ``rows``:
    their integer numerators over one common denominator."""
    den = math.lcm(*(Fraction(c).denominator for row in rows for c in row))
    num = [[int(c * den) for c in row] for row in rows]
    return BiHomPoly.from_num(vars1, vars2, num, den)


def shift_x(model: WeierstrassModel, u: HomPoly) -> WeierstrassModel:
    """The model under x -> x + u, for a form u of degree 2w; c4, c6 and
    delta do not change."""
    a2 = model.a2 + 3 * u
    a4 = model.a4 + 2 * model.a2 * u + 3 * u * u
    return WeierstrassModel(a2, a4, model.rhs_at(u))


def _tpow(k: int) -> UniPoly:
    return UniPoly.from_coeffs([0] * k + [1])


def constructed_short_models(max_vdelta: int = 14) -> list[tuple[UniPoly, UniPoly]]:
    """Models y^2 = x^3 + a4(t) x + a6(t) with prescribed local valuations.

    Writing a4 = -c4/48 and a6 = -c6/864 makes the standard invariants of
    the model equal the chosen c4 and c6 exactly.
    """
    pairs: list[tuple[UniPoly, UniPoly]] = []

    def push(c4: UniPoly, c6: UniPoly) -> None:
        pairs.append((c4 * Fraction(-1, 48), c6 * Fraction(-1, 864)))

    # v(delta) = min(3a, 2b) whenever those differ
    for a in range(0, 7):
        for b in range(0, 10):
            if 3 * a == 2 * b or min(3 * a, 2 * b) > max_vdelta:
                continue
            push(_tpow(a), _tpow(b))
    # cancellation families: 3a = 2b = m and v(delta) = d is any value >= m
    for a, b in ((0, 0), (2, 3), (4, 6)):
        m = 3 * a
        for d in range(m, max_vdelta + 1):
            if d == m:
                push(2 * _tpow(a), _tpow(b))
            else:
                push(_tpow(a) + _tpow(a + d - m), _tpow(b))
    # identically zero c4 (j = 0 fibers) and c6 (j = 1728 fibers)
    for b in range(0, 8):
        if 2 * b <= max_vdelta + 12:
            push(UniPoly.zero(), _tpow(b))
    for a in range(0, 6):
        if 3 * a <= max_vdelta + 12:
            push(_tpow(a), UniPoly.zero())
    # a doubly non-minimal point
    push(2 * _tpow(8), _tpow(12))
    return pairs


# ---------------------------------------------------------------------------
# samplers for the golden fiber-configuration suites

BASE = ("s", "t")


def random_form(rng: random.Random, vars, degree: int, lo=-9, hi=9) -> HomPoly:
    while True:
        coeffs = tuple(Fraction(rng.randint(lo, hi)) for _ in range(degree + 1))
        if any(coeffs):
            return HomPoly.of(vars, coeffs)


def separable(form: HomPoly) -> bool:
    """True when the form has distinct roots on the projective line."""
    return not form.is_zero and form_discriminant(form) != 0


def sample_rational_surface(rng: random.Random) -> du.RESData:
    """Degrees-(4, 6) data whose discriminant has twelve distinct roots."""
    while True:
        f = random_form(rng, BASE, 4)
        g = random_form(rng, BASE, 6)
        try:
            r = du.RESData(f, g)
        except Exception:
            continue
        if separable(r.reduced_discriminant()):
            return r


def sample_cover_parameters(rng: random.Random, r: du.RESData):
    """Line parameters (d0, d_inf) valid for both the cover and the twist."""
    disc = r.reduced_discriminant()
    while True:
        d0 = Fraction(rng.randint(-6, 6))
        d_inf = Fraction(rng.randint(-6, 6))
        if (1 - d0) * (1 - d_inf) * (1 - d0 * d_inf) == 0:
            continue
        if disc(d0, 1) == 0 or disc(1, d_inf) == 0 or disc(1, 1) == 0:
            continue
        return d0, d_inf


def sample_isogeny_forms(rng: random.Random):
    """Weight-two (trace, left, right): the trace and the split norm
    left * right of a two-torsion pair, with separable, coprime branch
    factors."""
    while True:
        trace = random_form(rng, BASE, 4, -6, 6)
        left = random_form(rng, BASE, 4, -6, 6)
        right = random_form(rng, BASE, 4, -6, 6)
        norm = left * right
        complement = trace * trace - 4 * norm
        if separable(norm * complement):
            return trace, left, right


def sample_correspondence_triple(rng: random.Random):
    """Normalized (gamma, alpha, delta) with separable branch data."""
    vars = ("U", "V")
    while True:
        d0, a0, g0, a1, a2, g2 = (Fraction(rng.randint(-6, 6)) for _ in range(6))
        gamma = HomPoly.of(vars, (g2, a2, g0))
        alpha = HomPoly.of(vars, (a2, a1, a0))
        delta = HomPoly.of(vars, (g0, a0, d0))
        prod = gamma * delta
        disc = alpha * alpha - 4 * prod
        if prod.is_zero or disc.is_zero:
            continue
        if not separable(prod * disc):
            continue
        if (prod * disc)(0, 1) == 0 or (prod * disc)(1, 0) == 0:
            continue
        return gamma, alpha, delta


def sample_full_torsion_forms(rng: random.Random):
    """Degree-four (trace, difference) with separable split discriminant."""
    while True:
        trace = random_form(rng, BASE, 4, -6, 6)
        difference = random_form(rng, BASE, 4, -6, 6)
        product = (trace * trace - difference * difference) * difference
        if product.is_zero or not separable(product):
            continue
        return trace, difference


def full_torsion_tower_generic(f: HomPoly, g: HomPoly) -> bool:
    """Genericity of the reduced pair: the sextic 4f^3 + 27g^2 must have
    six distinct roots, none at 0, 1 or infinity."""
    disc = 4 * f**3 + 27 * g**2
    if not separable(disc):
        return False
    return (
        disc.coeffs[0] != 0
        and disc(0, 1) != 0
        and disc(1, 1) != 0
    )


def sample_generic_quadruple(rng: random.Random) -> du.BilinearQuadruple:
    """Four bilinear curves passing the genericity gates, with separable
    torsion factors (twelve distinct branch places)."""
    while True:
        rows = tuple(
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(4)) for _ in range(4)
        )
        try:
            quad = du.BilinearQuadruple.of(rows)
            surface = du.bilinear_quadruple_surface(quad)
        except du.GenericityViolated:
            continue
        b, c = surface.torsion_factors
        if separable(b * c * (b - c)):
            return quad


def _interpolated_row(base, x1, x2, lam1, lam2):
    """Row of a bilinear curve meeting ``base`` over s = x1 and s = x2."""
    r1, r2, r3, r4 = base
    a1, b1 = lam1 * (r1 * x1 + r2), lam1 * (r3 * x1 + r4)
    a2, b2 = lam2 * (r1 * x2 + r2), lam2 * (r3 * x2 + r4)
    p1 = (a1 - a2) / (x1 - x2)
    p3 = (b1 - b2) / (x1 - x2)
    return (p1, a1 - p1 * x1, p3, b1 - p3 * x1)


def sample_refiber_quadruple(rng: random.Random) -> du.BilinearQuadruple:
    """Quadruple whose pairs (0,3) and (1,2) meet over rational s values,
    so the refibration's rationality gates always pass."""
    while True:
        row0 = tuple(Fraction(rng.randint(-5, 5)) for _ in range(4))
        row1 = tuple(Fraction(rng.randint(-5, 5)) for _ in range(4))
        xs = rng.sample(range(-6, 7), 4)
        lams = [Fraction(rng.randint(1, 4)) for _ in range(4)]
        try:
            row3 = _interpolated_row(
                row0, Fraction(xs[0]), Fraction(xs[1]), lams[0], lams[1]
            )
            row2 = _interpolated_row(
                row1, Fraction(xs[2]), Fraction(xs[3]), lams[2], lams[3]
            )
            quad = du.BilinearQuadruple.of((row0, row1, row2, row3))
            surface = du.bilinear_quadruple_surface(quad)
        except du.GenericityViolated:
            continue
        b, c = surface.torsion_factors
        if separable(b * c * (b - c)):
            return quad


def sample_three_lines_params(rng: random.Random, **fixed) -> du.ThreeLinesCubicParams:
    """Random line-cubic parameters; keyword overrides pin chain cases."""
    names = ("mu", "nu", "c0", "c1", "d0", "d1", "d2", "e0", "e1", "e2")
    while True:
        draw = {name: Fraction(rng.randint(-5, 5)) for name in names}
        draw.update({k: Fraction(v) for k, v in fixed.items()})
        try:
            return du.ThreeLinesCubicParams.of(**draw)
        except du.ParameterConstraintViolated:
            continue


def star_chain_profile(params: du.ThreeLinesCubicParams):
    """(infinity multiplicity, finite factor) of the model discriminant.

    The discriminant always carries (t + mu)^6 (t + nu)^6; the cofactor's
    degree deficit counts the sharpening at infinity, and the cofactor
    itself carries the nodal places.
    """
    from ellsurf.elliptic import invariants
    from ellsurf.exactpoly import divexact_form, homogenize

    model = du.three_lines_cubic_model(params)
    delta = invariants(model)[2]
    line_mu = UniPoly.of(params.mu, 1)
    line_nu = UniPoly.of(params.nu, 1)
    stars = homogenize((line_mu**6) * (line_nu**6), delta.vars, 12)
    cofactor = divexact_form(delta, stars)
    finite = affine(cofactor)
    return 12 - finite.degree, finite


def three_lines_generic(params: du.ThreeLinesCubicParams) -> bool:
    """Separable nodal factor avoiding both pinned star places."""
    _, finite = star_chain_profile(params)
    if finite.is_zero:
        return False
    if discriminant_form(finite, finite.degree) == 0:
        return False
    return finite(-params.mu) != 0 and finite(-params.nu) != 0
