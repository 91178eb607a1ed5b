"""Quartic genus-one curves, their Jacobian cubics, and the symmetric
bidegree-(2,2) correspondence built from them.

A curve w^2 = P(x), with P of declared degree four, has a Jacobian
elliptic curve eta^2 = xi^3 + f*xi + g whose coefficients (f, g) are
polynomial in the coefficients of P.  This module provides that
reduction, the exact pointwise map from the curve to its Jacobian, the
symmetric coupling polynomial relating two copies of the curve,
j-invariants for both presentations, and the double-quadric branch data
generated by a quartic curve together with two line parameters.

All arithmetic is exact; every identity below holds as a polynomial
equality over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactpoly import (
    BiHomPoly,
    DegreeMismatch,
    HomPoly,
    RationalLike,
    UniPoly,
    ZeroScale,
    discriminant_form,
    homogenize,
    rat,
    tensor_forms,
)

__all__ = [
    "AJImage",
    "BasePointRamified",
    "BiQuadratic",
    "Biquadratic22",
    "CorrespondencePolys",
    "FamilyParams",
    "NormalizationViolated",
    "NotOnCurve",
    "QuarticCurve",
    "QuarticSurfaceData",
    "ShortCubic",
    "SingularCurve",
    "UnitViolation",
    "ZeroScale",
    "abel_jacobi",
    "correspondence_22",
    "correspondence_polys",
    "discr_relation_check",
    "double_quadric_from_quartic",
    "exchange_constraint",
    "hermite_pair_forms",
    "j_invariant_22",
    "j_invariant_quartic",
    "jacobian_quartic",
    "surface_symmetry",
]


class NotOnCurve(ValueError):
    """A supplied point does not satisfy the curve equation."""


class BasePointRamified(ValueError):
    """The base point has w = 0, where the pointwise map has no formula."""


class SingularCurve(ValueError):
    """Vanishing discriminant where a smooth curve is required."""


class UnitViolation(ValueError):
    """The product of the two line parameters equals one."""


class NormalizationViolated(ValueError):
    """A coefficient triple fails the symmetric normalization."""


def _disc4(p: UniPoly) -> Fraction:
    """Discriminant of ``p`` as a binary form of declared degree four."""
    if p.is_zero:
        return Fraction(0)
    return discriminant_form(p, 4)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuarticCurve:
    """The genus-one curve w^2 = a0 + a1*x + a2*x^2 + a3*x^3 + a4*x^4.

    The defining polynomial is always read at declared degree four, so a
    vanishing ``a4`` counts as a root at infinity.
    """

    a0: Fraction
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction

    @staticmethod
    def of(
        a0: RationalLike,
        a1: RationalLike,
        a2: RationalLike,
        a3: RationalLike,
        a4: RationalLike,
    ) -> QuarticCurve:
        return QuarticCurve(rat(a0), rat(a1), rat(a2), rat(a3), rat(a4))

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
        return (self.a0, self.a1, self.a2, self.a3, self.a4)

    def poly(self) -> UniPoly:
        return UniPoly.from_coeffs(self.coeffs)

    def rhs(self, x: RationalLike) -> Fraction:
        return self.poly()(x)

    def contains(self, x: RationalLike, w: RationalLike) -> bool:
        return rat(w) ** 2 == self.rhs(x)

    def discriminant(self) -> Fraction:
        """Declared-degree-four discriminant of the defining polynomial."""
        return _disc4(self.poly())

    @property
    def is_smooth(self) -> bool:
        return self.discriminant() != 0


@dataclass(frozen=True)
class ShortCubic:
    """The elliptic curve eta^2 = xi^3 + f*xi + g."""

    f: Fraction
    g: Fraction

    @staticmethod
    def of(f: RationalLike, g: RationalLike) -> ShortCubic:
        return ShortCubic(rat(f), rat(g))

    @property
    def discriminant(self) -> Fraction:
        return -4 * self.f**3 - 27 * self.g**2

    @property
    def is_smooth(self) -> bool:
        return self.discriminant != 0

    def rhs(self, xi: RationalLike) -> Fraction:
        x = rat(xi)
        return x**3 + self.f * x + self.g

    def contains(self, xi: RationalLike, eta: RationalLike) -> bool:
        return rat(eta) ** 2 == self.rhs(xi)

    def j_invariant(self) -> Fraction:
        den = 4 * self.f**3 + 27 * self.g**2
        if den == 0:
            raise SingularCurve("j-invariant of a singular cubic")
        return 6912 * self.f**3 / den


def jacobian_quartic(h: QuarticCurve) -> ShortCubic:
    """Jacobian of a quartic curve as a short cubic.

    The coefficient pair satisfies -4f^3 - 27g^2 = Discr(P) at declared
    degree four.
    """
    a0, a1, a2, a3, a4 = h.coeffs
    f = -4 * a0 * a4 + a1 * a3 - a2**2 / 3
    g = (
        Fraction(-8, 3) * a0 * a2 * a4
        + a0 * a3**2
        + a1**2 * a4
        - a1 * a2 * a3 / 3
        + Fraction(2, 27) * a2**3
    )
    return ShortCubic(f, g)


def hermite_pair_forms(
    a0: HomPoly, a1: HomPoly, a2: HomPoly, a3: HomPoly, a4: HomPoly
) -> tuple[HomPoly, HomPoly]:
    """The Jacobian coefficient pair with binary forms as coefficients.

    All five inputs must share variables and degree d; the result has
    degrees (2d, 3d).  Specializing the forms to constants recovers
    ``jacobian_quartic``.
    """
    forms = (a0, a1, a2, a3, a4)
    for other in forms[1:]:
        a0._check_vars(other)
    degs = {p.degree for p in forms}
    if len(degs) != 1:
        raise DegreeMismatch("coefficient forms must share one degree")
    f = -4 * (a0 * a4) + a1 * a3 - Fraction(1, 3) * (a2 * a2)
    g = (
        Fraction(-8, 3) * (a0 * a2 * a4)
        + a0 * (a3 * a3)
        + (a1 * a1) * a4
        - Fraction(1, 3) * (a1 * a2 * a3)
        + Fraction(2, 27) * (a2 * a2 * a2)
    )
    return f, g


# ---------------------------------------------------------------------------
# the coupling polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiQuadratic:
    """Affine polynomial of bidegree at most (2, 2).

    ``rows[i][j]`` multiplies ``x^i * x0^j`` where x is the first
    argument and x0 the second.
    """

    rows: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_rows(rows) -> BiQuadratic:
        grid = tuple(tuple(rat(c) for c in row) for row in rows)
        if len(grid) != 3 or any(len(row) != 3 for row in grid):
            raise ValueError("expected a 3x3 coefficient grid")
        return BiQuadratic(grid)

    @staticmethod
    def zero() -> BiQuadratic:
        return BiQuadratic(tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3)))

    def coeff(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def __call__(self, x: RationalLike, x0: RationalLike) -> Fraction:
        xv, yv = rat(x), rat(x0)
        acc = Fraction(0)
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                if c != 0:
                    acc += c * xv**i * yv**j
        return acc

    def __add__(self, other: BiQuadratic) -> BiQuadratic:
        return BiQuadratic(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: BiQuadratic) -> BiQuadratic:
        return self + (-other)

    def __neg__(self) -> BiQuadratic:
        return BiQuadratic(tuple(tuple(-c for c in row) for row in self.rows))

    def __mul__(self, other: RationalLike) -> BiQuadratic:
        c = rat(other)
        return BiQuadratic(tuple(tuple(c * v for v in row) for row in self.rows))

    def __rmul__(self, other: RationalLike) -> BiQuadratic:
        return self.__mul__(other)

    @property
    def is_symmetric(self) -> bool:
        return all(
            self.rows[i][j] == self.rows[j][i] for i in range(3) for j in range(i)
        )

    def diagonal(self) -> UniPoly:
        """The restriction to x0 = x, a polynomial of degree at most 4."""
        coeffs = [Fraction(0)] * 5
        for i, row in enumerate(self.rows):
            for j, c in enumerate(row):
                coeffs[i + j] += c
        return UniPoly.from_coeffs(coeffs)

    def second_coefficient(self, j: int) -> UniPoly:
        """Coefficient of ``x0^j`` as a polynomial in x."""
        return UniPoly.from_coeffs(tuple(self.rows[i][j] for i in range(3)))

    def at_second(self, value: RationalLike) -> UniPoly:
        """Specialize the second argument to a rational value."""
        c = rat(value)
        out = UniPoly.zero()
        for j in range(3):
            out = out + self.second_coefficient(j) * (c**j)
        return out


# x^2 - 2*x*x0 + x0^2
_SEPARATION_SQUARE = BiQuadratic.from_rows(((0, 0, 1), (0, -2, 0), (1, 0, 0)))


@dataclass(frozen=True)
class CorrespondencePolys:
    """The coupling data of a quartic curve.

    ``pairing`` restricts to P on the diagonal; ``cofactor`` is the
    bi-quadratic with pairing^2 + cofactor*(x - x0)^2 = P(x)*P(x0); its
    diagonal equals (1/3)*P*P'' - (1/4)*P'^2.
    """

    pairing: BiQuadratic
    cofactor: BiQuadratic
    cofactor_diagonal: UniPoly


def correspondence_polys(h: QuarticCurve) -> CorrespondencePolys:
    a0, a1, a2, a3, a4 = h.coeffs
    pairing = BiQuadratic.from_rows(
        (
            (a0, a1 / 2, a2 / 6),
            (a1 / 2, Fraction(2, 3) * a2, a3 / 2),
            (a2 / 6, a3 / 2, a4),
        )
    )
    corner = (8 * a0 * a2 - 3 * a1**2) / 12
    edge = (6 * a0 * a3 - a1 * a2) / 6
    outer = (36 * a0 * a4 - a2**2) / 36
    center = (36 * a0 * a4 + 9 * a1 * a3 - 5 * a2**2) / 18
    upper_edge = (6 * a1 * a4 - a2 * a3) / 6
    upper_corner = (8 * a2 * a4 - 3 * a3**2) / 12
    cofactor = BiQuadratic.from_rows(
        (
            (corner, edge, outer),
            (edge, center, upper_edge),
            (outer, upper_edge, upper_corner),
        )
    )
    return CorrespondencePolys(pairing, cofactor, cofactor.diagonal())


def discr_relation_check(h: QuarticCurve) -> tuple[Fraction, Fraction, Fraction]:
    """Return (Discr(P), Discr(Q), g) for Q the cofactor diagonal.

    Both discriminants are taken at declared degree four; the relations
    Discr(Q) = g^2 * Discr(P) and Discr(P) = -4f^3 - 27g^2 hold
    identically and are asserted here.
    """
    cubic = jacobian_quartic(h)
    disc_p = h.discriminant()
    disc_q = _disc4(correspondence_polys(h).cofactor_diagonal)
    assert disc_p == cubic.discriminant
    assert disc_q == cubic.g**2 * disc_p
    return disc_p, disc_q, cubic.g


# ---------------------------------------------------------------------------
# the pointwise map to the Jacobian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AJImage:
    """A point of the Jacobian cubic: either finite or at infinity."""

    xi: Fraction | None
    eta: Fraction | None

    @staticmethod
    def infinity() -> AJImage:
        return AJImage(None, None)

    @staticmethod
    def at(xi: RationalLike, eta: RationalLike) -> AJImage:
        return AJImage(rat(xi), rat(eta))

    @property
    def is_infinity(self) -> bool:
        return self.xi is None


def abel_jacobi(
    h: QuarticCurve,
    base: tuple[RationalLike, RationalLike],
    pt: tuple[RationalLike, RationalLike],
) -> AJImage:
    """Map a point of the curve to its Jacobian cubic.

    ``base`` is the point sent to infinity.  Its conjugate (same x,
    opposite w) has a closed-form image requiring w != 0 there; a
    ramified base point (w = 0) admits no formula for its own image.
    """
    bx, bw = rat(base[0]), rat(base[1])
    px, pw = rat(pt[0]), rat(pt[1])
    if not h.contains(bx, bw):
        raise NotOnCurve("base point does not satisfy the curve equation")
    if not h.contains(px, pw):
        raise NotOnCurve("point does not satisfy the curve equation")
    # internally the map is anchored at (x0, -w0) = base
    x0, w0 = bx, -bw
    if px == x0:
        if pw == -w0:
            if w0 == 0:
                raise BasePointRamified("no formula at a ramified base point")
            return AJImage.infinity()
        # conjugate of the base point; pw == w0 != 0 on the curve
        q = correspondence_polys(h).cofactor_diagonal
        p = h.poly()
        value_p = p(x0)  # equals w0^2, nonzero here
        bracket = p.derivative()(x0) * q(x0) - value_p * q.derivative()(x0)
        return AJImage.at(-q(x0) / value_p, bracket / (2 * w0**3))
    pairing = correspondence_polys(h).pairing
    dx = px - x0
    xi = 2 * (pairing(px, x0) - pw * w0) / dx**2
    dp = h.poly().derivative()
    eta = 4 * pw * w0 * (pw - w0) / dx**3 - (dp(px) * w0 + dp(x0) * pw) / dx**2
    return AJImage.at(xi, eta)


# ---------------------------------------------------------------------------
# the symmetric bidegree-(2,2) presentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Biquadratic22:
    """A symmetric bidegree-(2,2) curve in two affine line coordinates.

    ``phi`` is the affine polynomial; the form triple collects powers of
    the second coordinate: phi(x, x0) = gamma(x,1)*x0^2 + alpha(x,1)*x0
    + delta(x,1).
    """

    phi: BiQuadratic
    gamma: HomPoly
    alpha: HomPoly
    delta: HomPoly


def correspondence_22(
    h: QuarticCurve, xi: RationalLike, vars: tuple[str, str] = ("U", "V")
) -> Biquadratic22:
    """The bidegree-(2,2) image of the curve at Jacobian coordinate xi.

    phi = xi^2*(x - x0)^2 - 4*xi*pairing - 4*cofactor; it is symmetric
    and, for smooth curves, shares the j-invariant of the curve.
    """
    x = rat(xi)
    polys = correspondence_polys(h)
    phi = (x * x) * _SEPARATION_SQUARE - (4 * x) * polys.pairing - 4 * polys.cofactor
    gamma = homogenize(phi.second_coefficient(2), vars, 2)
    alpha = homogenize(phi.second_coefficient(1), vars, 2)
    delta = homogenize(phi.second_coefficient(0), vars, 2)
    return Biquadratic22(phi, gamma, alpha, delta)


def j_invariant_quartic(h: QuarticCurve) -> Fraction:
    """j-invariant of a smooth quartic curve via its Jacobian cubic."""
    return jacobian_quartic(h).j_invariant()


def j_invariant_22(b: Biquadratic22) -> Fraction:
    """j-invariant of a bidegree-(2,2) curve.

    The discriminant in the second coordinate is a declared-degree-four
    polynomial in the first; its Jacobian cubic carries the j-invariant.
    """
    ghat = b.gamma.as_unipoly()
    ahat = b.alpha.as_unipoly()
    dhat = b.delta.as_unipoly()
    resolvent = ahat * ahat - 4 * (ghat * dhat)
    quartic = QuarticCurve.of(*(resolvent.coeff(i) for i in range(5)))
    return j_invariant_quartic(quartic)


# ---------------------------------------------------------------------------
# the six-parameter family and its symmetries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of the symmetric double-quadric family.

    The six coefficients determine the normalized form triple
    gamma = gamma2*x^2 + alpha2*x*y + gamma0*y^2,
    alpha = alpha2*x^2 + alpha1*x*y + alpha0*y^2,
    delta = gamma0*x^2 + alpha0*x*y + delta0*y^2,
    and (c0, c_inf) locate the two line components of the branch locus.
    """

    delta0: Fraction
    alpha0: Fraction
    gamma0: Fraction
    alpha1: Fraction
    alpha2: Fraction
    gamma2: Fraction
    c0: Fraction
    c_inf: Fraction

    @staticmethod
    def of(
        delta0: RationalLike,
        alpha0: RationalLike,
        gamma0: RationalLike,
        alpha1: RationalLike,
        alpha2: RationalLike,
        gamma2: RationalLike,
        c0: RationalLike,
        c_inf: RationalLike,
    ) -> FamilyParams:
        return FamilyParams(
            rat(delta0),
            rat(alpha0),
            rat(gamma0),
            rat(alpha1),
            rat(alpha2),
            rat(gamma2),
            rat(c0),
            rat(c_inf),
        )

    @staticmethod
    def from_triple(
        gamma: HomPoly,
        alpha: HomPoly,
        delta: HomPoly,
        c0: RationalLike,
        c_inf: RationalLike,
    ) -> FamilyParams:
        gamma._check_vars(alpha)
        gamma._check_vars(delta)
        if {gamma.degree, alpha.degree, delta.degree} != {2}:
            raise DegreeMismatch("the form triple must have degree two")
        g2, g1, g0 = gamma.coeffs
        a2, a1, a0 = alpha.coeffs
        d2, d1, d0 = delta.coeffs
        if g1 != a2 or d2 != g0 or d1 != a0:
            raise NormalizationViolated(
                "triple is not symmetric under exchanging the two rulings"
            )
        return FamilyParams(d0, a0, g0, a1, a2, g2, rat(c0), rat(c_inf))

    def triple(self, vars: tuple[str, str] = ("U", "V")) -> tuple[HomPoly, HomPoly, HomPoly]:
        gamma = HomPoly.of(vars, (self.gamma2, self.alpha2, self.gamma0))
        alpha = HomPoly.of(vars, (self.alpha2, self.alpha1, self.alpha0))
        delta = HomPoly.of(vars, (self.gamma0, self.alpha0, self.delta0))
        return gamma, alpha, delta


def exchange_constraint(params: FamilyParams) -> Fraction:
    """The obstruction 2*alpha0*gamma2 - alpha1*alpha2 + 2*alpha2*gamma0.

    It vanishes for triples arising from depressed quartic curves (no
    cubic term); exposed so callers can locate the constrained locus.
    """
    return (
        2 * params.alpha0 * params.gamma2
        - params.alpha1 * params.alpha2
        + 2 * params.alpha2 * params.gamma0
    )


def surface_symmetry(
    params: FamilyParams,
    case: str,
    lam: RationalLike = 1,
    mu: RationalLike = 1,
) -> FamilyParams:
    """One of the four parameter moves inducing isomorphic surfaces.

    - "a": overall scaling of the six coefficients by lam;
    - "b": weighted rescaling by mu, moving (c0, c_inf) to (mu*c0, c_inf/mu);
    - "c": exchange of the two rulings, inverting c0 and c_inf;
    - "d": absorption of the two line components, negating (c0, c_inf).
    """
    p = params
    if case == "a":
        scale = rat(lam)
        if scale == 0:
            raise ZeroScale("overall scale must be nonzero")
        return FamilyParams(
            scale * p.delta0,
            scale * p.alpha0,
            scale * p.gamma0,
            scale * p.alpha1,
            scale * p.alpha2,
            scale * p.gamma2,
            p.c0,
            p.c_inf,
        )
    if case == "b":
        m = rat(mu)
        if m == 0:
            raise ZeroScale("weighted scale must be nonzero")
        return FamilyParams(
            m**4 * p.delta0,
            m**3 * p.alpha0,
            m**2 * p.gamma0,
            m**2 * p.alpha1,
            m * p.alpha2,
            p.gamma2,
            m * p.c0,
            p.c_inf / m,
        )
    if case == "c":
        if p.c0 == 0 or p.c_inf == 0:
            raise ZeroScale("cannot invert a zero line parameter")
        return FamilyParams(
            p.gamma2, p.alpha2, p.gamma0, p.alpha1, p.alpha0, p.delta0,
            1 / p.c0, 1 / p.c_inf,
        )
    if case == "d":
        d0, a0, g0, a1, a2, g2 = (
            p.delta0, p.alpha0, p.gamma0, p.alpha1, p.alpha2, p.gamma2,
        )
        c0, ci = p.c0, p.c_inf
        new_d0 = g2 * c0**4 + 2 * a2 * c0**3 + (a1 + 2 * g0) * c0**2 + 2 * a0 * c0 + d0
        new_a0 = (
            (a2 * ci + 2 * g2) * c0**3
            + ((a1 + 2 * g0) * ci + 3 * a2) * c0**2
            + (3 * a0 * ci + a1 + 2 * g0) * c0
            + 2 * d0 * ci
            + a0
        )
        new_g0 = (
            (g0 * ci**2 + a2 * ci + g2) * c0**2
            + (a0 * ci**2 + a1 * ci + a2) * c0
            + d0 * ci**2
            + a0 * ci
            + g0
        )
        new_a1 = (
            (a1 * ci**2 + 4 * a2 * ci + 4 * g2) * c0**2
            + (4 * a0 * ci**2 + 2 * (a1 + 4 * g0) * ci + 4 * a2) * c0
            + 4 * d0 * ci**2
            + 4 * a0 * ci
            + a1
        )
        new_a2 = (
            (a0 * c0 + 2 * d0) * ci**3
            + ((a1 + 2 * g0) * c0 + 3 * a0) * ci**2
            + (3 * a2 * c0 + a1 + 2 * g0) * ci
            + 2 * g2 * c0
            + a2
        )
        new_g2 = g2 + 2 * a2 * ci + (a1 + 2 * g0) * ci**2 + 2 * a0 * ci**3 + d0 * ci**4
        return FamilyParams(
            new_d0, new_a0, new_g0, new_a1, new_a2, new_g2, -c0, -ci
        )
    raise ValueError(f"unknown symmetry case {case!r}")


# ---------------------------------------------------------------------------
# the double-quadric built from a quartic curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuarticSurfaceData:
    """Branch data of the double-quadric attached to a quartic curve.

    The branch locus is the product of two (1,0)-lines in the first
    ruling, the two coordinate sections of the second ruling, and the
    symmetric (2,2) curve; ``surfaces`` holds the full dictionary of
    associated models and branch identities.
    """

    curve: QuarticCurve
    xi: Fraction
    params: FamilyParams
    correspondence: Biquadratic22
    line_factors: tuple[HomPoly, HomPoly]
    ruling_factors: tuple[HomPoly, HomPoly]
    quadric: BiHomPoly
    branch: BiHomPoly
    surfaces: dict


def double_quadric_from_quartic(
    a0: RationalLike,
    a1: RationalLike,
    a2: RationalLike,
    xi: RationalLike,
    c0: RationalLike,
    c_inf: RationalLike,
) -> QuarticSurfaceData:
    """Branch data for the double-quadric of a depressed quartic curve.

    The curve is w^2 = x^4 + a2*x^2 + a1*x + a0; the line parameters
    must satisfy c0*c_inf != 1 and the curve must be smooth.
    """
    c0v, civ = rat(c0), rat(c_inf)
    if c0v * civ == 1:
        raise UnitViolation("the product of the line parameters is one")
    curve = QuarticCurve.of(a0, a1, a2, 0, 1)
    if curve.discriminant() == 0:
        raise SingularCurve("the quartic curve is singular")
    corr = correspondence_22(curve, xi)
    params = FamilyParams.from_triple(corr.gamma, corr.alpha, corr.delta, c0v, civ)
    first = ("S", "T")
    second = ("U", "V")
    line0 = HomPoly.of(first, (1, -c0v))
    line_inf = HomPoly.of(first, (-civ, 1))
    u_factor = HomPoly.var_power(second, 0, 1)
    v_factor = HomPoly.var_power(second, 1, 1)
    quadric = BiHomPoly(
        first, second, (corr.gamma.coeffs, corr.alpha.coeffs, corr.delta.coeffs)
    )
    branch = tensor_forms(line0 * line_inf, u_factor * v_factor) * quadric
    from . import duality  # deferred: duality builds on this module

    surfaces = duality.correspondence_surfaces(corr.alpha, corr.gamma, corr.delta)
    return QuarticSurfaceData(
        curve,
        rat(xi),
        params,
        corr,
        (line0, line_inf),
        (u_factor, v_factor),
        quadric,
        branch,
        surfaces,
    )
