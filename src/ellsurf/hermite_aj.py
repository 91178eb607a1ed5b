"""Quartic genus-one curves, their Jacobian cubics, and the symmetric
bidegree-(2,2) correspondence built from them.

A curve w^2 = P(x), with P of declared degree four, has a Jacobian
elliptic curve eta^2 = xi^3 + f*xi + g whose coefficients (f, g) are
polynomial in the coefficients of P.  This module provides that
reduction, the exact pointwise map from the curve to its Jacobian, the
symmetric coupling polynomial relating two copies of the curve,
j-invariants for both presentations, and the double-quadric branch data
generated by a quartic curve together with two line parameters.

The coupling polynomials in two affine coordinates x and x0 are
bidegree-(2,2) ``BiHomPoly`` forms in the pairs (U, V) and (S, T), with
x = U/V and x0 = S/T; their affine reading is ``form(x, 1, x0, 1)``.
They are built from integer rows: each entry is an integer combination of
the quartic's numerators, over 6*den for the pairing and 36*den^2 for the
cofactor, and the Jacobian pair (f, g) is read off the same numerators.
The ``coupling-product`` check tests pairing^2 + cofactor*(x - x0)^2 =
P(x)*P(x0) as one bidegree-(4,4) form identity; its six anchors x0 only
name where a failing identity breaks.  P' and Q' are the partials dF/dU at (x, 1).

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
    ZeroScale,
    form_discriminant,
    form_partials,
    rat,
    tensor_forms,
)

__all__ = [
    "AJImage",
    "BasePointRamified",
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


# the pairs of the two affine coordinates x = U/V and x0 = S/T
_X_PAIR = ("U", "V")
_X0_PAIR = ("S", "T")


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuarticCurve:
    """The genus-one curve w^2 = a0 + a1*x + a2*x^2 + a3*x^3 + a4*x^4.

    ``form`` is the quartic as a binary form of declared degree four, read
    at x = U/V, so a vanishing ``a4`` counts as a root at infinity.
    """

    form: HomPoly

    @staticmethod
    def of(
        a0: RationalLike,
        a1: RationalLike,
        a2: RationalLike,
        a3: RationalLike,
        a4: RationalLike,
    ) -> QuarticCurve:
        return QuarticCurve(HomPoly.of(_X_PAIR, (a4, a3, a2, a1, a0)))

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
        return self.form.coeffs[::-1]

    def rhs(self, x: RationalLike) -> Fraction:
        return self.form(x, 1)

    def contains(self, x: RationalLike, w: RationalLike) -> bool:
        return rat(w) ** 2 == self.rhs(x)

    def discriminant(self) -> Fraction:
        """Discriminant of the form at declared degree four; 0 for the zero form."""
        return Fraction(0) if self.form.is_zero else form_discriminant(self.form)


@dataclass(frozen=True)
class ShortCubic:
    """The elliptic curve eta^2 = xi^3 + f*xi + g."""

    f: Fraction
    g: Fraction

    @property
    def discriminant(self) -> Fraction:
        return -4 * self.f**3 - 27 * self.g**2

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

    f = -4*a0*a4 + a1*a3 - a2^2/3 and g = -8/3*a0*a2*a4 + a0*a3^2 +
    a1^2*a4 - a1*a2*a3/3 + 2/27*a2^3, each read as one integer
    combination of the form's numerators over a power of its
    denominator.  The pair satisfies -4f^3 - 27g^2 = Discr(P) at declared
    degree four.
    """
    # n_k = den * a_k
    n4, n3, n2, n1, n0 = h.form.num
    den = h.form.den
    f = Fraction(-12 * n0 * n4 + 3 * n1 * n3 - n2 * n2, 3 * den * den)
    g = Fraction(
        -72 * n0 * n2 * n4 + 27 * (n0 * n3 * n3 + n1 * n1 * n4) - 9 * n1 * n2 * n3 + 2 * n2**3,
        27 * den**3,
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


# x^2 - 2*x*x0 + x0^2
_SEPARATION_SQUARE = BiHomPoly.from_num(_X_PAIR, _X0_PAIR, ((0, 0, 1), (0, -2, 0), (1, 0, 0)))


@dataclass(frozen=True)
class CorrespondencePolys:
    """The coupling data of a quartic curve.

    ``pairing`` restricts to P on the diagonal; ``cofactor`` is the
    bi-quadratic with pairing^2 + cofactor*(x - x0)^2 = P(x)*P(x0); its
    diagonal equals (1/3)*P*P'' - (1/4)*P'^2, one 36th of the Hessian
    F_UU*F_VV - F_UV^2 of the quartic form F.  Both are symmetric
    bidegree-(2,2) forms, read affinely at x = U/V and x0 = S/T.
    """

    pairing: BiHomPoly
    cofactor: BiHomPoly


def correspondence_polys(h: QuarticCurve) -> CorrespondencePolys:
    # n_k = den * a_k; row i, column j multiplies x^(2-i) * x0^(2-j); both
    # grids are integer rows over 6*den and 36*den^2
    n4, n3, n2, n1, n0 = h.form.num
    den = h.form.den
    pairing = BiHomPoly.from_num(
        _X_PAIR,
        _X0_PAIR,
        ((6 * n4, 3 * n3, n2), (3 * n3, 4 * n2, 3 * n1), (n2, 3 * n1, 6 * n0)),
        6 * den,
    )
    corner = 3 * (8 * n0 * n2 - 3 * n1**2)
    edge = 6 * (6 * n0 * n3 - n1 * n2)
    outer = 36 * n0 * n4 - n2**2
    center = 2 * (36 * n0 * n4 + 9 * n1 * n3 - 5 * n2**2)
    upper_edge = 6 * (6 * n1 * n4 - n2 * n3)
    upper_corner = 3 * (8 * n2 * n4 - 3 * n3**2)
    cofactor = BiHomPoly.from_num(
        _X_PAIR,
        _X0_PAIR,
        (
            (upper_corner, upper_edge, outer),
            (upper_edge, center, edge),
            (outer, edge, corner),
        ),
        36 * den * den,
    )
    return CorrespondencePolys(pairing, cofactor)


def discr_relation_check(h: QuarticCurve) -> tuple[Fraction, Fraction, Fraction]:
    """Return (Discr(P), Discr(Q), g) for Q the cofactor diagonal.

    Both discriminants are taken at declared degree four.  The relations
    Discr(Q) = g^2 * Discr(P) and Discr(P) = -4f^3 - 27g^2 hold
    identically; this only computes the three numbers, and the
    ``discriminant-relation`` check family tests both relations.
    """
    cubic = jacobian_quartic(h)
    disc_p = h.discriminant()
    disc_q = QuarticCurve(correspondence_polys(h).cofactor.diagonal()).discriminant()
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
    if px == x0 and pw == -w0:
        if w0 == 0:
            raise BasePointRamified("no formula at a ramified base point")
        return AJImage.infinity()
    # P'(x) is dF/dU at (x, 1), and Q'(x) likewise for the form Q
    dp = form_partials(h.form)[0]
    if px == x0:
        # conjugate of the base point; pw == w0 != 0 on the curve
        q = correspondence_polys(h).cofactor.diagonal()
        dq = form_partials(q)[0]
        value_p, value_q = h.rhs(x0), q(x0, 1)  # P(x0) = w0^2 is nonzero here
        bracket = dp(x0, 1) * value_q - value_p * dq(x0, 1)
        return AJImage.at(-value_q / value_p, bracket / (2 * w0**3))
    pairing = correspondence_polys(h).pairing
    dx = px - x0
    xi = 2 * (pairing(px, 1, x0, 1) - pw * w0) / dx**2
    eta = 4 * pw * w0 * (pw - w0) / dx**3 - (dp(px, 1) * w0 + dp(x0, 1) * pw) / dx**2
    return AJImage.at(xi, eta)


# ---------------------------------------------------------------------------
# the symmetric bidegree-(2,2) presentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Biquadratic22:
    """A symmetric bidegree-(2,2) curve in two affine line coordinates.

    ``phi`` is the form in x = U/V and x0 = S/T; the form triple collects
    powers of the second coordinate: phi(x, 1, x0, 1) = gamma(x,1)*x0^2
    + alpha(x,1)*x0 + delta(x,1).
    """

    phi: BiHomPoly
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
    gamma, alpha, delta = (phi.pair2_coefficient(j).rename(vars) for j in range(3))
    return Biquadratic22(phi, gamma, alpha, delta)


def j_invariant_quartic(h: QuarticCurve) -> Fraction:
    """j-invariant of a smooth quartic curve via its Jacobian cubic."""
    return jacobian_quartic(h).j_invariant()


def j_invariant_22(b: Biquadratic22) -> Fraction:
    """j-invariant of a bidegree-(2,2) curve.

    The discriminant alpha^2 - 4*gamma*delta in the second coordinate is
    a form of degree four in the first; its Jacobian cubic carries the
    j-invariant.
    """
    return j_invariant_quartic(QuarticCurve(b.alpha * b.alpha - 4 * (b.gamma * b.delta)))


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
        # the move (x, y) -> (x + c0 y, c_inf x + y) on both rulings: on
        # (S, T) it recombines the triple, on (U, V) it substitutes into
        # each form
        c0, ci = p.c0, p.c_inf
        gamma, alpha, delta = p.triple(_X_PAIR)
        moved = (
            gamma + ci * alpha + ci * ci * delta,
            2 * c0 * gamma + (1 + c0 * ci) * alpha + 2 * ci * delta,
            c0 * c0 * gamma + c0 * alpha + delta,
        )
        u, v = HomPoly.of(_X_PAIR, (1, c0)), HomPoly.of(_X_PAIR, (ci, 1))
        return FamilyParams.from_triple(*(f.substitute(u, v) for f in moved), -c0, -ci)
    raise ValueError(f"unknown symmetry case {case!r}")


# ---------------------------------------------------------------------------
# the double-quadric built from a quartic curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuarticSurfaceData:
    """Branch data of the double-quadric attached to a quartic curve.

    The branch locus is the product of two (1,0)-lines in the first
    ruling, the two coordinate sections of the second ruling, and the
    symmetric (2,2) curve.  ``params`` holds the coupling triple of the
    curve at Jacobian coordinate xi together with the line parameters;
    the curve and xi themselves are not kept.  The associated models
    are ``duality.correspondence_surfaces`` of the coupling triple.
    """

    params: FamilyParams
    correspondence: Biquadratic22
    line_factors: tuple[HomPoly, HomPoly]
    ruling_factors: tuple[HomPoly, HomPoly]
    quadric: BiHomPoly
    branch: BiHomPoly


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
    line0 = HomPoly.of(_X0_PAIR, (1, -c0v))
    line_inf = HomPoly.of(_X0_PAIR, (-civ, 1))
    u_factor = HomPoly.var_power(_X_PAIR, 0, 1)
    v_factor = HomPoly.var_power(_X_PAIR, 1, 1)
    # gamma, alpha, delta are the coefficients of S^2, S*T, T^2 in phi, and
    # phi is symmetric, so phi read in (S, T) x (U, V) is the quadric
    quadric = BiHomPoly(_X0_PAIR, _X_PAIR, corr.phi.num, corr.phi.den)
    branch = tensor_forms(line0 * line_inf, u_factor * v_factor) * quadric
    return QuarticSurfaceData(
        params,
        corr,
        (line0, line_inf),
        (u_factor, v_factor),
        quadric,
        branch,
    )
