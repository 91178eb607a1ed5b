"""Quartic genus-one curves, their Jacobian cubics, and the symmetric
bidegree-(2,2) correspondence built from them.

A curve w^2 = P(x), with P of declared degree four, has a Jacobian
elliptic curve eta^2 = xi^3 + f*xi + g whose coefficients (f, g) are
polynomial in the coefficients of P.  This module provides that
reduction, the exact pointwise map from the curve to its Jacobian
(``abel_jacobi``, whose image is the pair (xi, eta), or ``None`` for the
point at infinity), the symmetric coupling polynomial relating two
copies of the curve, j-invariants for both presentations, and the
double-quadric branch data generated by a quartic curve together with
two line parameters.

The coupling polynomials in two affine coordinates x and x0 are
bidegree-(2,2) ``BiHomPoly`` forms in the pairs (U, V) and (S, T), with
x = U/V and x0 = S/T; their affine reading is ``form(x, 1, x0, 1)``.
``correspondence_polys`` returns them as the pair (pairing, cofactor),
and ``correspondence_22`` returns the one form phi, whose coefficients
in (S, T) are the curve's triple (gamma, alpha, delta).
They are built from integer rows: each entry is an integer combination of
the quartic's numerators, over 6*den for the pairing and 36*den^2 for the
cofactor, and the Jacobian pair (f, g) is read off the same numerators.
The ``coupling-product`` check tests pairing^2 + cofactor*(x - x0)^2 =
P(x)*P(x0) as one bidegree-(4,4) form identity; its six anchors x0 only
name where a failing identity breaks.  P' and Q' are the partials dF/dU at (x, 1).
A ruling-symmetric (2,2) curve is held as its triple alone: ``check_triple``
checks it, ``exchange_constraint`` reads the depressed curves' obstruction
off it, and ``surface_symmetry`` moves it with the two line parameters.

All arithmetic is exact; every identity below holds as a polynomial
equality over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactpoly import (
    BiHomPoly,
    HomPoly,
    RationalLike,
    ZeroScale,
    check_forms,
    form_discriminant,
    form_partials,
    is_separable,
    rat,
    tensor_forms,
)

__all__ = [
    "BasePointRamified",
    "NormalizationViolated",
    "NotOnCurve",
    "QuarticCurve",
    "QuarticSurfaceData",
    "SEPARATION_SQUARE",
    "ShortCubic",
    "SingularCurve",
    "UnitViolation",
    "UnknownKind",
    "ZeroScale",
    "abel_jacobi",
    "check_triple",
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


class UnknownKind(ValueError):
    """A builder was given a kind or reading name it does not know."""


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
        disc = self.discriminant
        if disc == 0:
            raise SingularCurve("j-invariant of a singular cubic")
        return -6912 * self.f**3 / disc


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
    check_forms((a0, a1, a2, a3, a4), (a0.degree,) * 5, "the Jacobian pair")
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


# (x - x0)^2 = x^2 - 2*x*x0 + x0^2 in the pairs of the coupling polynomials
SEPARATION_SQUARE = BiHomPoly.from_num(_X_PAIR, _X0_PAIR, ((0, 0, 1), (0, -2, 0), (1, 0, 0)))


def correspondence_polys(h: QuarticCurve) -> tuple[BiHomPoly, BiHomPoly]:
    """The coupling data ``(pairing, cofactor)`` of a quartic curve.

    ``pairing`` restricts to P on the diagonal; ``cofactor`` is the
    bi-quadratic with pairing^2 + cofactor*(x - x0)^2 = P(x)*P(x0); its
    diagonal equals (1/3)*P*P'' - (1/4)*P'^2, one 36th of the Hessian
    F_UU*F_VV - F_UV^2 of the quartic form F.  Both are symmetric
    bidegree-(2,2) forms, read affinely at x = U/V and x0 = S/T.
    """
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
    return pairing, cofactor


def discr_relation_check(h: QuarticCurve) -> tuple[Fraction, Fraction, Fraction]:
    """Return (Discr(P), Discr(Q), g) for Q the cofactor diagonal.

    Both discriminants are taken at declared degree four.  The relations
    Discr(Q) = g^2 * Discr(P) and Discr(P) = -4f^3 - 27g^2 hold
    identically; this only computes the three numbers, and the
    ``discriminant-relation`` check family tests both relations.
    """
    cubic = jacobian_quartic(h)
    disc_p = h.discriminant()
    disc_q = QuarticCurve(correspondence_polys(h)[1].diagonal()).discriminant()
    return disc_p, disc_q, cubic.g


# ---------------------------------------------------------------------------
# the pointwise map to the Jacobian
# ---------------------------------------------------------------------------


def abel_jacobi(
    h: QuarticCurve,
    base: tuple[RationalLike, RationalLike],
    pt: tuple[RationalLike, RationalLike],
) -> tuple[Fraction, Fraction] | None:
    """Map a point of the curve to its Jacobian cubic: the image (xi, eta),
    or ``None`` for the point at infinity.

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
        return None
    # P'(x) is dF/dU at (x, 1), and Q'(x) likewise for the form Q
    dp = form_partials(h.form)[0]
    if px == x0:
        # conjugate of the base point; pw == w0 != 0 on the curve
        q = correspondence_polys(h)[1].diagonal()
        dq = form_partials(q)[0]
        value_p, value_q = h.rhs(x0), q(x0, 1)  # P(x0) = w0^2 is nonzero here
        bracket = dp(x0, 1) * value_q - value_p * dq(x0, 1)
        return -value_q / value_p, bracket / (2 * w0**3)
    pairing = correspondence_polys(h)[0]
    dx = px - x0
    xi = 2 * (pairing(px, 1, x0, 1) - pw * w0) / dx**2
    eta = 4 * pw * w0 * (pw - w0) / dx**3 - (dp(px, 1) * w0 + dp(x0, 1) * pw) / dx**2
    return xi, eta


# ---------------------------------------------------------------------------
# the symmetric bidegree-(2,2) presentation
# ---------------------------------------------------------------------------


def correspondence_22(h: QuarticCurve, xi: RationalLike) -> BiHomPoly:
    """The bidegree-(2,2) image ``phi`` of the curve at Jacobian coordinate xi.

    phi = xi^2*(x - x0)^2 - 4*xi*pairing - 4*cofactor is a form in
    x = U/V and x0 = S/T; it is symmetric and, for smooth curves, shares
    the j-invariant of the curve.  Its form triple collects powers of the
    second coordinate: ``phi.pair2_coefficient(j)`` for j = 0, 1, 2 are
    gamma, alpha, delta with phi(x, 1, x0, 1) = gamma(x,1)*x0^2
    + alpha(x,1)*x0 + delta(x,1).
    """
    x = rat(xi)
    pairing, cofactor = correspondence_polys(h)
    return (x * x) * SEPARATION_SQUARE - (4 * x) * pairing - 4 * cofactor


def j_invariant_quartic(h: QuarticCurve) -> Fraction:
    """j-invariant of a smooth quartic curve via its Jacobian cubic."""
    return jacobian_quartic(h).j_invariant()


def j_invariant_22(phi: BiHomPoly) -> Fraction:
    """j-invariant of a bidegree-(2,2) curve ``phi``.

    The discriminant alpha^2 - 4*gamma*delta in the second coordinate is
    a form of degree four in the first; its Jacobian cubic carries the
    j-invariant.
    """
    gamma, alpha, delta = (phi.pair2_coefficient(j) for j in range(3))
    return j_invariant_quartic(QuarticCurve(alpha * alpha - 4 * (gamma * delta)))


# ---------------------------------------------------------------------------
# the symmetric triple and its moves
# ---------------------------------------------------------------------------


def check_triple(gamma: HomPoly, alpha: HomPoly, delta: HomPoly) -> None:
    """Raise unless the triple is quadratic forms on one pair
    (``DegreeMismatch``) whose coefficient matrix, row i the i-th form, is
    symmetric (``NormalizationViolated``): the triple of a (2,2) curve
    invariant under exchanging its two rulings."""
    triple = (gamma, alpha, delta)
    check_forms(triple, (2, 2, 2), "the form triple")
    for i, j in ((0, 1), (0, 2), (1, 2)):
        f_i, f_j = triple[i], triple[j]
        if f_i.num[j] * f_j.den != f_j.num[i] * f_i.den:
            raise NormalizationViolated("triple is not symmetric under exchanging the rulings")


def exchange_constraint(gamma: HomPoly, alpha: HomPoly, delta: HomPoly) -> Fraction:
    """The obstruction 2*alpha0*gamma2 - alpha1*alpha2 + 2*alpha2*gamma0 of
    a triple that passes ``check_triple``.

    It vanishes for triples arising from depressed quartic curves (no
    cubic term); exposed so callers can locate the constrained locus.
    """
    check_triple(gamma, alpha, delta)
    g, a = gamma.num, alpha.num
    return Fraction(
        2 * (a[2] * g[0] + a[0] * g[2]) * alpha.den - a[1] * a[0] * gamma.den,
        alpha.den * alpha.den * gamma.den,
    )


def surface_symmetry(
    triple: tuple[HomPoly, HomPoly, HomPoly],
    c0: RationalLike,
    c_inf: RationalLike,
    case: str,
    lam: RationalLike = 1,
    mu: RationalLike = 1,
) -> tuple[tuple[HomPoly, HomPoly, HomPoly], Fraction, Fraction]:
    """One of the four moves of (triple, c0, c_inf) inducing isomorphic
    surfaces, returned as (moved triple, c0, c_inf); ``triple`` must pass
    ``check_triple``, (c0, c_inf) locate the two line components of the
    branch locus, and (x, y) is the forms' pair:

    - "a": every form times lam;
    - "b": each form at (x, mu*y), times 1, mu and mu^2, moving (c0, c_inf)
      to (mu*c0, c_inf/mu);
    - "c": exchange of the two rulings, (delta, alpha, gamma) with x and y
      swapped, inverting c0 and c_inf;
    - "d": absorption of the two line components, negating (c0, c_inf).

    Any other case raises ``UnknownKind``.
    """
    check_triple(*triple)
    c0, ci = rat(c0), rat(c_inf)
    pair = triple[0].vars
    if case == "a":
        scale = rat(lam)
        if scale == 0:
            raise ZeroScale("overall scale must be nonzero")
        return tuple(scale * f for f in triple), c0, ci
    if case == "b":
        m = rat(mu)
        if m == 0:
            raise ZeroScale("weighted scale must be nonzero")
        x, y = HomPoly.of(pair, (1, 0)), HomPoly.of(pair, (0, m))
        return tuple(m**k * f.substitute(x, y) for k, f in enumerate(triple)), m * c0, ci / m
    if case == "c":
        if c0 == 0 or ci == 0:
            raise ZeroScale("cannot invert a zero line parameter")
        return tuple(f.swap().rename(pair) for f in triple[::-1]), 1 / c0, 1 / ci
    if case == "d":
        # the move (x, y) -> (x + c0 y, c_inf x + y) on both rulings: on
        # (S, T) it recombines the triple, on (U, V) it substitutes into
        # each form
        gamma, alpha, delta = triple
        moved = (
            gamma + ci * alpha + ci * ci * delta,
            2 * c0 * gamma + (1 + c0 * ci) * alpha + 2 * ci * delta,
            c0 * c0 * gamma + c0 * alpha + delta,
        )
        u, v = HomPoly.of(pair, (1, c0)), HomPoly.of(pair, (ci, 1))
        return tuple(f.substitute(u, v) for f in moved), -c0, -ci
    raise UnknownKind(f"unknown symmetry case {case!r}; expected one of ('a', 'b', 'c', 'd')")


# ---------------------------------------------------------------------------
# the double-quadric built from a quartic curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuarticSurfaceData:
    """Branch data of the double-quadric attached to a quartic curve.

    The branch locus is the product of two (1,0)-lines in the first
    ruling, the two coordinate sections of the second ruling, and the
    symmetric (2,2) curve ``correspondence``, the coupling of the curve
    at Jacobian coordinate xi; the curve and xi themselves are not kept.
    Its triple is ``correspondence.pair2_coefficient(j)`` for j = 0, 1, 2,
    and the line parameters are read off ``line_factors``.  The
    associated models are ``duality.correspondence_surfaces`` of the
    triple.
    """

    correspondence: BiHomPoly
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
    if not is_separable(curve.form):
        raise SingularCurve("the quartic curve is singular")
    phi = correspondence_22(curve, xi)
    line0 = HomPoly.of(_X0_PAIR, (1, -c0v))
    line_inf = HomPoly.of(_X0_PAIR, (-civ, 1))
    u_factor = HomPoly.var_power(_X_PAIR, 0, 1)
    v_factor = HomPoly.var_power(_X_PAIR, 1, 1)
    # gamma, alpha, delta are the coefficients of S^2, S*T, T^2 in phi, and
    # phi is symmetric, so phi read in (S, T) x (U, V) is the quadric
    quadric = BiHomPoly(_X0_PAIR, _X_PAIR, phi.num, phi.den)
    branch = tensor_forms(line0 * line_inf, u_factor * v_factor) * quadric
    return QuarticSurfaceData(
        phi,
        (line0, line_inf),
        (u_factor, v_factor),
        quadric,
        branch,
    )
