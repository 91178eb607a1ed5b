"""Surface constructions linking elliptic fibrations by covers, twists,
and isogenies.

Everything here manufactures Weierstrass models or double-cover branch
data from exact rational input:

* degree-two base changes and two-point quadratic twists of a rational
  elliptic surface (``base_change_k3``, ``twist_model``);
* the fiberwise two-isogeny dual of a fibration with a two-torsion
  section (``two_isogeny_dual``);
* double covers of the quadric surface together with the exchange of
  their two rulings (``quadric_double_cover``, whose branch form alone
  is ``quadric_branch``, and ``ruling_swap``) and the model and
  discriminant of the two-parameter deformation obtained by moving a
  pair of section lines (``two_param_family``, ``moduli_involution``),
  all of which take the quartics (trace, left, right) first and return
  plain tuples: ``ruling_swap`` gives (coeffs, f, g),
  ``quadric_double_cover`` (branch, swap, jacobian) and
  ``two_param_family`` (model, reduced_discriminant);
* the towers of models that read one family on a ruling of the quadric
  (on its quotient pair, twisted there by a line, or on a double or
  fourfold cover), each built from one table of readings: the symmetric
  correspondence family (``correspondence_surfaces``, with its branch
  forms in ``correspondence_branches``; its builders take the curve's
  triple as (gamma, alpha, delta)), the family with
  full two-torsion (``full_torsion_surfaces``), and the small tower of a
  short pair (``subfamily_models``), which checks the full-torsion tower
  and so shares no code with it.  A table is built from narrow builders,
  which a caller that reads one entry calls alone:
  ``correspondence_models(kind, ...)`` makes the entries ``<kind>1`` and
  ``<kind>2`` of the correspondence table, ``full_torsion_pair`` the pair
  whose model is ``alt``, and ``full_torsion_jacobian`` the pair ``f``,
  ``g``.  A kind or reading name a builder does not know raises
  ``UnknownKind``;
* double covers branched over four bilinear curves on the quadric
  (``bilinear_quadruple_surface``) and the relative Jacobian of their
  second, genus-one fibration, read off a cover already built
  (``refibration_jacobian``); it lands in the
  three-concurrent-lines-plus-cubic double planes
  (``three_lines_cubic_model``, ``normalize_three_i0star``), whose
  pinned-star data (sq, lin, cst) are pencil forms of degrees 1, 2, 3,
  normalized by the Taylor shift ``shift_cubic_term`` written on forms.

Each short model y^2 = x^3 + a4 x + a6 is built by
``WeierstrassModel.short``, each model with a zero a6 by
``AlternatePair.model``; each branch form that sums the coefficient forms
of a bidegree-(2, 2) curve against the monomials U^2, UV, V^2, read on a
ruling, is built by ``_tensor_sum``.  ``two_param_family`` takes its
deformed data from ``moduli_involution``, which also checks its inputs.

All arithmetic is exact over the rationals; nothing here ever rounds or
approximates.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .elliptic import (
    DegenerateModel,
    WeierstrassModel,
    invariants,
    quadratic_twist,
)
from .exactpoly import (
    BiHomPoly,
    DegreeMismatch,
    HomPoly,
    RationalLike,
    check_forms,
    form_resultant,
    is_separable,
    rat,
    rational_cubic_roots,
    rational_sqrt,
    tensor_forms,
)
from .hermite_aj import FamilyParams, UnitViolation, hermite_pair_forms

__all__ = [
    "AlternatePair",
    "BilinearQuadruple",
    "DegenerateInput",
    "GenericityViolated",
    "NoRationalCubicRoot",
    "NonSquareDiscriminant",
    "ParameterConstraintViolated",
    "QuadrupleCoverSurface",
    "RESData",
    "RefibrationJacobian",
    "SingularBranchFiber",
    "ThreeLinesCubicParams",
    "UnknownKind",
    "base_change_k3",
    "bilinear_quadruple_surface",
    "correspondence_branches",
    "correspondence_models",
    "correspondence_surfaces",
    "form_from_line_restriction",
    "full_torsion_jacobian",
    "full_torsion_pair",
    "full_torsion_surfaces",
    "general_form_coefficients",
    "moduli_involution",
    "normalize_three_i0star",
    "quadric_branch",
    "quadric_double_cover",
    "refibration_jacobian",
    "ruling_swap",
    "shift_cubic_term",
    "star_triple_model",
    "subfamily_models",
    "three_lines_cubic_model",
    "twist_model",
    "two_isogeny_dual",
    "two_param_family",
]

# Base-coordinate conventions.  Quotient bases use capitals, their double
# covers lower case; the fourfold cover gets its own pair, as does the
# affine pencil coordinate (second slot is the homogenizer).
_FIRST_QUOT = ("S", "T")
_FIRST_COVER = ("s", "t")
_SECOND_QUOT = ("U", "V")
_SECOND_COVER = ("u", "v")
_FOURFOLD = ("ut", "vt")
_PENCIL = ("t", "h")


class SingularBranchFiber(ValueError):
    """A fiber that the base change needs to be smooth is singular."""


class DegenerateInput(ValueError):
    """Input forms satisfy an identity that collapses the construction."""


class GenericityViolated(ValueError):
    """A configuration fails one of its genericity conditions."""


class NoRationalCubicRoot(ValueError):
    """The normalizing shift needs a rational cubic root and none exists."""


class NonSquareDiscriminant(ValueError):
    """A rational square root is required and does not exist."""


class ParameterConstraintViolated(ValueError):
    """A parameter tuple violates one of its defining constraints."""


class UnknownKind(ValueError):
    """A builder was given a kind or reading name it does not know."""


def _known(kinds: dict, kind: str):
    """``kinds[kind]``, or ``UnknownKind`` naming the kinds there are."""
    if kind not in kinds:
        raise UnknownKind(f"unknown kind {kind!r}; expected one of {tuple(kinds)}")
    return kinds[kind]


# ---------------------------------------------------------------------------
# forms from their restriction to an affine line


def form_from_line_restriction(p: HomPoly, mu: RationalLike, nu: RationalLike) -> HomPoly:
    """The unique form F on ("U", "V"), of the degree d of ``p``, with
    F(x + mu, x + nu) = p(x, 1).

    Restricting a binary form to the affine line (x + mu, x + nu) is a
    linear isomorphism onto polynomials of degree <= d whenever mu != nu.
    With p_k the coefficient of x^k in p(x, 1), its inverse is the closed form
    F = sum_k p_k (mu*V - nu*U)^k (U - V)^(d-k) / (mu - nu)^d,
    since mu*V - nu*U and U - V restrict to (mu - nu)*x and mu - nu.
    """
    muv, nuv = rat(mu), rat(nu)
    if muv == nuv:
        raise ParameterConstraintViolated("restriction line needs mu != nu")
    line = HomPoly.of(_SECOND_QUOT, (-nuv, muv))
    diff = HomPoly.of(_SECOND_QUOT, (1, -1))
    return p.rename(_SECOND_QUOT).substitute(line, diff) * (1 / (muv - nuv) ** p.degree)


# ---------------------------------------------------------------------------
# rational elliptic surfaces: base change and twist


@dataclass(frozen=True)
class RESData:
    """A rational elliptic surface y^2 z = x^3 + f(s,t) x z^2 + g(s,t) z^3.

    ``f`` and ``g`` are binary forms of degrees four and six on the same
    base coordinates; 4 f^3 + 27 g^2 must not vanish identically.
    """

    f: HomPoly
    g: HomPoly

    def __post_init__(self) -> None:
        check_forms((self.f, self.g), (4, 6), "rational surface data")
        if self.reduced_discriminant().is_zero:
            raise DegenerateModel("discriminant vanishes identically")

    def reduced_discriminant(self) -> HomPoly:
        """4 f^3 + 27 g^2, the discriminant up to the constant -16."""
        return 4 * self.f**3 + 27 * self.g**2

    def model(self) -> WeierstrassModel:
        return WeierstrassModel.short(self.f, self.g)


def base_change_k3(
    r: RESData, d0: RationalLike, d_inf: RationalLike
) -> WeierstrassModel:
    """Pull back a rational elliptic surface along a degree-two base map.

    The double cover of the base line ramifies over [d0 : 1] and
    [1 : d_inf] and fixes [1 : 1]; pulling the coefficients back gives a
    weight-two model on the covering coordinates ("u", "v").  Requires
    (1 - d0)(1 - d_inf)(1 - d0 d_inf) != 0, so the three points stay
    distinct and the map has honest degree two, and the fibers of ``r``
    over all three points must be smooth.
    """
    d0v, div = rat(d0), rat(d_inf)
    if (1 - d0v) * (1 - div) * (1 - d0v * div) == 0:
        raise UnitViolation(
            "base cover degenerates: need d0 != 1, d_inf != 1 and d0*d_inf != 1"
        )
    disc = r.reduced_discriminant()
    for a, b in ((d0v, Fraction(1)), (Fraction(1), div), (Fraction(1), Fraction(1))):
        if disc(a, b) == 0:
            raise SingularBranchFiber(f"the fiber over [{a}:{b}] is singular")
    h_first = HomPoly.of(_SECOND_COVER, (1 - d0v, 0, d0v * (1 - div)))
    h_second = HomPoly.of(_SECOND_COVER, (div * (1 - d0v), 0, 1 - div))
    return WeierstrassModel.short(
        r.f.substitute(h_first, h_second), r.g.substitute(h_first, h_second)
    )


def twist_model(
    r: RESData, d0: RationalLike, d_inf: RationalLike
) -> WeierstrassModel:
    """Quadratic twist of a rational elliptic surface at two base points.

    Twisting at [d0 : 1] and [1 : d_inf] multiplies (f, g) by the square
    and cube of (U - d0 V)(d_inf U - V); the result is a weight-two model
    on the base coordinates of ``r`` whose generic fiber configuration is
    two additive star fibers plus twelve nodal ones.  Requires
    d0 * d_inf != 1 so the two twist points differ.
    """
    d0v, div = rat(d0), rat(d_inf)
    if d0v * div == 1:
        raise UnitViolation("twist points coincide: d0*d_inf must not be one")
    line0 = HomPoly.of(r.f.vars, (1, -d0v))
    line_inf = HomPoly.of(r.f.vars, (div, -1))
    return quadratic_twist(r.model(), line0 * line_inf)


# ---------------------------------------------------------------------------
# the two-torsion normal form and its two-isogeny dual


@dataclass(frozen=True)
class AlternatePair:
    """A fibration in the form y^2 z = x(x^2 - trace x z + norm z^2).

    ``trace`` (degree 2w) and ``norm`` (degree 4w) are the sum and product
    of the x-coordinates of the two nonzero two-torsion points.  ``norm``
    must not vanish identically.  ``model`` is the one builder of a model
    with a zero a6.
    """

    trace: HomPoly
    norm: HomPoly

    def __post_init__(self) -> None:
        w = self.trace.degree // 2
        check_forms((self.trace, self.norm), (2 * w, 4 * w), "a trace and norm pair")
        if self.norm.is_zero:
            raise DegenerateModel("norm form vanishes identically")

    def model(self) -> WeierstrassModel:
        zero = HomPoly.zero(self.trace.vars, 3 * self.trace.degree)
        return WeierstrassModel(-self.trace, self.norm, zero)


def two_isogeny_dual(pair: AlternatePair) -> AlternatePair:
    """Quotient by fiberwise translation by the two-torsion point x = 0.

    Sends (trace, norm) to (-2 trace, trace^2 - 4 norm).  Applying the map
    twice gives (4 trace, 16 norm), the original pair rescaled by the
    isomorphism (x, y) -> (4x, 8y), so the square acts as multiplication
    by four on the data.  The discriminant loci trade multiplicities: the
    places of norm and of trace^2 - 4 norm swap their fiber types.
    """
    return AlternatePair(
        -2 * pair.trace, pair.trace * pair.trace - 4 * pair.norm
    )


# ---------------------------------------------------------------------------
# double covers of the quadric and the exchange of rulings


def ruling_swap(
    trace: HomPoly, left: HomPoly, right: HomPoly
) -> tuple[tuple[HomPoly, ...], HomPoly, HomPoly]:
    """Refiber the quadric double cover along its second ruling.

    The three inputs are degree-four forms on the first ruling describing
    the branch curve left u^4 - trace u^2 v^2 + right v^4, that is the
    curve left U^2 - trace UV + right V^2 = 0.  Reading the bidegree-(4, 2)
    branch form against the second ruling turns the three degree-four
    coefficients into five degree-two forms, returned as ``(coeffs, f, g)``:
    ``coeffs[j]`` is the coefficient of s^j t^(4-j), so that

        left(s,t) U^2 - trace(s,t) UV + right(s,t) V^2
            = sum_j coeffs[j](U, V) s^j t^(4-j),

    and ``f`` and ``g`` (degrees 4 and 6) are the Jacobian coefficient pair
    of that quartic family.
    """
    check_forms((trace, left, right), (4, 4, 4), "the ruling swap")
    coeffs = tuple(
        HomPoly.of(
            _SECOND_QUOT,
            (left.coeffs[4 - j], -trace.coeffs[4 - j], right.coeffs[4 - j]),
        )
        for j in range(5)
    )
    f, g = hermite_pair_forms(*coeffs)
    return coeffs, f, g


def quadric_branch(trace: HomPoly, left: HomPoly, right: HomPoly) -> BiHomPoly:
    """The branch form left u^4 - trace u^2v^2 + right v^4 of the double
    cover of the quadric, on the first covering pair and the second.

    The inputs are quartics on one pair: a trace and the factors of a split
    norm left * right.  Exchanging u and v exchanges ``left`` and ``right``.
    """
    check_forms((trace, left, right), (4, 4, 4), "the quadric double cover")
    coeffs = (form.rename(_FIRST_COVER) for form in (left, -trace, right))
    return _tensor_sum(coeffs, _READ_MONOMIALS[1]["cover"])


def quadric_double_cover(
    trace: HomPoly, left: HomPoly, right: HomPoly
) -> tuple[BiHomPoly, tuple[tuple[HomPoly, ...], HomPoly, HomPoly], WeierstrassModel]:
    """A double cover of the quadric surface and its relative Jacobian, as
    ``(branch, swap, jacobian)``.

    The cover is branched over ``branch = quadric_branch(trace, left,
    right)``, and ``swap`` is ``ruling_swap(trace, left, right)``.  The
    projection to the first ruling is a genus-one fibration without
    section; its relative Jacobian, fibered over the covering coordinates
    of the second ruling, is the weight-two model ``jacobian``,
    x^3 + f(u^2, v^2) x + g(u^2, v^2) where (f, g) come from the ruling swap.
    """
    branch = quadric_branch(trace, left, right)
    swap = ruling_swap(trace, left, right)
    cover = _RULINGS[1]["cover"]
    jacobian = WeierstrassModel.short(cover(swap[1]), cover(swap[2]))
    return branch, swap, jacobian


# ---------------------------------------------------------------------------
# moving the section lines: the two-parameter deformation


def two_param_family(
    trace: HomPoly,
    left: HomPoly,
    right: HomPoly,
    d0: RationalLike,
    d_inf: RationalLike,
) -> tuple[WeierstrassModel, HomPoly]:
    """Deform a quadric double cover by moving its two section lines to
    U = d0 V and d_inf U = V; returns ``(model, reduced_discriminant)``.

    ``trace``, ``left`` and ``right`` are degree-four forms, read on the
    first covering pair ("s", "t").  The fibration over that pair is the
    ``AlternatePair`` model of the deformed trace and norm
    (``DegenerateModel`` if that norm vanishes);
    ``reduced_discriminant`` is its discriminant over 16, which factors as
    (d0 d_inf - 1)^2 L^2 M^2 (trace^2 - 4 left right) with L, M the two
    degree-four factors of the quartic coefficient.  The places of the
    factor trace^2 - 4 left right do not move with (d0, d_inf).
    Requires d0 * d_inf != 1; the inputs are checked, and the deformed
    data built, by :func:`moduli_involution`.
    """
    deformed = moduli_involution(trace, left, right, d0, d_inf)
    new_trace, new_left, new_right = (form.rename(_FIRST_COVER) for form in deformed)
    trace_c, left_c, right_c = (form.rename(_FIRST_COVER) for form in (trace, left, right))
    d0v, div = rat(d0), rat(d_inf)
    model = AlternatePair(new_trace, new_left * new_right).model()
    unit = (d0v * div - 1) ** 2
    reduced = (
        unit
        * new_left**2
        * new_right**2
        * (trace_c * trace_c - 4 * left_c * right_c)
    )
    return model, reduced


def moduli_involution(
    trace: HomPoly,
    left: HomPoly,
    right: HomPoly,
    d0: RationalLike,
    d_inf: RationalLike,
) -> tuple[HomPoly, HomPoly, HomPoly]:
    """Parameter involution induced by renormalizing the deformed cover.

    Maps (trace, left, right) to

        (2 d0 left + 2 d_inf right - (1 + d0 d_inf) trace,
         left + d_inf^2 right - d_inf trace,
         d0^2 left + right - d0 trace).

    At (0, 0) this is (-trace, left, right).  Applying the map twice
    rescales all three forms by (d0 d_inf - 1)^2, and the combination
    trace^2 - 4 left right is preserved up to the same factor squared.
    Requires d0 * d_inf != 1.
    """
    check_forms((trace, left, right), (4, 4, 4), "the involution")
    d0v, div = rat(d0), rat(d_inf)
    if d0v * div == 1:
        raise UnitViolation("involution degenerates: d0*d_inf must not be one")
    new_trace = 2 * d0v * left + 2 * div * right - (1 + d0v * div) * trace
    new_left = left + div * div * right - div * trace
    new_right = d0v * d0v * left + right - d0v * trace
    return new_trace, new_left, new_right


# ---------------------------------------------------------------------------
# reading a form on a ruling of the quadric


def _ruling_readings(quot: tuple[str, str], cover: tuple[str, str]) -> dict:
    """The three readings of a binary form on one ruling, by name.

    ``rat`` renames the form onto the quotient pair ``quot``; ``quot``
    also twists it by the two coordinate points, multiplying a form of
    degree 2k by (xy)^k; ``cover`` pulls it back to the double-cover pair
    ``cover`` along (x, y) -> (x^2, y^2).
    """
    squares = HomPoly.of(cover, (1, 0, 0)), HomPoly.of(cover, (0, 0, 1))
    xy = HomPoly.of(quot, (0, 1, 0))
    twists = {2: xy, 4: xy * xy}
    return {
        "cover": lambda form: form.substitute(*squares),
        "quot": lambda form: twists[form.degree] * form.rename(quot),
        "rat": lambda form: form.rename(quot),
    }


_RULINGS = (
    _ruling_readings(_FIRST_QUOT, _FIRST_COVER),
    _ruling_readings(_SECOND_QUOT, _SECOND_COVER),
)
# The monomials U^2, UV, V^2 of the (2,2) curve under each reading of each
# ruling: the curve sum_j c_j(S,T) m_j(U,V) read on both is a branch form.
_MONOMIALS = tuple(
    HomPoly.of(_SECOND_QUOT, row) for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
)
_READ_MONOMIALS = tuple(
    {kind: [r(m) for m in _MONOMIALS] for kind, r in readings.items()}
    for readings in _RULINGS
)


def _tensor_sum(firsts, seconds) -> BiHomPoly:
    """sum_j firsts[j] (x) seconds[j]."""
    return functools.reduce(operator.add, map(tensor_forms, firsts, seconds))


# ---------------------------------------------------------------------------
# the symmetric correspondence tower


def _correspondence_pairs(
    kind: str, gamma: HomPoly, alpha: HomPoly, delta: HomPoly
) -> tuple[AlternatePair, AlternatePair]:
    """The pair (-r(alpha), r(gamma delta)) on each ruling, r its reading
    ``kind``; the input checks of ``correspondence_surfaces``."""
    FamilyParams.from_triple(gamma, alpha, delta, 0, 0)
    reads = [_known(readings, kind) for readings in _RULINGS]
    prod = gamma * delta
    return tuple(AlternatePair(-read(alpha), read(prod)) for read in reads)


def correspondence_models(
    kind: str, gamma: HomPoly, alpha: HomPoly, delta: HomPoly
) -> tuple[WeierstrassModel, WeierstrassModel]:
    """The models ``correspondence_surfaces`` lists as ``<kind>1`` and
    ``<kind>2``, for the reading ``kind`` ("cover", "quot" or "rat";
    ``UnknownKind`` otherwise): the first ruling's pair and the dual of
    the second's.  Same inputs and errors as the table.
    """
    first, second = _correspondence_pairs(kind, gamma, alpha, delta)
    return first.model(), two_isogeny_dual(second).model()


def correspondence_surfaces(
    gamma: HomPoly, alpha: HomPoly, delta: HomPoly
) -> dict[str, object]:
    """All models attached to a ruling-symmetric correspondence family.

    The inputs are the degree-two coefficient forms of the bidegree-(2,2)
    curve gamma(S,T) U^2 + alpha(S,T) UV + delta(S,T) V^2, in the order
    of ``FamilyParams.triple``.  The curve must be invariant under
    exchanging the pairs (S,T) and (U,V) (``FamilyParams.from_triple``
    raises ``NormalizationViolated`` otherwise), so the same triple
    describes it on either ruling.

    Each reading r of a ruling (``_ruling_readings``) gives the pair
    (-r(alpha), r(gamma delta)) and its two-isogeny dual: ``rat1``,
    ``quot1`` and ``cover1`` are the pair's models, with the dual's under
    the ``_dual`` suffix; on the second ruling the roles are exchanged,
    so ``<kind>1`` and ``<kind>2`` are ``correspondence_models(kind, ...)``.
    ``"cad"`` is the ``rat`` reading of (gamma, alpha, delta) on the
    second ruling.  So only alpha and gamma delta are read under every
    reading; the branch forms of the double covers are
    ``correspondence_branches``.  Raises ``DegenerateModel`` when
    gamma delta or alpha^2 - 4 gamma delta vanishes identically.
    """
    table: dict[str, object] = {"cad": tuple(map(_RULINGS[1]["rat"], (gamma, alpha, delta)))}
    for kind in ("cover", "quot", "rat"):
        first, second = _correspondence_pairs(kind, gamma, alpha, delta)
        table[f"{kind}1"] = first.model()
        table[f"{kind}1_dual"] = two_isogeny_dual(first).model()
        table[f"{kind}2"] = two_isogeny_dual(second).model()
        table[f"{kind}2_dual"] = second.model()
    return table


def correspondence_branches(
    gamma: HomPoly, alpha: HomPoly, delta: HomPoly
) -> dict[str, tuple[BiHomPoly, BiHomPoly]]:
    """The branch forms of the double covers of the quadric attached to
    the correspondence family of ``correspondence_surfaces``, whose input
    triple and normalization check it shares.

    ``branch_<r1>1_<r2>2``, for readings r1 and r2 in {cover, quot} of
    the first and second ruling, holds the branch form of that double
    cover read by two independent routes, sum_j r1(c_j) (x) r2(m_j) and
    sum_j r1(m_j) (x) r2(c_j) with c = (gamma, alpha, delta) and
    m = (x^2, xy, y^2); the two are equal.
    """
    FamilyParams.from_triple(gamma, alpha, delta, 0, 0)

    kinds = ("cover", "quot")
    curve = (gamma, alpha, delta)
    read = [{kind: [readings[kind](c) for c in curve] for kind in kinds} for readings in _RULINGS]
    return {
        f"branch_{first}1_{second}2": (
            _tensor_sum(read[0][first], _READ_MONOMIALS[1][second]),
            _tensor_sum(_READ_MONOMIALS[0][first], read[1][second]),
        )
        for first, second in itertools.product(kinds, repeat=2)
    }


# ---------------------------------------------------------------------------
# the full two-torsion tower

# The three readings of the second ruling: the forms (x, y) put in for
# (U, V) and the line the reading is twisted by.  ``4cover`` puts in
# ((u^2 - v^2)^2, (u^2 + v^2)^2) with line 1, ``cover`` (u^2, v^2) with
# u^2 - v^2, and ``quot`` (U, V) with UV(U - V).
_TORSION_READINGS = {
    name: (tuple(HomPoly.of(vars, row) for row in xy), HomPoly.of(vars, line))
    for name, vars, xy, line in (
        ("4cover", _FOURFOLD, ((1, 0, -2, 0, 1), (1, 0, 2, 0, 1)), (1,)),
        ("cover", _SECOND_COVER, ((1, 0, 0), (0, 0, 1)), (1, 0, -1)),
        ("quot", _SECOND_QUOT, ((1, 0), (0, 1)), (0, 1, -1, 0)),
    )
}
_ONE_FIRST = HomPoly.constant(_FIRST_COVER, 1)
# U and V: column i of U (x) low + V (x) high is low_i U + high_i V
_LINEAR = tuple(HomPoly.of(_SECOND_QUOT, row) for row in ((1, 0), (0, 1)))


def _torsion_points(trace: HomPoly, difference: HomPoly) -> tuple[HomPoly, HomPoly]:
    """(low, high) = ((trace - difference) / 2, -(trace + difference) / 2)
    on the first covering pair, once the inputs pass the checks of
    ``full_torsion_surfaces``: the nonzero two-torsion points sit at
    x = low and x = -high."""
    check_forms((trace, difference), (4, 4), "full-torsion data")
    if difference.is_zero:
        raise DegenerateInput("the two torsion sections coincide")
    if (trace * trace - difference * difference).is_zero:
        raise DegenerateInput("a torsion section hits x = 0 identically")
    trace_c = trace.rename(_FIRST_COVER)
    diff_c = difference.rename(_FIRST_COVER)
    half = Fraction(1, 2)
    return (trace_c - diff_c) * half, -(trace_c + diff_c) * half


def _torsion_lines(low: HomPoly, high: HomPoly) -> tuple[HomPoly, ...]:
    """The linear forms a_i(U, V) = low_i U + high_i V, read off the rows."""
    lines = tensor_forms(_LINEAR[0], low) + tensor_forms(_LINEAR[1], high)
    return tuple(lines.pair2_coefficient(i) for i in range(low.degree + 1))


def full_torsion_pair(trace: HomPoly, difference: HomPoly) -> AlternatePair:
    """The two-torsion pair whose model ``full_torsion_surfaces`` lists as
    ``"alt"``: trace and (trace^2 - difference^2) / 4 on the first covering
    pair.  Same inputs and errors as the table."""
    low, high = _torsion_points(trace, difference)
    return AlternatePair(low - high, -(low * high))


def full_torsion_jacobian(trace: HomPoly, difference: HomPoly) -> tuple[HomPoly, HomPoly]:
    """The Jacobian pair that ``full_torsion_surfaces`` lists as ``"f"`` and
    ``"g"``, of the quartic family of the linear forms ``"a"``.  Same inputs
    and errors as the table."""
    return hermite_pair_forms(*_torsion_lines(*_torsion_points(trace, difference)))


def full_torsion_surfaces(trace: HomPoly, difference: HomPoly) -> dict[str, object]:
    """All models attached to a family with two independent two-torsion sections.

    ``trace`` and ``difference`` are degree-four forms: the x-coordinates
    of the two nonzero two-torsion points are (trace +- difference) / 2.
    Requires difference != 0 and trace^2 != difference^2 as forms
    (``DegenerateInput`` otherwise).

    Keys: the linear forms ``"a"``, a_i(U, V) = low_i U + high_i V with
    low = (trace - difference) / 2 and high = -(trace + difference) / 2,
    so that sum_i a_i s^(4-i) t^i is the refibered branch quartic, and
    their Jacobian pair ``"f"``, ``"g"``; the two-torsion model ``alt``
    and its two-isogeny dual ``alt_dual``; the Jacobian tower
    ``jac_4cover``, ``jac_cover``, ``jac_quot_twisted``, ``res_cover``,
    ``res_quot``; and for each reading ((x, y), line) of the second ruling
    in ``_TORSION_READINGS``, ``branch_<reading>``: the bidegree-(4,4)
    branch form read by two independent routes,
    (sum_i s^(4-i) t^i (x) a_i(x, y)) (1 (x) line) and
    low (x) line x + high (x) line y, which are equal.  The ``4cover``
    route is this (low, high) reading at ((u^2 - v^2)^2, (u^2 + v^2)^2).
    ``alt`` is ``full_torsion_pair(...).model()``, and ``f`` and ``g`` are
    ``full_torsion_jacobian``'s pair, built from the same linear forms.
    """
    low, high = _torsion_points(trace, difference)
    coeffs = _torsion_lines(low, high)
    f, g = hermite_pair_forms(*coeffs)
    alt_pair = full_torsion_pair(trace, difference)
    table: dict[str, object] = {
        "a": coeffs,
        "f": f,
        "g": g,
        "alt": alt_pair.model(),
        "alt_dual": two_isogeny_dual(alt_pair).model(),
    }

    # sum_i s^(4-i) t^i (x) a_i(U, V): row i holds the coefficients of a_i
    den = lcm(*(a.den for a in coeffs))
    rows = [[n * (den // a.den) for n in a.num] for a in coeffs]
    refibered = BiHomPoly.from_num(_FIRST_COVER, _SECOND_QUOT, rows, den)
    for name, ((x, y), line) in _TORSION_READINGS.items():
        table[f"branch_{name}"] = (
            refibered.substitute_pair2(x, y) * tensor_forms(_ONE_FIRST, line),
            tensor_forms(low, line * x) + tensor_forms(high, line * y),
        )

    (x4, y4), _ = _TORSION_READINGS["4cover"]
    (u_sq, v_sq), cover_line = _TORSION_READINGS["cover"]
    _, quot_line = _TORSION_READINGS["quot"]
    f_cover, g_cover = f.substitute(u_sq, v_sq), g.substitute(u_sq, v_sq)
    u_minus_v = HomPoly.of(_SECOND_QUOT, (1, -1))
    table["jac_4cover"] = WeierstrassModel.short(f.substitute(x4, y4), g.substitute(x4, y4))
    table["jac_cover"] = WeierstrassModel.short(cover_line**2 * f_cover, cover_line**3 * g_cover)
    table["jac_quot_twisted"] = WeierstrassModel.short(quot_line**2 * f, quot_line**3 * g)
    table["res_cover"] = WeierstrassModel.short(f_cover, g_cover)
    table["res_quot"] = WeierstrassModel.short(u_minus_v**2 * f, u_minus_v**3 * g)
    return table


# ---------------------------------------------------------------------------
# four bilinear curves on the quadric


@dataclass(frozen=True)
class BilinearQuadruple:
    """Four bidegree-(1,1) curves on the quadric, one coefficient row each.

    Row k holds (r1, r2, r3, r4) for the curve r1 s U + r2 U + r3 s + r4 = 0
    in affine coordinates (s, U) of the two rulings.
    """

    rows: tuple[
        tuple[Fraction, Fraction, Fraction, Fraction],
        tuple[Fraction, Fraction, Fraction, Fraction],
        tuple[Fraction, Fraction, Fraction, Fraction],
        tuple[Fraction, Fraction, Fraction, Fraction],
    ]

    def __post_init__(self) -> None:
        if len(self.rows) != 4 or any(len(row) != 4 for row in self.rows):
            raise DegreeMismatch("need a 4 x 4 coefficient matrix")

    @staticmethod
    def of(rows) -> BilinearQuadruple:
        return BilinearQuadruple(
            tuple(tuple(rat(x) for x in row) for row in rows)
        )

    def pair_form(self, i: int, j: int) -> HomPoly:
        """Eliminant A_i B_j - B_i A_j of curves i and j, where curve k reads
        U A_k(s, t) + B_k(s, t) with A_k = r1 s + r2 t and B_k = r3 s + r4 t:
        a degree-two form on the first ruling whose zeros sit under the
        intersection points of the two curves."""
        (a_i, b_i), (a_j, b_j) = (
            (HomPoly.of(_FIRST_COVER, row[:2]), HomPoly.of(_FIRST_COVER, row[2:]))
            for row in (self.rows[i], self.rows[j])
        )
        return a_i * b_j - b_i * a_j


@dataclass(frozen=True)
class QuadrupleCoverSurface:
    """Double cover of the quadric branched over four bilinear curves.

    ``torsion_factors`` holds the two degree-four forms b = P01 P23 and
    c = P02 P13 (products of pair eliminants) giving the two-torsion model
    x (x - b)(x - c).
    """

    torsion_factors: tuple[HomPoly, HomPoly]
    model: WeierstrassModel


def bilinear_quadruple_surface(quad: BilinearQuadruple) -> QuadrupleCoverSurface:
    """Weierstrass model of the double cover branched over four bilinear curves.

    Genericity requirements, each reported separately: every curve must be
    irreducible (nonvanishing 2x2 determinant), every pair must meet in
    two distinct points (nonzero eliminant with nonzero discriminant), and
    no three curves may share a point (nonzero resultant of eliminants).
    The generic configuration has twelve I2 fibers and full two-torsion:
    the model is y^2 z = x(x - b z)(x - c z), the ``AlternatePair``
    (b + c, b c).
    """
    for k, row in enumerate(quad.rows):
        if row[0] * row[3] - row[1] * row[2] == 0:
            raise GenericityViolated(
                f"curve {k} is reducible: its 2x2 coefficient determinant vanishes"
            )
    pair_forms = {}
    for i, j in itertools.combinations(range(4), 2):
        p = quad.pair_form(i, j)
        if p.is_zero:
            raise GenericityViolated(f"curves {i} and {j} share a component")
        if not is_separable(p):
            raise GenericityViolated(
                f"curves {i} and {j} are tangent: a double intersection point"
            )
        pair_forms[(i, j)] = p
    for i, j, k in itertools.combinations(range(4), 3):
        if form_resultant(pair_forms[(i, j)], pair_forms[(i, k)]) == 0:
            raise GenericityViolated(f"curves {i}, {j} and {k} meet in a point")

    b = pair_forms[(0, 1)] * pair_forms[(2, 3)]
    c = pair_forms[(0, 2)] * pair_forms[(1, 3)]
    return QuadrupleCoverSurface((b, c), AlternatePair(b + c, b * c).model())


# ---------------------------------------------------------------------------
# three concurrent lines and a cubic: the pinned-star family


@dataclass(frozen=True)
class ThreeLinesCubicParams:
    """Parameters of a double plane branched over three concurrent lines
    and a cubic.

    The three lines of the pencil sit over t = -mu, t = -nu and t =
    infinity; (c1, c0) scale the c-part, (d2, d1, d0) the d-part and
    (e2, e1, e0) the e-part of the cubic.  Constraints: mu != nu, c1 != 0
    and c1 + d2 != 0.
    """

    mu: Fraction
    nu: Fraction
    c0: Fraction
    c1: Fraction
    d0: Fraction
    d1: Fraction
    d2: Fraction
    e0: Fraction
    e1: Fraction
    e2: Fraction

    def __post_init__(self) -> None:
        if self.mu == self.nu:
            raise ParameterConstraintViolated("the two marked lines coincide (mu = nu)")
        if self.c1 == 0:
            raise ParameterConstraintViolated("c1 must not vanish")
        if self.c1 + self.d2 == 0:
            raise ParameterConstraintViolated("c1 + d2 must not vanish")

    @staticmethod
    def of(mu, nu, c0, c1, d0, d1, d2, e0, e1, e2) -> ThreeLinesCubicParams:
        return ThreeLinesCubicParams(
            rat(mu), rat(nu), rat(c0), rat(c1), rat(d0),
            rat(d1), rat(d2), rat(e0), rat(e1), rat(e2),
        )


def _check_pinned_star(sq: HomPoly, lin: HomPoly, cst: HomPoly) -> None:
    """Refuse pinned-star data that are not pencil forms of degrees 1, 2, 3."""
    if [(form.vars, form.degree) for form in (sq, lin, cst)] != [(_PENCIL, d) for d in (1, 2, 3)]:
        raise DegreeMismatch("pinned-star data need pencil forms of degrees (1, 2, 3)")


def star_triple_model(
    mu: RationalLike, nu: RationalLike, sq: HomPoly, lin: HomPoly, cst: HomPoly
) -> WeierstrassModel:
    """Weight-two model with additive star fibers pinned at t = -mu, -nu, infinity.

    ``sq``, ``lin`` and ``cst`` are forms of degrees 1, 2 and 3 on the
    pencil coordinates ("t", "h").  With p = (t + mu h)(t + nu h) the model is

        y^2 = x^3 + h p sq x^2 + (h p)^2 lin x + (h p)^3 cst.

    Requires mu != nu.
    """
    muv, nuv = rat(mu), rat(nu)
    if muv == nuv:
        raise ParameterConstraintViolated("the two affine star fibers coincide")
    _check_pinned_star(sq, lin, cst)
    stars = (
        HomPoly.var_power(_PENCIL, 1, 1)
        * HomPoly.of(_PENCIL, (1, muv))
        * HomPoly.of(_PENCIL, (1, nuv))
    )
    return WeierstrassModel(stars * sq, stars**2 * lin, stars**3 * cst)


def shift_cubic_term(
    sq: HomPoly, lin: HomPoly, cst: HomPoly, rho: RationalLike
) -> tuple[HomPoly, HomPoly, HomPoly]:
    """Pinned-star forms after the shift x -> x + rho t (t + mu h)(t + nu h) h.

    It is the Taylor shift of x^3 + sq x^2 + lin x + cst by r = rho t:
    (sq + 3r, lin + (2 sq + 3r) r, cst + ((sq + r) r + lin) r), independent
    of mu and nu.  Choosing rho as a root of the cubic
    z^3 + sq1 z^2 + lin2 z + cst3 in the leading coefficients clears the
    t^3 coefficient of ``cst``.
    """
    _check_pinned_star(sq, lin, cst)
    r = HomPoly.of(_PENCIL, (rho, 0))
    return sq + 3 * r, lin + (2 * sq + 3 * r) * r, cst + ((sq + r) * r + lin) * r


def general_form_coefficients(p: ThreeLinesCubicParams) -> tuple[HomPoly, HomPoly, HomPoly]:
    """Pinned-star forms (sq, lin, cst) of a line-cubic family.

    ``star_triple_model(p.mu, p.nu, *general_form_coefficients(p))`` is
    the Weierstrass model of the double plane with parameters ``p``; the
    t^3 coefficient of ``cst`` is always zero in this image.
    """
    s = p.c1 + p.d2
    return tuple(
        HomPoly.of(_PENCIL, row)
        for row in (
            (-(p.c1 + 2 * p.d2), p.c0 + p.d1 + p.e2),
            (s * p.d2, -s * (p.d1 + 2 * p.e2), s * (p.d0 + p.e1)),
            (0, s * s * p.e2, -s * s * p.e1, s * s * p.e0),
        )
    )


def three_lines_cubic_model(p: ThreeLinesCubicParams) -> WeierstrassModel:
    """Weierstrass model of the double plane with parameters ``p``.

    The generic configuration is three additive star fibers (at t = -mu,
    t = -nu and infinity) plus six nodal fibers; the chain d2 = 0, then
    e2 = 0, then e1 = 0 sharpens the star at infinity one step at a time
    while removing nodal fibers.  The last step needs d1 = 0 as well: with
    d2 = e2 = e1 = 0 but d1 != 0 the star at infinity stays one step lower,
    because the degree count at infinity picks up a c1^4 d1^2 term.
    """
    return star_triple_model(p.mu, p.nu, *general_form_coefficients(p))


def normalize_three_i0star(
    mu: RationalLike, nu: RationalLike, sq: HomPoly, lin: HomPoly, cst: HomPoly
) -> ThreeLinesCubicParams:
    """Recover line-cubic parameters from the pinned-star forms of
    :func:`star_triple_model`.

    The shift of :func:`shift_cubic_term` first clears the t^3 coefficient
    of ``cst``; rho must be a rational root of the monic cubic
    z^3 + sq1 z^2 + lin2 z + cst3 in the leading coefficients
    (``NoRationalCubicRoot`` otherwise).  Roots are tried by increasing
    magnitude (nonnegative first on ties), so already-cleared inputs are
    left untouched, and the first root whose shifted discriminant
    sq1^2 - 4 lin2 is a nonzero rational square is used
    (``NonSquareDiscriminant``, naming the first root's, if none is, and
    ``ParameterConstraintViolated`` if that one is zero, since c1 = 0
    never parametrizes a double plane).  The positive square root becomes
    c1 unless that makes the denominator c1 - sq1 vanish; then the
    negative root is taken.  The remaining parameters follow by exact
    substitution.
    """
    muv, nuv = rat(mu), rat(nu)
    if muv == nuv:
        raise ParameterConstraintViolated("the two affine star fibers coincide")
    _check_pinned_star(sq, lin, cst)
    roots = rational_cubic_roots(sq.coeffs[0], lin.coeffs[0], cst.coeffs[0])
    if not roots:
        raise NoRationalCubicRoot("no rational shift clears the leading cubic entry")
    roots.sort(key=lambda r: (abs(r), 1 if r < 0 else 0))
    first_disc = None
    for rho in roots:
        sqv, linv, cstv = shift_cubic_term(sq, lin, cst, rho)
        disc = sqv.coeffs[0] ** 2 - 4 * linv.coeffs[0]
        first_disc = disc if first_disc is None else first_disc
        root = rational_sqrt(disc)
        if root:
            break
    else:
        if first_disc == 0:
            raise ParameterConstraintViolated(
                "vanishing quadratic discriminant: c1 would be zero"
            )
        raise NonSquareDiscriminant(
            f"shifted quadratic discriminant {first_disc} is not a rational square"
        )
    c1t, c0t = sqv.coeffs
    d2t, d1t, d0t = linv.coeffs
    e3t, e2t, e1t, e0t = cstv.coeffs
    if e3t != 0:
        raise NoRationalCubicRoot(f"the shift by {rho} left the leading cubic entry {e3t}")
    # root is nonzero, so at most one of root and -root equals c1t
    c1 = -root if root == c1t else root
    den = c1 - c1t
    d2 = -(c1 + c1t) / 2
    e2 = 4 * e2t / den**2
    e1 = -4 * e1t / den**2
    e0 = 4 * e0t / den**2
    d0 = 2 * d0t / den + 4 * e1t / den**2
    d1 = -2 * d1t / den - 8 * e2t / den**2
    c0 = 2 * d1t / den + 4 * e2t / den**2 + c0t
    return ThreeLinesCubicParams(muv, nuv, c0, c1, d0, d1, d2, e0, e1, e2)


# ---------------------------------------------------------------------------
# refibering the quadruple cover


@dataclass(frozen=True)
class RefibrationJacobian:
    """Relative Jacobian data of the second fibration of a quadruple cover,
    as :func:`refibration_jacobian` reads it off the cover's two torsion
    factors.

    ``model`` is the pinned-star model obtained by freezing the first
    fibration coordinate on the chart (mu, nu); ``params`` its line-cubic
    normalization; ``f`` and ``g`` the coefficient forms of the branch
    cubic x^3 + f x + g, reconstructed from the model and equal to the
    Jacobian pair of the induced full-torsion family.
    """

    params: ThreeLinesCubicParams
    model: WeierstrassModel
    f: HomPoly
    g: HomPoly


def refibration_jacobian(
    surface: QuadrupleCoverSurface,
    mu: RationalLike = 0,
    nu: RationalLike = 1,
) -> RefibrationJacobian:
    """Relative Jacobian of the genus-one refibration of a quadruple cover.

    ``surface`` is the cover as :func:`bilinear_quadruple_surface` built
    it, so its genericity is already checked; only its two torsion
    factors are read.  Freezing the base coordinate of the surface and
    refibering along the other direction gives a genus-one pencil whose
    relative Jacobian has additive star fibers pinned at t = -mu, -nu and
    infinity; (mu, nu) only fix the affine chart and must differ.  The
    rationality conditions of the normalization (rational cubic root,
    square discriminant) do not depend on the chart.  The reconstructed
    pair (f, g) satisfies, for the two torsion factors b and c of the
    cover, full_torsion_surfaces(b + c, b - c)["f"] == f and likewise for
    g.
    """
    muv, nuv = rat(mu), rat(nu)
    if muv == nuv:
        raise ParameterConstraintViolated("chart parameters must be distinct")
    b, c = surface.torsion_factors
    # the coefficient of x^i in the quartic is the pencil form
    # (b_i - c_i) t + (b_i mu - c_i nu) h, b_i = b.coeffs[4 - i], read here
    # over the common denominator b.den * c.den
    scale = Fraction(1, b.den * c.den)
    a4q, a3q, a2q, a1q, a0q = (
        HomPoly.of(_PENCIL, (bi - ci, bi * muv - ci * nuv)) * scale
        for bi, ci in zip((n * c.den for n in b.num), (n * b.den for n in c.num))
    )
    sq_poly = a2q
    lin_poly = a1q * a3q - 4 * a0q * a4q
    cst_poly = a1q * a1q * a4q + a0q * a3q * a3q - 4 * a0q * a2q * a4q
    model = star_triple_model(muv, nuv, sq_poly, lin_poly, cst_poly)
    params = normalize_three_i0star(muv, nuv, sq_poly, lin_poly, cst_poly)
    third = Fraction(1, 3)
    depressed_lin = lin_poly - sq_poly * sq_poly * third
    depressed_cst = (
        Fraction(2, 27) * sq_poly**3 - third * sq_poly * lin_poly + cst_poly
    )
    f_hat = form_from_line_restriction(depressed_lin, muv, nuv)
    g_hat = form_from_line_restriction(depressed_cst, muv, nuv)
    f_out = f_hat.swap().rename(_SECOND_QUOT)
    g_out = (-g_hat).swap().rename(_SECOND_QUOT)
    return RefibrationJacobian(params, model, f_out, g_out)


# ---------------------------------------------------------------------------
# the shared subfamily tower


# kind -> (the forms put in for the pair of (f, g), or the pair the
# quotient kinds rename onto; the line the model is twisted by, or None).
# Kept apart from ``_TORSION_READINGS``: the torsion-tower check compares
# this tower with the one ``full_torsion_surfaces`` writes out.
_SUBFAMILY_TOWER = {
    "cover4": (
        (HomPoly.of(_FOURFOLD, (1, 0, -1)) ** 2, HomPoly.of(_FOURFOLD, (1, 0, 1)) ** 2),
        None,
    ),
    "cover2": (
        (HomPoly.of(_SECOND_COVER, (1, 0, 0)), HomPoly.of(_SECOND_COVER, (0, 0, 1))),
        HomPoly.of(_SECOND_COVER, (1, 0, -1)),
    ),
    "twist": (_SECOND_QUOT, HomPoly.of(_SECOND_QUOT, (0, 1, -1, 0))),
    "rational": (_SECOND_QUOT, HomPoly.of(_SECOND_QUOT, (1, -1))),
}


def subfamily_models(kind: str, f: HomPoly, g: HomPoly) -> WeierstrassModel:
    """One member of the model tower attached to a short pair (f, g).

    ``f`` and ``g`` are forms of degrees two and three on a shared pair.
    Each kind reads the pair on the second ruling and may twist it by a
    line L, giving the model x^3 + L^2 f' x + L^3 g' of weight
    deg(L^2 f') / 4:

    * ``"cover4"``: on the fourfold-cover coordinates, with f and g
      evaluated at ((u^2 - v^2)^2, (u^2 + v^2)^2), untwisted (weight two);
    * ``"cover2"``: on the double-cover coordinates, evaluated at
      (u^2, v^2) and twisted by u^2 - v^2 (weight two);
    * ``"twist"``: renamed onto the quotient coordinates and twisted by
      UV(U - V) (weight two);
    * ``"rational"``: renamed onto the quotient coordinates and twisted by
      U - V (weight one).

    Raises ``DegenerateModel`` if the resulting discriminant vanishes
    identically, and ``UnknownKind`` for any other kind.
    """
    check_forms((f, g), (2, 3), "the subfamily tower")
    into, line = _known(_SUBFAMILY_TOWER, kind)
    if isinstance(into[0], str):
        a4, a6 = f.rename(into), g.rename(into)
    else:
        a4, a6 = f.substitute(*into), g.substitute(*into)
    if line is not None:
        a4, a6 = line**2 * a4, line**3 * a6
    model = WeierstrassModel.short(a4, a6)
    invariants(model)
    return model
