"""Scenario-driven verification harness and command-line entry point.

``verify`` runs a selection of scenarios, read by :mod:`ellsurf.scenario`,
and renders a report as aligned text or as JSON; the JSON form carries no
timing data and is byte-stable for a fixed seed, so runs can be diffed.

Each family is declared once, next to its code, as a :class:`Family` of
the registry that :mod:`ellsurf.scenario` validates against; one driver in
:func:`run` owns the rng, the trial loop and the first trial's witness.
Randomized families draw their inputs through :func:`_draw`, which
re-samples rejected draws using genericity predicates (squarefreeness and
coprimality of specific discriminant factors), never the expected answer,
so resampling cannot bias a check; after ``DRAW_BUDGET`` attempts it
raises :class:`SamplerExhausted`, reported as an error instead of a hang.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import duality as du
from . import lattice as la
from .elliptic import (
    DegenerateModel,
    FiberConfiguration,
    WeierstrassModel,
    fiber_configuration,
    invariants,
    two_torsion_sections,
)
from .exactpoly import (
    DegreeMismatch,
    HomPoly,
    divexact_form,
    form_partials,
    is_separable,
    tensor_forms,
)
from .hermite_aj import (
    SEPARATION_SQUARE,
    FamilyParams,
    QuarticCurve,
    abel_jacobi,
    correspondence_22,
    correspondence_polys,
    discr_relation_check,
    double_quadric_from_quartic,
    exchange_constraint,
    j_invariant_22,
    j_invariant_quartic,
    jacobian_quartic,
)
from .scenario import (
    _FAMILIES,
    MAX_TRIALS,
    Family,
    ParseError,
    Scenario,
    _family,
    bundled_scenarios,
    load_scenario,
)

DEFAULT_TRIALS = 100

# attempts one draw may make before it gives up; over root seeds 0-19 no
# bundled scenario needs more than 12
DRAW_BUDGET = 100

_FIRST = ("s", "t")
_SECOND = ("U", "V")


class _CheckFailure(Exception):
    """An expectation did not hold; carries extra artifact detail.

    ``instance`` names the instance of a trial that failed, when a trial
    checks more than one.
    """

    def __init__(
        self, message: str, details: dict | None = None, instance: str | None = None
    ):
        super().__init__(message)
        self.details = details or {}
        self.instance = instance

    def in_trial(self, k: int) -> _CheckFailure:
        where = f"trial {k}"
        if self.instance is not None:
            where += f" ({self.instance})"
        return _CheckFailure(f"{where}: {self}", self.details)


class SamplerExhausted(RuntimeError):
    """A sampler made ``DRAW_BUDGET`` attempts and accepted none of them."""


# ---------------------------------------------------------------------------
# samplers: every acceptance gate below is a genericity predicate on
# discriminant factors, never a comparison with the expected answer


def _draw(make: Callable, accept: Callable | None = None):
    """Call ``make()`` until it gives a candidate that ``accept`` takes.

    ``make`` returns None for a candidate it rejects while building it;
    without ``accept`` every built candidate is taken.  Raises
    :class:`SamplerExhausted` after ``DRAW_BUDGET`` attempts.
    """
    for _ in range(DRAW_BUDGET):
        candidate = make()
        if candidate is not None and (accept is None or accept(candidate)):
            return candidate
    raise SamplerExhausted(f"no acceptable draw in {DRAW_BUDGET} attempts")


def _ints(rng: random.Random, n: int, lo: int, hi: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(lo, hi)) for _ in range(n))


def _random_form(rng: random.Random, vars, degree: int, lo=-9, hi=9) -> HomPoly:
    return HomPoly.of(vars, _draw(lambda: _ints(rng, degree + 1, lo, hi), any))


def _random_quartic(rng: random.Random, lo=-9, hi=9) -> QuarticCurve:
    return QuarticCurve.of(*_ints(rng, 5, lo, hi))


def _sample_rational_surface(rng: random.Random, generic=is_separable) -> du.RESData:
    """A rational elliptic surface whose reduced discriminant is ``generic``."""

    def make():
        f = _random_form(rng, _FIRST, 4)
        g = _random_form(rng, _FIRST, 6)
        try:
            return du.RESData(f, g)
        except ValueError:
            return None

    return _draw(make, lambda r: generic(r.reduced_discriminant()))


def _sample_isogeny_forms(rng: random.Random):
    def make():
        trace, left, right = (_random_form(rng, _FIRST, 4, -6, 6) for _ in range(3))
        norm = left * right
        if is_separable(norm * (trace * trace - 4 * norm)):
            return trace, left, right
        return None

    return _draw(make)


def _sample_correspondence_triple(rng: random.Random):
    def make():
        gamma, alpha, delta = FamilyParams.of(*_ints(rng, 6, -6, 6), 0, 0).triple()
        prod = gamma * delta
        both = prod * (alpha * alpha - 4 * prod)
        if is_separable(both) and both(0, 1) != 0 and both(1, 0) != 0:
            return gamma, alpha, delta
        return None

    return _draw(make)


def _sample_full_torsion_forms(rng: random.Random):
    def make():
        trace, difference = (_random_form(rng, _FIRST, 4, -6, 6) for _ in range(2))
        if is_separable((trace * trace - difference * difference) * difference):
            return trace, difference
        return None

    return _draw(make)


def _draw_quadruple(rows: Callable) -> du.QuadrupleCoverSurface:
    """Draw the double cover of a generic quadruple of bilinear curves,
    whose two torsion factors are coprime and squarefree."""

    def make():
        try:
            surface = du.bilinear_quadruple_surface(du.BilinearQuadruple.of(rows()))
        except du.GenericityViolated:
            return None
        b, c = surface.torsion_factors
        return surface if is_separable(b * c * (b - c)) else None

    return _draw(make)


def _interpolated_row(base, x1, x2, lam1, lam2):
    # row of a bilinear curve meeting ``base`` over s = x1 and s = x2
    r1, r2, r3, r4 = base
    a1, b1 = lam1 * (r1 * x1 + r2), lam1 * (r3 * x1 + r4)
    a2, b2 = lam2 * (r1 * x2 + r2), lam2 * (r3 * x2 + r4)
    p1 = (a1 - a2) / (x1 - x2)
    p3 = (b1 - b2) / (x1 - x2)
    return (p1, a1 - p1 * x1, p3, b1 - p3 * x1)


def _refiber_rows(rng: random.Random):
    # pairs (0, 3) and (1, 2) meet over rational s values, so the
    # refibration's rationality gates always pass
    row0, row1 = _ints(rng, 4, -5, 5), _ints(rng, 4, -5, 5)
    xs = [Fraction(x) for x in rng.sample(range(-6, 7), 4)]
    lams = _ints(rng, 4, 1, 4)
    row3 = _interpolated_row(row0, xs[0], xs[1], lams[0], lams[1])
    row2 = _interpolated_row(row1, xs[2], xs[3], lams[2], lams[3])
    return row0, row1, row2, row3


def _sample_three_lines_params(rng: random.Random, **fixed) -> du.ThreeLinesCubicParams:
    names = ("mu", "nu", "c0", "c1", "d0", "d1", "d2", "e0", "e1", "e2")

    def make():
        draw = dict(zip(names, _ints(rng, 10, -5, 5)), **fixed)
        try:
            return du.ThreeLinesCubicParams.of(**draw)
        except du.ParameterConstraintViolated:
            return None

    return _draw(make)


def _at_chain_level(model: WeierstrassModel, mu: Fraction, nu: Fraction, level: int) -> bool:
    """Whether the pinned-star ``model``, with its affine stars at t = -mu
    and t = -nu, has its star at infinity at ``level`` and a finite nodal
    factor that is separable and avoids both pinned star places."""
    try:
        delta = invariants(model)[2]
    except DegenerateModel:
        return False
    vars = delta.vars
    stars = (HomPoly.of(vars, (1, mu)) * HomPoly.of(vars, (1, nu))) ** 6
    finite = divexact_form(delta, stars)
    if finite.second_var_multiplicity() != level:
        return False
    affine = divexact_form(finite, HomPoly.var_power(vars, 1, level))
    if not is_separable(affine):
        return False
    return affine(-mu, 1) != 0 and affine(-nu, 1) != 0


def _sample_chain_model(rng: random.Random, level: int, **fixed) -> WeierstrassModel:
    """The three-lines model of the first parameters drawn at ``level``."""

    def make():
        params = _sample_three_lines_params(rng, **fixed)
        model = du.three_lines_cubic_model(params)
        return model if _at_chain_level(model, params.mu, params.nu, level) else None

    return _draw(make)


# ---------------------------------------------------------------------------
# fiber-configuration families


def _fiber_table(cfg: FiberConfiguration) -> list[dict]:
    return [
        {
            "factor": p.place.text(),
            "v_c4": p.v_c4,
            "v_c6": p.v_c6,
            "v_delta": p.v_delta,
            "type": p.kodaira.label,
            "count": p.degree,
        }
        for p in cfg.places
    ]


def _fmt_multiset(counts: dict[str, int]) -> str:
    return " + ".join(f"{n}*{label}" for label, n in sorted(counts.items()))


def _fibers(sc: Scenario, instances) -> Callable[[], dict]:
    """Check the fibers of each (tag, model); the first one is the witness,
    returned unrendered so that only the trial the driver keeps builds its
    fiber table."""
    fibers, euler = sc.expect.get("fibers"), sc.expect.get("euler")
    witness = None
    for tag, model in instances:
        cfg = fiber_configuration(model)
        got = cfg.summary()
        problem = None
        if fibers is not None and got != fibers:
            problem = f"fiber counts {_fmt_multiset(got)} instead of {_fmt_multiset(fibers)}"
        elif euler is not None and cfg.euler_total != euler:
            problem = f"Euler number {cfg.euler_total} instead of {euler}"
        if problem is not None:
            raise _CheckFailure(problem, {"fiber_table": _fiber_table(cfg)}, tag)
        if witness is None:
            witness = tag, cfg
    tag, cfg = witness
    return lambda: {
        "instance": tag,
        "weight": cfg.weight,
        "euler": cfg.euler_total,
        "places": _fiber_table(cfg),
    }


@_family("rational-base", "fiber-config")
def _rational_base(sc, rng):
    model = _sample_rational_surface(rng).model()
    return _fibers(sc, [("rational elliptic surface", model)])


def _cover(tag: str, build: Callable) -> Callable:
    def check(sc, rng):
        # no choice of (d0, d_inf) helps a discriminant vanishing at (1, 1),
        # so that place rejects the surface itself
        r = _sample_rational_surface(
            rng, lambda disc: is_separable(disc) and disc(1, 1) != 0
        )
        disc = r.reduced_discriminant()

        def generic(pair) -> bool:
            d0, d_inf = pair
            if (1 - d0) * (1 - d_inf) * (1 - d0 * d_inf) == 0:
                return False
            return disc(d0, 1) != 0 and disc(1, d_inf) != 0

        d0, d_inf = _draw(lambda: _ints(rng, 2, -9, 9), generic)
        return _fibers(sc, [(f"{tag} at ({d0}, {d_inf})", build(r, d0, d_inf))])

    return check


_family("base-change", "fiber-config")(_cover("cover", du.base_change_k3))
_family("quadratic-twist", "fiber-config")(_cover("twist", du.twist_model))


@_family("torsion-pair", "fiber-config")
def _torsion_pair(sc, rng):
    trace, left, right = _sample_isogeny_forms(rng)
    return _fibers(sc, [("trace/norm member", du.AlternatePair(trace, left * right).model())])


@_family(
    "alternate-pair",
    "fiber-config",
    randomized=False,
    inputs={"trace": "poly", "norm": "poly"},
    constraint=(
        lambda sc: sc.polys["trace"].degree == 4 and sc.polys["norm"].degree == 8,
        "alternate-pair needs trace of degree 4, norm of degree 8",
    ),
)
def _alternate_pair(sc, rng):
    # the declared pair is checked, and reported, as a single trial
    pair = du.AlternatePair(sc.polys["trace"], sc.polys["norm"])
    instance = [("declared trace/norm member", pair.model())]
    trial = Family("fiber-config", lambda sc, rng: _fibers(sc, instance))
    return _trials(trial, sc, rng, 1)


@_family("quadruple-cover", "fiber-config", extra={"torsion_sections": 3})
def _quadruple_cover(sc, rng):
    surface = _draw_quadruple(lambda: tuple(_ints(rng, 4, -5, 5) for _ in range(4)))
    witness = _fibers(sc, [("quadruple cover", surface.model)])
    sections = two_torsion_sections(surface.model)
    b, c = surface.torsion_factors
    if len(sections) != 3 or not {b, c} <= set(sections):
        raise _CheckFailure("two-torsion does not split into both branch factors")
    return witness


@_family("three-lines", "fiber-config")
def _three_lines(sc, rng):
    return _fibers(sc, [("three-lines cubic", _sample_chain_model(rng, 6))])


_CHAIN_ZEROS = {7: ("d2",), 8: ("d2", "e2"), 9: ("d2", "e2", "e1", "d1")}


@_family(
    "star-chain",
    "fiber-config",
    inputs={"level": "rat"},
    constraint=(
        lambda sc: sc.rats["level"] in _CHAIN_ZEROS,
        "star-chain level must be 7, 8 or 9",
    ),
)
def _star_chain(sc, rng):
    level = int(sc.rats["level"])
    model = _sample_chain_model(rng, level, **dict.fromkeys(_CHAIN_ZEROS[level], 0))
    return _fibers(sc, [(f"sharpened chain, level {level}", model)])


def _correspondence(kind: str) -> Callable:
    def check(sc, rng):
        models = du.correspondence_models(kind, *_sample_correspondence_triple(rng))
        return _fibers(sc, [(f"{kind}{ruling}", model) for ruling, model in enumerate(models, 1)])

    return check


_family("correspondence-cover", "fiber-config")(_correspondence("cover"))
_family("correspondence-quotient", "fiber-config")(_correspondence("quot"))
_family("correspondence-rational", "fiber-config")(_correspondence("rat"))


def _reduced_pair_generic(pair) -> bool:
    f, g = pair
    disc = 4 * f**3 + 27 * g**2
    if not is_separable(disc):
        return False
    return disc(1, 0) != 0 and disc(0, 1) != 0 and disc(1, 1) != 0


def _subfamily(kind: str) -> Callable:
    def check(sc, rng):
        f, g = _draw(
            lambda: (_random_form(rng, _SECOND, 2), _random_form(rng, _SECOND, 3)),
            _reduced_pair_generic,
        )
        return _fibers(sc, [(f"{kind} member", du.subfamily_models(kind, f, g))])

    return check


_family("tower-fourfold-cover", "fiber-config")(_subfamily("cover4"))
_family("tower-double-cover", "fiber-config")(_subfamily("cover2"))
_family("tower-twisted-quotient", "fiber-config")(_subfamily("twist"))
_family("tower-rational-quotient", "fiber-config")(_subfamily("rational"))


@_family("full-torsion-alternate", "fiber-config")
def _full_torsion_alt(sc, rng):
    pair = du.full_torsion_pair(*_sample_full_torsion_forms(rng))
    return _fibers(sc, [("full-torsion member", pair.model())])


@_family("refibered-pencil", "fiber-config")
def _refibered_pencil(sc, rng):
    def make():
        return du.refibration_jacobian(_draw_quadruple(lambda: _refiber_rows(rng)))

    rj = _draw(make, lambda rj: _at_chain_level(rj.model, rj.params.mu, rj.params.nu, 6))
    return _fibers(sc, [("refibered pencil", rj.model)])


# ---------------------------------------------------------------------------
# polynomial-identity families

_ANCHORS = tuple(Fraction(a) for a in (-2, -1, 0, 1, 2, 3))


def _quartic(h: QuarticCurve) -> dict:
    """A random quartic's part of a witness.  The checks below return their
    witness unrendered, as ``_fibers`` does, so only the trial the driver
    keeps, or one that fails, renders it."""
    return {"quartic": _frs(h.coeffs)}


@_family(
    "coupling-product",
    "hermite-identity",
    extra={"anchors": [str(a) for a in _ANCHORS]},
)
def _coupling_product(sc, rng):
    h = _random_quartic(rng)
    pairing, cofactor = correspondence_polys(h)
    if not (pairing.is_symmetric and cofactor.is_symmetric):
        raise _CheckFailure("coupling data lost symmetry", _quartic(h))
    if pairing.diagonal() != h.form:
        raise _CheckFailure("pairing diagonal differs from the quartic", _quartic(h))
    # the cofactor diagonal is one 36th of the Hessian of the quartic form
    (f_uu, f_uv), (_, f_vv) = (form_partials(d) for d in form_partials(h.form))
    if 36 * cofactor.diagonal() != f_uu * f_vv - f_uv * f_uv:
        raise _CheckFailure("cofactor diagonal formula failed", _quartic(h))
    # pairing^2 + cofactor*(x - x0)^2 = P(x)*P(x0) as one bidegree-(4,4)
    # identity.  Both sides have degree four in x0, so a nonzero difference
    # vanishes at no more than four of the six anchors: the identity holds
    # exactly when it holds at every anchor, and the first anchor where the
    # difference does not vanish names a failure.
    lhs = pairing * pairing + cofactor * SEPARATION_SQUARE
    rhs = tensor_forms(h.form, h.form.rename(pairing.vars2))
    if lhs != rhs:
        difference = lhs - rhs
        x0 = next(a for a in _ANCHORS if not difference.specialize_pair2(a, 1).is_zero)
        raise _CheckFailure(f"product identity failed at anchor {x0}", _quartic(h))
    return lambda: _quartic(h)


@_family("discriminant-relation", "hermite-identity")
def _discriminant_relation(sc, rng):
    h = _random_quartic(rng)
    dp, dq, g = discr_relation_check(h)
    if dq != g * g * dp:
        raise _CheckFailure("resolvent discriminant is not g^2 times the quartic one", _quartic(h))
    if dp != jacobian_quartic(h).discriminant:
        raise _CheckFailure("quartic discriminant differs from -4f^3 - 27g^2", _quartic(h))
    return lambda: _quartic(h) | {"disc": str(dp)}


@_family("pointwise-map", "hermite-identity")
def _pointwise_map(sc, rng):
    def two_point_curve():
        x0, w0, px, pw = (
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)
        )
        if w0 == 0 or px == x0:
            return None
        a2, a3, a4 = _ints(rng, 3, -9, 9)
        rhs0 = w0**2 - (a2 * x0**2 + a3 * x0**3 + a4 * x0**4)
        rhs1 = pw**2 - (a2 * px**2 + a3 * px**3 + a4 * px**4)
        a1 = (rhs1 - rhs0) / (px - x0)
        a0 = rhs0 - a1 * x0
        return QuarticCurve.of(a0, a1, a2, a3, a4), (x0, -w0), (px, pw)

    h, base, point = _draw(two_point_curve)
    if not abel_jacobi(h, base, base).is_infinity:
        raise _CheckFailure("the base point did not map to the origin")
    img = abel_jacobi(h, base, point)

    def witness():
        image = "infinity" if img.is_infinity else [str(img.xi), str(img.eta)]
        return _quartic(h) | {"image": image}

    if not img.is_infinity and not jacobian_quartic(h).contains(img.xi, img.eta):
        raise _CheckFailure("image is off the reduced cubic", witness())
    return witness


_ANCHOR_RATS = ("base_x", "base_w", "point_x", "point_w", "image_xi", "image_eta")


@_family(
    "pointwise-map-anchor",
    "hermite-identity",
    randomized=False,
    inputs=dict.fromkeys(_ANCHOR_RATS, "rat") | {"curve": "quartic"},
)
def _pointwise_anchor(sc, rng):
    h = sc.quartics["curve"]
    base = (sc.rats["base_x"], sc.rats["base_w"])
    point = (sc.rats["point_x"], sc.rats["point_w"])
    expected = (sc.rats["image_xi"], sc.rats["image_eta"])
    if not abel_jacobi(h, base, base).is_infinity:
        raise _CheckFailure("the base point did not map to the origin")
    img = abel_jacobi(h, base, point)
    if img.is_infinity or (img.xi, img.eta) != expected:
        got = "infinity" if img.is_infinity else f"({img.xi}, {img.eta})"
        raise _CheckFailure(f"image {got} instead of ({expected[0]}, {expected[1]})")
    if not jacobian_quartic(h).contains(img.xi, img.eta):
        raise _CheckFailure("image is off the reduced cubic")
    return {"image": [str(img.xi), str(img.eta)]}


@_family("fiberwise-j", "hermite-identity")
def _fiberwise_j(sc, rng):
    h = _draw(lambda: _random_quartic(rng, -6, 6), lambda h: is_separable(h.form))
    cubic = jacobian_quartic(h)
    # at the abscissa of a two-torsion point the (2,2) curve is singular
    xi = _draw(
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
        lambda xi: cubic.rhs(xi) != 0,
    )
    j = j_invariant_quartic(h)
    if j != j_invariant_22(correspondence_22(h, xi)):
        raise _CheckFailure("the two j-invariants differ", _quartic(h) | {"xi": str(xi)})
    return lambda: _quartic(h) | {"xi": str(xi), "j": str(j)}


_DOUBLE_COVER_RATS = ("a0", "a1", "a2", "xi", "c0", "c_inf")


@_family(
    "quartic-double-cover",
    "hermite-identity",
    randomized=False,
    inputs=dict.fromkeys(_DOUBLE_COVER_RATS, "rat"),
)
def _quartic_double_cover(sc, rng):
    data = double_quadric_from_quartic(*(sc.rats[name] for name in _DOUBLE_COVER_RATS))
    gamma, alpha, delta = (data.correspondence.pair2_coefficient(j) for j in range(3))
    first = data.quadric.vars1
    s_sq = HomPoly.var_power(first, 0, 1) ** 2
    s_t = HomPoly.var_power(first, 0, 1) * HomPoly.var_power(first, 1, 1)
    t_sq = HomPoly.var_power(first, 1, 1) ** 2
    quadric = (
        tensor_forms(s_sq, gamma)
        + tensor_forms(s_t, alpha)
        + tensor_forms(t_sq, delta)
    )
    if data.quadric != quadric:
        raise _CheckFailure("the quadric is not assembled from the coupling triple")
    line0, line_inf = data.line_factors
    u, v = data.ruling_factors
    if data.branch != tensor_forms(line0 * line_inf, u * v) * data.quadric:
        raise _CheckFailure("branch form does not factor as lines times the quadric")
    if (data.branch.deg1, data.branch.deg2) != (4, 4):
        raise _CheckFailure("branch form is not of bidegree (4, 4)")
    if exchange_constraint(data.params) != 0:
        raise _CheckFailure("the exchange constraint does not vanish")
    return {"branch_bidegree": [4, 4]}


# ---------------------------------------------------------------------------
# round-trip families


@_family("isogeny-square", "construction-roundtrip", extra={"scaling": ["4", "16"]})
def _isogeny_square(sc, rng):
    trace = _random_form(rng, _FIRST, 4)
    norm = _random_form(rng, _FIRST, 8)
    again = du.two_isogeny_dual(du.two_isogeny_dual(du.AlternatePair(trace, norm)))
    if again.trace != 4 * trace or again.norm != 16 * norm:
        raise _CheckFailure("double dual is not multiplication by four")


def _label_places(cfg: FiberConfiguration, label: str) -> set:
    return {p.place for p in cfg.places if p.kodaira.label == label}


@_family("isogeny-place-swap", "construction-roundtrip")
def _isogeny_place_swap(sc, rng):
    trace, left, right = _sample_isogeny_forms(rng)
    pair = du.AlternatePair(trace, left * right)
    dual = du.two_isogeny_dual(pair)
    cfg = fiber_configuration(pair.model())
    cfg_dual = fiber_configuration(dual.model())
    if cfg.euler_total != cfg_dual.euler_total:
        raise _CheckFailure("Euler numbers differ across the isogeny")
    mine = {label: _label_places(cfg, label) for label in ("I1", "I2")}
    theirs = {label: _label_places(cfg_dual, label) for label in ("I1", "I2")}
    if mine["I2"] != theirs["I1"] or mine["I1"] != theirs["I2"]:
        raise _CheckFailure("the isogeny did not swap the two sets of places")
    return {"summary": cfg.summary(), "dual_summary": cfg_dual.summary()}


def _sample_involution_inputs(rng: random.Random):
    """Three quartic forms and a line-parameter pair off d0*d_inf = 1."""
    forms = tuple(_random_form(rng, _FIRST, 4) for _ in range(3))
    d0, d_inf = _draw(lambda: _ints(rng, 2, -9, 9), lambda d: d[0] * d[1] != 1)
    return forms, d0, d_inf


_SCALAR = {"scalar": "(d0*d_inf - 1)^2"}


@_family("involution-square", "construction-roundtrip", extra=_SCALAR)
def _involution_square(sc, rng):
    (trace, left, right), d0, d_inf = _sample_involution_inputs(rng)
    if du.moduli_involution(trace, left, right, 0, 0) != (-trace, left, right):
        raise _CheckFailure("base-point normal form failed")
    once = du.moduli_involution(trace, left, right, d0, d_inf)
    twice = du.moduli_involution(*once, d0, d_inf)
    scale = (d0 * d_inf - 1) ** 2
    if twice != (scale * trace, scale * left, scale * right):
        raise _CheckFailure(
            "involution square is not the fixed scalar (d0*d_inf - 1)^2"
        )
    combo = once[0] * once[0] - 4 * once[1] * once[2]
    if combo != scale * (trace * trace - 4 * left * right):
        raise _CheckFailure("branch combination scaled by the wrong factor")


@_family("normalize-roundtrip", "construction-roundtrip", tally="mirror_branch_trials")
def _normalize_roundtrip(sc, rng):
    params = _sample_three_lines_params(rng)
    sq, lin, cst = du.general_form_coefficients(params)
    back = du.normalize_three_i0star(params.mu, params.nu, sq, lin, cst)
    if params.c1 > 0:
        if back != params:
            raise _CheckFailure("normalization lost the parameters")
        return False
    # documented sign branch: with c1 < 0 the positive square root is
    # taken unless it collides with the shifted quadratic coefficient
    # (exactly at d2 = 0), where the parameters come back verbatim; the
    # model agrees either way
    if params.d2 == 0:
        if back != params:
            raise _CheckFailure("collision branch altered the parameters")
    elif back.c1 != -params.c1:
        raise _CheckFailure("mirror branch chose the wrong sign")
    if du.three_lines_cubic_model(back) != du.three_lines_cubic_model(params):
        raise _CheckFailure("mirror branch changed the model")
    return True


@_family("refibration-match", "construction-roundtrip")
def _refibration_match(sc, rng):
    surface = _draw_quadruple(lambda: _refiber_rows(rng))
    b, c = surface.torsion_factors
    rj = du.refibration_jacobian(surface)
    if (rj.f, rj.g) != du.full_torsion_jacobian(b + c, b - c):
        raise _CheckFailure("refibration pair differs from the torsion-tower pair")
    if (rj.params.mu, rj.params.nu) != (0, 1):
        raise _CheckFailure("default chart is not (0, 1)")
    other = du.refibration_jacobian(surface, 2, 5)
    if (other.f, other.g) != (rj.f, rj.g):
        raise _CheckFailure("the reduced pair depends on the chart")


# ---------------------------------------------------------------------------
# table-consistency families

_BRANCH_PAIRS = (
    "branch_cover1_cover2",
    "branch_cover1_quot2",
    "branch_quot1_cover2",
    "branch_quot1_quot2",
)


@_family(
    "correspondence-routes",
    "table-consistency",
    extra={"branch_pairs": list(_BRANCH_PAIRS)},
)
def _correspondence_routes(sc, rng):
    triple = _sample_correspondence_triple(rng)
    table = du.correspondence_surfaces(*triple)
    branches = du.correspondence_branches(*triple)
    for key in _BRANCH_PAIRS:
        one, other = branches[key]
        if one != other:
            raise _CheckFailure(f"the two readings of {key} differ")
    if table["cad"] != tuple(form.rename(_SECOND) for form in triple):
        raise _CheckFailure("the quotient triple is not the input triple")
    for key in ("cover1", "quot1", "rat1"):
        base, dual = table[key], table[key + "_dual"]
        if dual.a2 != -2 * base.a2 or dual.a4 != base.a2**2 - 4 * base.a4:
            raise _CheckFailure(f"{key} dual relation failed")
    for key in ("cover2", "quot2", "rat2"):
        base, dual = table[key + "_dual"], table[key]
        if dual.a2 != -2 * base.a2 or dual.a4 != base.a2**2 - 4 * base.a4:
            raise _CheckFailure(f"{key} dual relation failed on the mirrored side")


@_family("extraction-identity", "table-consistency")
def _extraction_identity(sc, rng):
    trace, left, right = _sample_isogeny_forms(rng)
    branch, (coeffs, f, g), jacobian = du.quadric_double_cover(trace, left, right)
    first, cover = branch.vars1, branch.vars2
    u_sq, v_sq = HomPoly.of(cover, (1, 0, 0)), HomPoly.of(cover, (0, 0, 1))
    total = None
    for j in range(5):
        power = HomPoly.of(first, tuple(1 if i == 4 - j else 0 for i in range(5)))
        term = tensor_forms(power, coeffs[j].substitute(u_sq, v_sq))
        total = term if total is None else total + term
    if total != branch:
        raise _CheckFailure("the two branch readings differ")
    flipped = du.quadric_branch(trace, right, left)
    u_lin, v_lin = HomPoly.of(cover, (1, 0)), HomPoly.of(cover, (0, 1))
    if branch.substitute_pair2(v_lin, u_lin) != flipped:
        raise _CheckFailure("swapping rulings does not flip the split")
    try:
        res = du.RESData(f, g)
    except ValueError:
        return
    try:
        changed = du.base_change_k3(res, 0, 0)
    except du.SingularBranchFiber:  # the base change needs smooth branch fibers
        return
    if jacobian != changed:
        raise _CheckFailure("jacobian differs from the degree-two base change")


_TOWER_STAGES = (
    ("cover4", "jac_4cover"),
    ("cover2", "jac_cover"),
    ("twist", "jac_quot_twisted"),
    ("rational", "res_quot"),
)


@_family(
    "torsion-tower",
    "table-consistency",
    extra={"stages": [kind for kind, _ in _TOWER_STAGES]},
)
def _torsion_tower(sc, rng):
    trace, difference = _sample_full_torsion_forms(rng)
    table = du.full_torsion_surfaces(trace, difference)
    for kind, key in _TOWER_STAGES:
        if du.subfamily_models(kind, table["f"], table["g"]) != table[key]:
            raise _CheckFailure(f"subfamily {kind!r} differs from tower entry {key!r}")
    for key in ("branch_4cover", "branch_cover", "branch_quot"):
        one, other = table[key]
        if one != other:
            raise _CheckFailure(f"the two readings of {key} differ")
    alt, alt_dual = table["alt"], table["alt_dual"]
    checks = (
        alt.a2 == -1 * trace,
        4 * alt.a4 == trace * trace - difference * difference,
        alt_dual.a2 == 2 * trace,
        alt_dual.a4 == difference * difference,
    )
    if not all(checks):
        raise _CheckFailure("the isogenous pair lost its normal form")


@_family("deformation-discriminant", "table-consistency", extra=_SCALAR)
def _deformation_discriminant(sc, rng):
    (trace, left, right), d0, d_inf = _sample_involution_inputs(rng)
    model, reduced = du.two_param_family(trace, left, right, d0, d_inf)
    if invariants(model)[2] != 16 * reduced:
        raise _CheckFailure("model discriminant is not 16 times the reduced one")
    scale = (d0 * d_inf - 1) ** 2
    fixed = trace * trace - 4 * left * right
    if model.a2**2 - 4 * model.a4 != scale * fixed:
        raise _CheckFailure("branch combination scaled by the wrong factor")
    once = du.moduli_involution(trace, left, right, d0, d_inf)
    if once[0] * once[0] - 4 * once[1] * once[2] != scale * fixed:
        raise _CheckFailure("involution moved the branch combination")


# ---------------------------------------------------------------------------
# lattice identities


def _lattice_profile(lat: la.GramLattice) -> dict:
    profile = {
        "rank": lat.rank,
        "determinant": la.determinant(lat),
        "signature": la.signature(lat),
        "even": lat.is_even,
    }
    inv = la.two_elementary_invariants(lat)
    if inv.is_two_elementary:
        profile["length"] = inv.length
        profile["parity"] = inv.parity
    return profile


# expectation -> (profile entry, its name in a failure message)
_LATTICE_INVARIANTS = {
    "det": ("determinant", "determinant"),
    "signature": ("signature", "signature"),
    "length": ("length", "discriminant-group length"),
    "parity": ("parity", "parity"),
}


def _run_lattice(sc: Scenario) -> dict:
    names = list(sc.lattices)
    profiles = {name: _lattice_profile(sc.lattices[name]) for name in names}
    artifacts: dict = {"lattices": profiles}

    # the invariants in file order, then the pairs
    for key, value in sc.expect.items():
        if key != "even" and key not in _LATTICE_INVARIANTS:
            continue
        for name in names:
            profile = profiles[name]
            if key == "even":
                if profile["even"] != value:
                    kind = "even" if value else "odd"
                    raise _CheckFailure(f"lattice {name} is not {kind}", artifacts)
                continue
            entry, label = _LATTICE_INVARIANTS[key]
            got = profile.get(entry)
            if got != value:
                raise _CheckFailure(
                    f"lattice {name}: {label} {got} instead of {value}", artifacts
                )

    match = sc.expect.get("match")
    if match is not None:
        pairs = {}
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                verdict = la.nikulin_equivalent(sc.lattices[a], sc.lattices[b])
                pairs[f"{a}~{b}"] = verdict
                if verdict != match:
                    word = "equivalent" if match else "inequivalent"
                    artifacts["pairs"] = pairs
                    raise _CheckFailure(
                        f"lattices {a} and {b} should be {word}", artifacts
                    )
        artifacts["pairs"] = pairs
    return artifacts


# ---------------------------------------------------------------------------
# running and reporting


@dataclass
class Report:
    name: str
    kind: str
    family: str | None
    status: str  # pass | fail | error
    trials: int | None
    detail: str | None
    error: dict | None  # {"type", "message", "expected"}
    artifacts: dict
    wall_time: float

    @property
    def ok(self) -> bool:
        return self.status == "pass" or (
            self.status == "error" and bool(self.error and self.error["expected"])
        )


def _scenario_rng(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}/{name}".encode()).hexdigest()
    return random.Random(int(digest[:16], 16))


def _trials(family: Family, sc: Scenario, rng: random.Random, trials: int) -> dict:
    """Run ``trials`` trials of the family's check and collect the artifacts."""
    artifacts = {"trials": trials, **family.extra}
    if family.tally is not None:
        artifacts[family.tally] = 0
    for k in range(trials):
        try:
            result = family.check(sc, rng)
        except _CheckFailure as failure:
            raise failure.in_trial(k) from None
        if family.tally is not None:
            artifacts[family.tally] += bool(result)
        elif result is not None and "first_instance" not in artifacts:
            artifacts["first_instance"] = result() if callable(result) else result
    return artifacts


def run(scenario: Scenario, seed: int, trials_override: int | None = None) -> Report:
    """Run one scenario and return its report."""
    rng = _scenario_rng(seed, scenario.name)
    started = time.perf_counter()
    family = None if scenario.kind == "lattice-identity" else _FAMILIES[scenario.family]
    trials = None
    if family is not None and family.randomized:
        trials = trials_override or scenario.trials or DEFAULT_TRIALS

    expected_error = scenario.expect.get("error")
    status, detail, error, artifacts = "pass", None, None, {}
    try:
        if family is None:
            artifacts = _run_lattice(scenario)
        elif trials is None:
            artifacts = family.check(scenario, rng)
        else:
            artifacts = _trials(family, scenario, rng, trials)
    except _CheckFailure as failure:
        status, detail = "fail", str(failure)
        artifacts = failure.details
    except Exception as exc:  # module errors become per-scenario reports
        status = "error"
        error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "expected": type(exc).__name__ == expected_error,
        }
    else:
        if expected_error is not None:
            status = "fail"
            detail = f"expected error {expected_error} but the run completed"
    wall = time.perf_counter() - started
    return Report(
        name=scenario.name,
        kind=scenario.kind,
        family=scenario.family,
        status=status,
        trials=trials,
        detail=detail,
        error=error,
        artifacts=artifacts or {},
        wall_time=wall,
    )


def run_suite(
    scenarios: list[Scenario], seed: int, trials_override: int | None = None
) -> list[Report]:
    ordered = sorted(scenarios, key=lambda sc: sc.name)
    return [run(sc, seed, trials_override) for sc in ordered]


def _counts(reports: list[Report]) -> dict[str, int]:
    statuses = ("pass", "fail", "error")
    return {s: sum(1 for r in reports if r.status == s) for s in statuses}


def emit_json(reports: list[Report], seed: int) -> str:
    """Byte-stable JSON report: no timing data, sorted keys."""
    payload = {
        "schema_version": 1,
        "seed": seed,
        "counts": _counts(reports),
        "ok": all(r.ok for r in reports),
        "scenarios": [
            {key: value for key, value in vars(r).items() if key != "wall_time"}
            for r in reports
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _render_columns(rows: list[list[str]], indent: str) -> list[str]:
    if not rows:
        return []
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return [
        indent + "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    ]


def emit_text(reports: list[Report], seed: int) -> str:
    lines = [f"ellsurf verify: {len(reports)} scenarios, seed {seed}"]
    rows = []
    for r in reports:
        mark = r.status
        if r.status == "error" and r.error and r.error["expected"]:
            mark = "error*"
        note = ""
        if r.trials is not None:
            note = f"trials {r.trials}"
        rows.append(
            [
                f"[{mark}]",
                r.name,
                r.kind,
                note,
                f"{1000 * r.wall_time:.1f} ms",
            ]
        )
    lines.extend(_render_columns(rows, "  "))
    lines.append("")

    for r in reports:
        extras = []
        if r.detail:
            extras.append(f"detail: {r.detail}")
        if r.error is not None:
            qualifier = "expected" if r.error["expected"] else "unexpected"
            extras.append(
                f"{qualifier} error {r.error['type']}: {r.error['message']}"
            )
        table = (r.artifacts or {}).get("first_instance")
        places = table.get("places") if isinstance(table, dict) else None
        if r.artifacts.get("fiber_table"):
            places = r.artifacts["fiber_table"]
        if extras or places:
            lines.append(f"{r.name}:")
            for extra in extras:
                lines.append(f"  {extra}")
            if places:
                # each row is a _fiber_table entry, its values in order
                header = ["place", "v(c4)", "v(c6)", "v(delta)", "type", "count"]
                body = [["-" if v is None else str(v) for v in p.values()] for p in places]
                lines.extend(_render_columns([header] + body, "  "))
            lines.append("")

    counts = _counts(reports)
    total = sum(r.wall_time for r in reports)
    lines.append(
        f"{counts['pass']} passed, {counts['fail']} failed, {counts['error']} errors"
        f" in {total:.2f} s"
    )
    lines.append("ok" if all(r.ok for r in reports) else "NOT OK")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _collect(args) -> list[Scenario]:
    chosen: list[Scenario] = []
    if args.all or args.filter:
        bundled = bundled_scenarios()
        if args.filter:
            bundled = [
                sc for sc in bundled if fnmatch.fnmatchcase(sc.name, args.filter)
            ]
        chosen.extend(bundled)
    for path in args.scenario or ():
        chosen.append(load_scenario(path))
    names = [sc.name for sc in chosen]
    for name in names:
        if names.count(name) > 1:
            raise ParseError(f"duplicate scenario name {name!r}", 1, 1)
    return chosen


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ellsurf",
        description="scenario-driven verification of the ellsurf toolkit",
    )
    sub = parser.add_subparsers(dest="command")
    verify = sub.add_parser("verify", help="run verification scenarios")
    verify.add_argument("--all", action="store_true", help="run every bundled scenario")
    verify.add_argument(
        "--scenario",
        action="append",
        metavar="PATH",
        help="run a scenario file (repeatable)",
    )
    verify.add_argument(
        "--filter", metavar="GLOB", help="run bundled scenarios matching a glob"
    )
    verify.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    verify.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    verify.add_argument(
        "--trials", type=int, help="override the trial count of randomized scenarios"
    )

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command != "verify":
        parser.print_usage(sys.stderr)
        return 2
    if not (args.all or args.scenario or args.filter):
        print("error: select scenarios with --all, --scenario or --filter", file=sys.stderr)
        return 2
    if args.trials is not None and args.trials < 1:
        print("error: --trials must be positive", file=sys.stderr)
        return 2
    if args.trials is not None and args.trials > MAX_TRIALS:
        print(f"error: --trials above {MAX_TRIALS}", file=sys.stderr)
        return 2

    try:
        scenarios = _collect(args)
    except (ParseError, DegreeMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not scenarios:
        print("error: the selection matched no scenarios", file=sys.stderr)
        return 2

    reports = run_suite(scenarios, args.seed, args.trials)
    if args.format == "json":
        sys.stdout.write(emit_json(reports, args.seed))
    else:
        sys.stdout.write(emit_text(reports, args.seed))
    return 0 if all(r.ok for r in reports) else 1


def _frs(values) -> list[str]:
    return [str(v) for v in values]


if __name__ == "__main__":
    sys.exit(main())
