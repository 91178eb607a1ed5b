"""Weierstrass models of elliptic surfaces fibered over the projective line.

A model of weight ``w`` is

    y^2 = x^3 + a2(s,t) x^2 + a4(s,t) x + a6(s,t)

with binary forms of degrees ``(2w, 4w, 6w)``.  Everything downstream of the
coefficients is exact: the standard invariants ``c4, c6, delta`` are forms,
fibers are classified per place of the base from the valuation triple
``(v(c4), v(c6), v(delta))`` after local minimalization, and two-torsion
sections are the forms of degree 2w that are roots of the right-hand cubic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactpoly import (
    DegreeMismatch,
    HomPoly,
    form_sqrt,
    rational_cubic_roots,
    refine_against,
    squarefree_split,
)


class DegenerateModel(ValueError):
    """The discriminant vanishes identically; there is no elliptic surface."""


class NonMinimal(ValueError):
    """Valuations admit a (4, 6, 12) reduction; classify after minimalizing."""


class InconsistentValuations(ValueError):
    """No Weierstrass model can realize the requested valuation triple."""


# ---------------------------------------------------------------------------
# fiber types
# ---------------------------------------------------------------------------


_EULER_BASE = {"I": 0, "I*": 6, "II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}


@dataclass(frozen=True)
class KodairaType:
    """A Kodaira fiber type; ``n`` is used only by the I and I* series."""

    family: str
    n: int = 0

    def __post_init__(self):
        if self.family not in _EULER_BASE:
            raise ValueError(f"unknown fiber family {self.family!r}")
        if self.family in ("I", "I*"):
            if self.n < 0:
                raise ValueError("fiber index must be nonnegative")
        elif self.n != 0:
            raise ValueError(f"type {self.family} carries no index")

    @property
    def euler(self) -> int:
        return _EULER_BASE[self.family] + self.n

    @property
    def label(self) -> str:
        if self.family == "I":
            return f"I{self.n}"
        if self.family == "I*":
            return f"I{self.n}*"
        return self.family

    @staticmethod
    def parse(text: str) -> KodairaType:
        t = text.strip()
        if t in ("II", "III", "IV", "II*", "III*", "IV*"):
            return KodairaType(t)
        star = t.endswith("*")
        body = t[:-1] if star else t
        if body.startswith("I") and body[1:].isdigit():
            return KodairaType("I*" if star else "I", int(body[1:]))
        raise ValueError(f"unrecognized fiber label {text!r}")

    def __str__(self) -> str:
        return self.label


# ---------------------------------------------------------------------------
# models and invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeierstrassModel:
    """y^2 = x^3 + a2 x^2 + a4 x + a6 with forms of degrees (2w, 4w, 6w)."""

    a2: HomPoly
    a4: HomPoly
    a6: HomPoly
    weight: int

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("weight must be nonnegative")
        if not (self.a2.vars == self.a4.vars == self.a6.vars):
            raise DegreeMismatch("coefficient forms must share a variable pair")
        want = (2 * self.weight, 4 * self.weight, 6 * self.weight)
        got = (self.a2.degree, self.a4.degree, self.a6.degree)
        if want != got:
            raise DegreeMismatch(
                f"weight {self.weight} needs coefficient degrees {want}, got {got}"
            )

    @property
    def vars(self) -> tuple[str, str]:
        return self.a2.vars

    def rhs_at(self, x: HomPoly) -> HomPoly:
        """Evaluate x^3 + a2 x^2 + a4 x + a6 at a form of degree 2w."""
        if x.degree != 2 * self.weight:
            raise DegreeMismatch(
                f"section form must have degree {2 * self.weight}, got {x.degree}"
            )
        return ((x + self.a2) * x + self.a4) * x + self.a6


@dataclass(frozen=True)
class ModelInvariants:
    """The forms c4, c6, delta of a model; j = c4^3 / delta."""

    c4: HomPoly
    c6: HomPoly
    delta: HomPoly


def invariants(model: WeierstrassModel) -> ModelInvariants:
    """c4 = 16(a2^2 - 3 a4), c6 = -32(2 a2^3 - 9 a2 a4 + 27 a6),
    delta = (c4^3 - c6^2)/1728.  Raises DegenerateModel if delta is zero."""
    a2, a4, a6 = model.a2, model.a4, model.a6
    c4 = 16 * (a2 * a2 - 3 * a4)
    c6 = -32 * (2 * a2 * a2 * a2 - 9 * a2 * a4 + 27 * a6)
    delta = (c4 * c4 * c4 - c6 * c6) * Fraction(1, 1728)
    if delta.is_zero:
        raise DegenerateModel("discriminant vanishes identically")
    return ModelInvariants(c4, c6, delta)


def quadratic_twist(model: WeierstrassModel, d: HomPoly) -> WeierstrassModel:
    """Twist by a nonzero form of even degree: (a2, a4, a6) -> (d a2, d^2 a4, d^3 a6).

    The weight grows by deg(d)/2 and j is unchanged.  A non-squarefree d
    leaves non-minimal places behind; fiber classification absorbs them.
    """
    if d.vars != model.vars:
        raise DegreeMismatch("twist form must live on the base variables")
    if d.is_zero:
        raise DegenerateModel("cannot twist by the zero form")
    if d.degree % 2:
        raise DegreeMismatch("twist form must have even degree")
    return WeierstrassModel(
        d * model.a2,
        d * d * model.a4,
        d * d * d * model.a6,
        model.weight + d.degree // 2,
    )


# ---------------------------------------------------------------------------
# classification from valuations
# ---------------------------------------------------------------------------


def _check_realizable(v_c4: int | None, v_c6: int | None, v_delta: int) -> None:
    for v in (v_c4, v_c6):
        if v is not None and v < 0:
            raise ValueError("valuations must be nonnegative")
    if v_delta < 0:
        raise ValueError("valuations must be nonnegative")
    if v_c4 is None and v_c6 is None:
        raise InconsistentValuations(
            "c4 and c6 cannot both vanish identically when delta does not"
        )
    if v_c4 is None:
        if v_delta != 2 * v_c6:
            raise InconsistentValuations(
                f"with c4 = 0, v(delta) must equal 2 v(c6) = {2 * v_c6}, got {v_delta}"
            )
        return
    if v_c6 is None:
        if v_delta != 3 * v_c4:
            raise InconsistentValuations(
                f"with c6 = 0, v(delta) must equal 3 v(c4) = {3 * v_c4}, got {v_delta}"
            )
        return
    lhs, rhs = 3 * v_c4, 2 * v_c6
    if lhs != rhs:
        if v_delta != min(lhs, rhs):
            raise InconsistentValuations(
                f"1728 delta = c4^3 - c6^2 forces v(delta) = {min(lhs, rhs)}, got {v_delta}"
            )
    elif v_delta < lhs:
        raise InconsistentValuations(
            f"1728 delta = c4^3 - c6^2 forces v(delta) >= {lhs}, got {v_delta}"
        )


def _is_reducible(v_c4: int | None, v_c6: int | None, v_delta: int) -> bool:
    return (
        (v_c4 is None or v_c4 >= 4)
        and (v_c6 is None or v_c6 >= 6)
        and v_delta >= 12
    )


def minimalize_at(
    v_c4: int | None, v_c6: int | None, v_delta: int
) -> tuple[tuple[int | None, int | None, int], int]:
    """Subtract (4, 6, 12) while possible; returns the reduced triple and
    the number of reductions applied."""
    reductions = 0
    while _is_reducible(v_c4, v_c6, v_delta):
        v_c4 = None if v_c4 is None else v_c4 - 4
        v_c6 = None if v_c6 is None else v_c6 - 6
        v_delta -= 12
        reductions += 1
    return (v_c4, v_c6, v_delta), reductions


def kodaira_from_valuations(
    v_c4: int | None, v_c6: int | None, v_delta: int
) -> KodairaType:
    """Classify the fiber over a place from the valuations of (c4, c6, delta).

    ``None`` means the form vanishes identically.  The triple must be
    realizable by some model (InconsistentValuations otherwise) and locally
    minimal (NonMinimal otherwise; see ``minimalize_at``).
    """
    _check_realizable(v_c4, v_c6, v_delta)
    if _is_reducible(v_c4, v_c6, v_delta):
        reduced, k = minimalize_at(v_c4, v_c6, v_delta)
        raise NonMinimal(
            f"triple ({v_c4}, {v_c6}, {v_delta}) reduces {k} time(s) to {reduced}"
        )
    big = 10 ** 9
    v4 = big if v_c4 is None else v_c4
    v6 = big if v_c6 is None else v_c6
    if v4 == 0:
        return KodairaType("I", v_delta)
    if v_delta == 0:
        return KodairaType("I", 0)
    if v4 >= 1 and v6 == 1 and v_delta == 2:
        return KodairaType("II")
    if v4 == 1 and v6 >= 2 and v_delta == 3:
        return KodairaType("III")
    if v4 >= 2 and v6 == 2 and v_delta == 4:
        return KodairaType("IV")
    if v4 >= 2 and v6 >= 3 and v_delta == 6:
        return KodairaType("I*", 0)
    if v4 == 2 and v6 == 3 and v_delta >= 7:
        return KodairaType("I*", v_delta - 6)
    if v4 >= 3 and v6 == 4 and v_delta == 8:
        return KodairaType("IV*")
    if v4 == 3 and v6 >= 5 and v_delta == 9:
        return KodairaType("III*")
    if v4 >= 4 and v6 == 5 and v_delta == 10:
        return KodairaType("II*")
    raise InconsistentValuations(
        f"triple ({v_c4}, {v_c6}, {v_delta}) matches no fiber type"
    )


# ---------------------------------------------------------------------------
# fiber configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberPlace:
    """One place of the base where delta vanishes.

    ``place`` is a squarefree factor, monic in the first variable (the
    factor equal to the second variable is the point at infinity).  The
    stored valuations are those of the model as given; ``reductions``
    counts the (4, 6, 12) minimalizations applied before classification.
    """

    place: HomPoly
    kodaira: KodairaType
    v_c4: int | None
    v_c6: int | None
    v_delta: int
    reductions: int

    @property
    def degree(self) -> int:
        return self.place.degree


@dataclass(frozen=True)
class FiberConfiguration:
    """All singular fibers of a model, one entry per squarefree place."""

    weight: int
    places: tuple[FiberPlace, ...]

    @property
    def euler_total(self) -> int:
        """Sum of deg(place) * euler(type); equals 12 * weight for a model
        that is minimal everywhere."""
        return sum(p.degree * p.kodaira.euler for p in self.places)

    def summary(self) -> dict[str, int]:
        """Point counts per fiber label, keyed and ordered by label."""
        acc: dict[str, int] = {}
        for p in self.places:
            label = p.kodaira.label
            acc[label] = acc.get(label, 0) + p.degree
        return dict(sorted(acc.items()))


def fiber_configuration(model: WeierstrassModel) -> FiberConfiguration:
    """Locate and classify every singular fiber of the model.

    The discriminant is split into squarefree pieces, each with its
    valuation in delta; ``refine_against`` splits each piece further by
    its valuation in c4 and then in c6 and returns those valuations, and
    each place is classified after local minimalization.  A piece with
    v(c4) = 0 is not refined against c6: at a place of delta,
    c6^2 = c4^3 - 1728 delta forces v(c6) = 0 there.
    """
    inv = invariants(model)
    places = []
    for f, m in squarefree_split(inv.delta).factors:
        for g, v4 in refine_against(f, inv.c4):
            by_c6 = [(g, 0)] if v4 == 0 else refine_against(g, inv.c6)
            for h, v6 in by_c6:
                reduced, k = minimalize_at(v4, v6, m)
                fiber = kodaira_from_valuations(*reduced)
                places.append(FiberPlace(h, fiber, v4, v6, m, k))
    places.sort(key=lambda p: (p.place.degree, p.place.coeffs))
    return FiberConfiguration(model.weight, tuple(places))


# ---------------------------------------------------------------------------
# two-torsion sections
# ---------------------------------------------------------------------------


def _series_root(rows: list[tuple[Fraction, ...]], x0: Fraction, order: int) -> list[Fraction]:
    """The first ``order`` coefficients of the series root x(s), with x(0) =
    x0 a simple root, of C(x) = x^3 + a2 x^2 + a4 x + a6, whose ascending
    coefficients (each at least ``order`` long) are ``rows``.  As in
    ``form_sqrt``, x_k = -[s^k] C(x_{<k}) / C'(x0).
    """
    a2, a4, a6 = rows
    slope = (3 * x0 + 2 * a2[0]) * x0 + a4[0]
    x, sq = [x0], [x0 * x0]
    for k in range(1, order):
        # [s^k] of x^2 and of C(x) while x_k is still zero
        x.append(Fraction(0))
        sq.append(sum(x[i] * x[k - i] for i in range(1, k)))
        value = a6[k] + sum((x[i] + a2[i]) * sq[k - i] + a4[i] * x[k - i] for i in range(k + 1))
        x[k] = -value / slope
        sq[k] += 2 * x0 * x[k]
    return x


def two_torsion_sections(model: WeierstrassModel) -> tuple[HomPoly, ...]:
    """All sections x(s, t) of degree 2w with x^3 + a2 x^2 + a4 x + a6 = 0.

    These are the x-coordinates of the two-torsion sections of the
    fibration that are rational over the base.  When a6 = 0 the cubic
    splits off x = 0 and the rest is an exact-square test; otherwise the
    first 2w + 1 terms of the series roots over a regular base point are
    candidate sections, verified exactly.
    """
    inv = invariants(model)  # rejects degenerate models
    w = model.weight
    vars = model.vars
    found: list[HomPoly] = []
    if model.a6.is_zero:
        found.append(HomPoly.zero(vars, 2 * w))
        disc = model.a2 * model.a2 - 4 * model.a4
        root = form_sqrt(disc)
        if root is not None:
            # disc is nonzero here, else delta = 16 a4^2 (a2^2 - 4 a4) = 0
            half = Fraction(1, 2)
            found.append((-model.a2 + root) * half)
            found.append((-model.a2 - root) * half)
    else:
        s0 = _regular_base_point(inv.delta)
        t = HomPoly.var_power(vars, 1, 1)
        # the coefficients moved to s0 = 0, ascending in s at t = 1
        rows = [
            a.substitute(HomPoly.of(vars, (1, s0)), t).coeffs[::-1]
            for a in (model.a2, model.a4, model.a6)
        ]
        for x0 in rational_cubic_roots(*(row[0] for row in rows)):
            # a section has degree 2w, so its first 2w + 1 terms are all of it
            series = HomPoly.of(vars, _series_root(rows, x0, 2 * w + 1)[::-1])
            section = series.substitute(HomPoly.of(vars, (1, -s0)), t)
            if model.rhs_at(section).is_zero:
                found.append(section)
    unique = {f.coeffs: f for f in found}
    return tuple(unique[k] for k in sorted(unique))


def _regular_base_point(delta: HomPoly) -> Fraction:
    """A rational s0 with delta(s0, 1) != 0.

    A nonzero form of degree n has at most n affine roots, so one of the
    first n + 1 candidates 0, 1, -1, 2, -2, ... is regular.
    """
    for k in range(delta.degree + 1):
        cand = Fraction((k + 1) // 2 if k % 2 else -(k // 2))
        if delta(cand, 1) != 0:
            return cand
    raise DegenerateModel("the discriminant vanishes identically")
