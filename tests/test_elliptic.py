"""Tests for Weierstrass models, fiber classification, and sections.

The classification table is validated two independent ways: an exhaustive
consistency sweep over valuation triples, and a comparison against the
reduction-type recursion in ``tate_oracle`` on constructed models.
Two-torsion sections are checked against sympy's factorization of the
cubic on planted models, and under base changes and translations of x.
"""

import itertools
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corpus
from corpus import affine, constructed_short_models, shift_x
from ellsurf import duality as du
from ellsurf.elliptic import (
    DegenerateModel,
    FiberConfiguration,
    FiberPlace,
    InconsistentValuations,
    KodairaType,
    NonMinimal,
    WeierstrassModel,
    fiber_configuration,
    invariants,
    kodaira_from_valuations,
    minimalize_at,
    quadratic_twist,
    two_torsion_sections,
)
from ellsurf.exactpoly import (
    DegreeMismatch,
    HomPoly,
    UniPoly,
    homogenize,
    parse_hompoly,
    refine_against,
    squarefree_split,
)
from tate_oracle import t as T_SYM
from tate_oracle import form_multiplicities, tate_fiber_at_origin

V = ("s", "t")


def P(text: str, degree: int | None = None) -> HomPoly:
    return parse_hompoly(text, V, degree)


def uni_to_sympy(p: UniPoly):
    return sum(
        sp.Rational(c.numerator, c.denominator) * T_SYM ** i
        for i, c in enumerate(p.coeffs)
    )


def tval(p: UniPoly) -> int | None:
    if p.is_zero:
        return None
    for i, c in enumerate(p.coeffs):
        if c:
            return i
    raise AssertionError


def classify_short(a4: UniPoly, a6: UniPoly) -> tuple[str, int]:
    """Package-side classification of y^2 = x^3 + a4(t) x + a6(t) at t = 0."""
    c4 = -48 * a4
    c6 = -864 * a6
    delta = (c4 ** 3 - c6 ** 2) * Fraction(1, 1728)
    vd = tval(delta)
    assert vd is not None
    reduced, k = minimalize_at(tval(c4), tval(c6), vd)
    return kodaira_from_valuations(*reduced).label, k


class TestKodairaType:
    def test_labels_round_trip(self):
        labels = ["I0", "I1", "I7", "I13", "I0*", "I1*", "I4*",
                  "II", "III", "IV", "IV*", "III*", "II*"]
        for lab in labels:
            assert KodairaType.parse(lab).label == lab

    def test_euler_numbers(self):
        expected = {
            "I0": 0, "I5": 5, "I0*": 6, "I3*": 9,
            "II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10,
        }
        for lab, e in expected.items():
            fiber = KodairaType.parse(lab)
            assert fiber.euler == e

    def test_invalid(self):
        with pytest.raises(ValueError):
            KodairaType.parse("V")
        with pytest.raises(ValueError):
            KodairaType.parse("I-3")
        with pytest.raises(ValueError):
            KodairaType("II", 1)
        with pytest.raises(ValueError):
            KodairaType("X")
        with pytest.raises(ValueError):
            KodairaType("I", -1)


class TestValuationTable:
    def test_frozen_rows(self):
        rows = [
            ((0, 0, 0), "I0"),
            ((0, 0, 5), "I5"),
            ((3, 0, 0), "I0"),
            ((1, 1, 2), "II"),
            ((None, 1, 2), "II"),
            ((1, 2, 3), "III"),
            ((1, None, 3), "III"),
            ((2, 2, 4), "IV"),
            ((2, 3, 6), "I0*"),
            ((None, 3, 6), "I0*"),
            ((2, None, 6), "I0*"),
            ((2, 3, 7), "I1*"),
            ((2, 3, 11), "I5*"),
            ((3, 4, 8), "IV*"),
            ((None, 4, 8), "IV*"),
            ((3, 5, 9), "III*"),
            ((3, None, 9), "III*"),
            ((4, 5, 10), "II*"),
            ((None, 5, 10), "II*"),
        ]
        for triple, label in rows:
            assert kodaira_from_valuations(*triple).label == label

    def test_exhaustive_consistency(self):
        # realizability written out independently of the implementation
        def realizable(v4, v6, vd):
            if v4 is None and v6 is None:
                return False
            if v4 is None:
                return vd == 2 * v6
            if v6 is None:
                return vd == 3 * v4
            if 3 * v4 != 2 * v6:
                return vd == min(3 * v4, 2 * v6)
            return vd >= 3 * v4

        def reducible(v4, v6, vd):
            return (
                (v4 is None or v4 >= 4)
                and (v6 is None or v6 >= 6)
                and vd >= 12
            )

        checked = 0
        for v4 in list(range(0, 7)) + [None]:
            for v6 in list(range(0, 10)) + [None]:
                for vd in range(0, 15):
                    if not realizable(v4, v6, vd):
                        with pytest.raises(InconsistentValuations):
                            kodaira_from_valuations(v4, v6, vd)
                    elif reducible(v4, v6, vd):
                        with pytest.raises(NonMinimal):
                            kodaira_from_valuations(v4, v6, vd)
                    else:
                        fiber = kodaira_from_valuations(v4, v6, vd)
                        # for minimal models the Euler number is v(delta)
                        assert fiber.euler == vd
                        checked += 1
        assert checked > 50

    def test_minimalize(self):
        assert minimalize_at(0, 0, 3) == ((0, 0, 3), 0)
        assert minimalize_at(6, 9, 18) == ((2, 3, 6), 1)
        assert minimalize_at(8, 12, 24) == ((0, 0, 0), 2)
        assert minimalize_at(None, 12, 24) == ((None, 0, 0), 2)
        assert minimalize_at(4, 5, 10) == ((4, 5, 10), 0)

    def test_negative_valuations_rejected(self):
        with pytest.raises(ValueError):
            kodaira_from_valuations(-1, 0, 0)
        with pytest.raises(ValueError):
            kodaira_from_valuations(0, 0, -2)


class TestOracleAgreement:
    def test_constructed_corpus(self):
        for a4, a6 in constructed_short_models():
            mine = classify_short(a4, a6)
            oracle = tate_fiber_at_origin(0, uni_to_sympy(a4), uni_to_sympy(a6))
            assert mine == oracle, (a4.text(), a6.text(), mine, oracle)

    def test_translated_models_agree(self):
        rng = random.Random(20240819)
        pairs = constructed_short_models()
        for _ in range(25):
            a4, a6 = pairs[rng.randrange(len(pairs))]
            u = UniPoly.of(*(rng.randint(-3, 3) for _ in range(3)))
            b2 = 3 * u
            b4 = a4 + 3 * u * u
            b6 = a6 + a4 * u + u ** 3
            # x -> x + u preserves the invariant forms exactly
            assert 16 * (b2 * b2 - 3 * b4) == -48 * a4
            assert -32 * (2 * b2 ** 3 - 9 * b2 * b4 + 27 * b6) == -864 * a6
            oracle = tate_fiber_at_origin(
                uni_to_sympy(b2), uni_to_sympy(b4), uni_to_sympy(b6)
            )
            assert oracle == classify_short(a4, a6)

    def test_unit_twists_agree(self):
        rng = random.Random(77)
        pairs = constructed_short_models()
        one = UniPoly.of(1)
        for _ in range(25):
            a4, a6 = pairs[rng.randrange(len(pairs))]
            d = one + UniPoly.of(0, rng.choice([-2, -1, 1, 2, 3]))
            b4 = d * d * a4
            b6 = d * d * d * a6
            oracle = tate_fiber_at_origin(0, uni_to_sympy(b4), uni_to_sympy(b6))
            assert oracle == classify_short(a4, a6)


class TestModelBasics:
    def test_degree_validation(self):
        with pytest.raises(DegreeMismatch):
            WeierstrassModel(P("s"), HomPoly.zero(V, 4), HomPoly.zero(V, 6), 1)
        with pytest.raises(DegreeMismatch):
            WeierstrassModel(
                HomPoly.zero(V, 2), HomPoly.zero(V, 4), HomPoly.zero(V, 5), 1
            )
        m = WeierstrassModel(P("s^2"), HomPoly.zero(V, 4), P("t^6"), 1)
        assert m.weight == 1

    def test_rhs_and_shift_guards(self):
        m = WeierstrassModel(P("s^2"), HomPoly.zero(V, 4), P("t^6"), 1)
        with pytest.raises(DegreeMismatch):
            m.rhs_at(P("s"))

    def test_degenerate_model(self):
        zero_model = WeierstrassModel(
            HomPoly.zero(V, 2), HomPoly.zero(V, 4), HomPoly.zero(V, 6), 1
        )
        with pytest.raises(DegenerateModel):
            invariants(zero_model)
        with pytest.raises(DegenerateModel):
            fiber_configuration(zero_model)
        with pytest.raises(DegenerateModel):
            two_torsion_sections(zero_model)

    def test_split_family_discriminant(self):
        # y^2 = x (x^2 + a x + b) has delta = 16 b^2 (a^2 - 4 b)
        a = P("s^2 + t^2")
        b = P("s^4 - 2*s*t^3")
        m = WeierstrassModel(a, b, HomPoly.zero(V, 6), 1)
        assert invariants(m).delta == 16 * b * b * (a * a - 4 * b)

    def test_shift_preserves_invariants(self):
        m = WeierstrassModel(
            P("s^2 + s*t"), P("s^3*t - t^4"), P("s^5*t + 3*t^6"), 1
        )
        shifted = shift_x(m, P("s^2 - 2*t^2"))
        i0, i1 = invariants(m), invariants(shifted)
        assert (i0.c4, i0.c6, i0.delta) == (i1.c4, i1.c6, i1.delta)

    def test_twist_guards_and_j(self):
        m = WeierstrassModel(
            P("s^2 + s*t"), P("s^3*t - t^4"), P("s^5*t + 3*t^6"), 1
        )
        with pytest.raises(DegreeMismatch):
            quadratic_twist(m, P("s"))
        with pytest.raises(DegenerateModel):
            quadratic_twist(m, HomPoly.zero(V, 2))
        with pytest.raises(DegreeMismatch):
            quadratic_twist(m, parse_hompoly("u*v", ("u", "v")))
        tw = quadratic_twist(m, P("s*t"))
        assert tw.weight == 2
        i0, i1 = invariants(m), invariants(tw)
        assert i1.c4 ** 3 * i0.delta == i0.c4 ** 3 * i1.delta


class TestFiberConfiguration:
    def test_generic_weight_one(self):
        m = WeierstrassModel(
            P("s^2 + s*t"), P("s^3*t - t^4"), P("s^5*t + 3*t^6"), 1
        )
        cfg = fiber_configuration(m)
        assert cfg.summary() == {"I1": 12}
        assert cfg.euler_total == 12
        assert sum(p.degree * p.reductions for p in cfg.places) == 0

    def test_additive_at_finite_and_infinite_places(self):
        # delta = -16 s^10 (4 s^2 + 27 t^2): II* over s = 0 plus two nodes
        m = WeierstrassModel(HomPoly.zero(V, 2), P("s^4"), P("s^5*t"), 1)
        cfg = fiber_configuration(m)
        assert cfg.summary() == {"I1": 2, "II*": 1}
        assert cfg.euler_total == 12
        labels = {p.place.text(): p.kodaira.label for p in cfg.places}
        assert labels["s"] == "II*"
        # same model with the variables swapped puts II* at infinity
        m_inf = WeierstrassModel(HomPoly.zero(V, 2), P("t^4"), P("s*t^5"), 1)
        cfg_inf = fiber_configuration(m_inf)
        assert cfg_inf.summary() == {"I1": 2, "II*": 1}
        labels_inf = {p.place.text(): p.kodaira.label for p in cfg_inf.places}
        assert labels_inf["t"] == "II*"

    def test_twist_moves_fibers(self):
        m = WeierstrassModel(
            P("s^2 + s*t"), P("s^3*t - t^4"), P("s^5*t + 3*t^6"), 1
        )
        tw = quadratic_twist(m, P("s*t"))
        cfg = fiber_configuration(tw)
        assert cfg.summary() == {"I0*": 1, "I1": 11, "I1*": 1}
        assert cfg.euler_total == 24
        assert sum(p.degree * p.reductions for p in cfg.places) == 0

    def test_non_squarefree_twist_minimalizes(self):
        m = WeierstrassModel(
            P("s^2 + s*t"), P("s^3*t - t^4"), P("s^5*t + 3*t^6"), 1
        )
        tw = quadratic_twist(m, P("t^2"))
        cfg = fiber_configuration(tw)
        # weight 2 with one wasted reduction at t
        assert sum(p.degree * p.reductions for p in cfg.places) == 1
        assert cfg.euler_total == 12 * 2 - 12
        at_t = [p for p in cfg.places if p.place.text() == "t"]
        assert len(at_t) == 1 and at_t[0].reductions == 1
        # the fiber type at t is whatever the untwisted model had there: I1
        assert at_t[0].kodaira.label == "I1"

    def test_euler_identity_random(self):
        rng = random.Random(4242)

        def random_form(degree: int) -> HomPoly:
            return HomPoly.of(
                V, [rng.randint(-4, 4) for _ in range(degree + 1)]
            )

        done = 0
        while done < 30:
            w = 1 if done % 3 else 2
            m = WeierstrassModel(
                random_form(2 * w), random_form(4 * w), random_form(6 * w), w
            )
            try:
                cfg = fiber_configuration(m)
            except DegenerateModel:
                continue
            reductions = sum(p.degree * p.reductions for p in cfg.places)
            assert cfg.euler_total + 12 * reductions == 12 * w
            done += 1


def _valuation_corpus() -> list[WeierstrassModel]:
    models = []
    for a4, a6 in constructed_short_models():
        w = max(1, -(-a4.degree // 4), -(-a6.degree // 6))
        models.append(
            WeierstrassModel(
                HomPoly.zero(V, 2 * w), homogenize(a4, V, 4 * w), homogenize(a6, V, 6 * w), w
            )
        )
    rng = random.Random(20261018)
    r = corpus.sample_rational_surface(rng)
    cover = corpus.sample_cover_parameters(rng, r)
    pair = corpus.sample_isogeny_pair(rng)
    models += [
        r.model(),
        du.base_change_k3(r, *cover),
        du.twist_model(r, *cover),
        pair.model(),
        du.two_isogeny_dual(pair).model(),
        du.bilinear_quadruple_surface(corpus.sample_generic_quadruple(rng)).model,
        du.three_lines_cubic_model(corpus.sample_three_lines_params(rng)),
        # c4 = 0, with II* over s = 0 and II at infinity
        WeierstrassModel(HomPoly.zero(V, 2), HomPoly.zero(V, 4), P("s^5*t"), 1),
        # c6 = 0, with III* over s = 0 and III at infinity
        WeierstrassModel(HomPoly.zero(V, 2), P("s^3*t"), HomPoly.zero(V, 6), 1),
    ]
    return models


class TestValuationsAgainstSympy:
    def test_every_place_carries_its_sympy_multiplicities(self):
        for model in _valuation_corpus():
            inv = invariants(model)
            in_c4 = form_multiplicities(inv.c4.coeffs)
            in_c6 = form_multiplicities(inv.c6.coeffs)
            in_delta = form_multiplicities(inv.delta.coeffs)
            covered = set()
            for place in fiber_configuration(model).places:
                factors = form_multiplicities(place.place.coeffs)
                assert factors and all(m == 1 for m in factors.values())
                for factor in factors:
                    assert place.v_c4 == (None if in_c4 is None else in_c4.get(factor, 0))
                    assert place.v_c6 == (None if in_c6 is None else in_c6.get(factor, 0))
                    assert place.v_delta == in_delta[factor]
                covered |= set(factors)
            assert covered == set(in_delta)


def _refined_twice(model: WeierstrassModel) -> FiberConfiguration:
    """``fiber_configuration`` as it was before pieces prime to c4 skipped
    the c6 pass: every piece is refined against c4 and then against c6."""
    inv = invariants(model)
    places = []
    for f, m in squarefree_split(inv.delta).factors:
        for g, v4 in refine_against(f, inv.c4):
            for h, v6 in refine_against(g, inv.c6):
                reduced, k = minimalize_at(v4, v6, m)
                places.append(FiberPlace(h, kodaira_from_valuations(*reduced), v4, v6, m, k))
    places.sort(key=lambda p: (p.place.degree, p.place.coeffs))
    return FiberConfiguration(model.weight, tuple(places))


class TestC6PassSkip:
    def test_places_prime_to_c4_match_the_double_refinement(self):
        models = _valuation_corpus()
        skipped = 0
        for model in models:
            config = fiber_configuration(model)
            assert config == _refined_twice(model)
            skipped += sum(p.v_c4 == 0 for p in config.places)
        assert skipped > 0
        invs = [invariants(m) for m in models]
        assert any(inv.c4.is_zero for inv in invs)
        assert any(inv.c6.is_zero for inv in invs)


class TestTwoTorsionSections:
    def test_regular_base_point_is_among_the_first_deg_plus_one_candidates(self):
        from ellsurf.elliptic import _regular_base_point

        delta = HomPoly.constant(V, 1)
        for root, next_free in ((0, 1), (1, -1), (-1, 2), (2, -2), (-2, 3)):
            delta = delta * HomPoly.of(V, (1, -root)) * 7
            assert _regular_base_point(delta) == next_free
        # a root at infinity is not a candidate and costs none of them
        at_infinity = delta * HomPoly.var_power(V, 1, 3)
        assert _regular_base_point(at_infinity) == 3
        assert _regular_base_point(P("s^2*t")) == 1
        with pytest.raises(DegenerateModel):
            _regular_base_point(HomPoly.zero(V, 4))

    def test_split_family(self):
        m = WeierstrassModel(P("5*s^2"), P("4*s^4"), HomPoly.zero(V, 6), 1)
        secs = two_torsion_sections(m)
        assert [s.text() for s in secs] == ["-4*s^2", "-s^2", "0"]
        for s in secs:
            assert m.rhs_at(s).is_zero

    def test_shifted_split_family(self):
        m = WeierstrassModel(P("5*s^2"), P("4*s^4"), HomPoly.zero(V, 6), 1)
        shifted = shift_x(m, P("s^2 - t^2"))
        assert not shifted.a6.is_zero
        secs = two_torsion_sections(shifted)
        assert len(secs) == 3
        expected = {(x - P("s^2 - t^2")).coeffs for x in two_torsion_sections(m)}
        assert {s.coeffs for s in secs} == expected

    def test_section_count_is_zero_one_or_three(self):
        rng = random.Random(99)
        counts = set()
        done = 0
        while done < 20:
            a2 = HomPoly.of(V, [rng.randint(-3, 3) for _ in range(3)])
            a4 = HomPoly.of(V, [rng.randint(-3, 3) for _ in range(5)])
            a6 = HomPoly.of(V, [rng.randint(-3, 3) for _ in range(7)])
            m = WeierstrassModel(a2, a4, a6, 1)
            try:
                secs = two_torsion_sections(m)
            except DegenerateModel:
                continue
            assert len(secs) in (0, 1, 3)
            counts.add(len(secs))
            for s in secs:
                assert m.rhs_at(s).is_zero
            done += 1
        assert 0 in counts

    def test_no_section_cube(self):
        m = WeierstrassModel(
            HomPoly.zero(V, 2), HomPoly.zero(V, 4), P("s^5*t + t^6"), 1
        )
        assert two_torsion_sections(m) == ()

    def test_one_section(self):
        # x^3 + a4 x = x (x^2 + a4) with a4 not a negated square
        m = WeierstrassModel(HomPoly.zero(V, 2), P("s^4 + t^4"), HomPoly.zero(V, 6), 1)
        secs = two_torsion_sections(m)
        assert [s.text() for s in secs] == ["0"]

    def test_twist_scales_sections(self):
        m = WeierstrassModel(P("5*s^2"), P("4*s^4"), HomPoly.zero(V, 6), 1)
        d = P("s^2 + t^2")
        tw = quadratic_twist(m, d)
        expected = {(d * s).coeffs for s in two_torsion_sections(m)}
        assert {s.coeffs for s in two_torsion_sections(tw)} == expected

    def test_weight_two_generic(self):
        m = WeierstrassModel(P("5*s^2"), P("4*s^4"), HomPoly.zero(V, 6), 1)
        tw = quadratic_twist(m, P("s*t + t^2"))
        shifted = shift_x(tw, P("s^2*t^2"))
        secs = two_torsion_sections(shifted)
        assert len(secs) == 3
        for s in secs:
            assert shifted.rhs_at(s).is_zero


# ---------------------------------------------------------------------------
# two-torsion sections against sympy's factorization, and under moves


_SMALL = st.integers(-3, 3)
# every integer matrix with entries in [-2, 2] and determinant +-1
_GL2Z = [
    m for m in itertools.product(range(-2, 3), repeat=4) if abs(m[0] * m[3] - m[1] * m[2]) == 1
]


@st.composite
def planted_models(draw, weight: int, planted: int, a6_zero: bool):
    """Models of the given weight whose cubic has ``planted`` roots: the
    product of x - r and a drawn quadratic (1), of three x - r_i (3), or a
    drawn cubic (0).  With ``a6_zero`` the planted r is 0, else a6 is
    nonzero.  Degenerate draws are left to the tests."""

    def form(degree: int) -> HomPoly:
        return HomPoly.of(V, draw(st.lists(_SMALL, min_size=degree + 1, max_size=degree + 1)))

    w = weight
    if planted == 0:
        model = WeierstrassModel(form(2 * w), form(4 * w), form(6 * w), w)
    else:
        r = HomPoly.zero(V, 2 * w) if a6_zero else form(2 * w)
        if planted == 1:
            b, c = form(2 * w), form(4 * w)
        else:
            r2, r3 = form(2 * w), form(2 * w)
            b, c = -(r2 + r3), r2 * r3
        # (x - r)(x^2 + b x + c)
        model = WeierstrassModel(b - r, c - r * b, -(r * c), w)
    assume(model.a6.is_zero == a6_zero)
    return model


# (weight, planted roots, a6 = 0): a cubic with a6 = 0 has the root x = 0
_PLANTINGS = [
    (w, planted, a6_zero)
    for w in (1, 2, 3)
    for planted in (0, 1, 3)
    for a6_zero in ((False,) if planted == 0 else (False, True))
]
_PLANTING_IDS = [
    f"w{w}-{planted}-roots{'-a6=0' if zero else ''}" for w, planted, zero in _PLANTINGS
]


def _sympy_sections(model: WeierstrassModel) -> set[tuple[Fraction, ...]]:
    """The sections as the factors of x-degree one of the cubic in Q[u, x],
    u the base coordinate at the second variable 1, each homogenized to
    degree 2w."""
    x, u = sp.symbols("x"), T_SYM
    w = model.weight
    a2, a4, a6 = (uni_to_sympy(affine(a)) for a in (model.a2, model.a4, model.a6))
    found = set()
    for factor, _mult in sp.factor_list(sp.expand(x**3 + a2 * x**2 + a4 * x + a6), x, u)[1]:
        poly = sp.Poly(factor, x)
        if poly.degree() == 1:
            root = sp.Poly(-poly.coeff_monomial(1) / poly.coeff_monomial(x), u)
            ascending = [Fraction(int(c.p), int(c.q)) for c in reversed(root.all_coeffs())]
            ascending += [Fraction(0)] * (2 * w + 1 - len(ascending))
            found.add(tuple(ascending[::-1]))
    return found


def _sections_or_skip(model: WeierstrassModel) -> tuple[HomPoly, ...]:
    try:
        return two_torsion_sections(model)
    except DegenerateModel:
        assume(False)


@pytest.mark.parametrize("planting", _PLANTINGS, ids=_PLANTING_IDS)
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_two_torsion_sections_are_sympys_linear_factors(planting, data):
    model = data.draw(planted_models(*planting))
    secs = _sections_or_skip(model)
    assert {sec.coeffs for sec in secs} == _sympy_sections(model)
    assert len(secs) in (0, 1, 3)


@pytest.mark.parametrize("planting", _PLANTINGS, ids=_PLANTING_IDS)
@given(data=st.data(), matrix=st.sampled_from(_GL2Z))
@settings(max_examples=4, deadline=None)
def test_base_changes_and_translations_keep_the_section_count(planting, data, matrix):
    model = data.draw(planted_models(*planting))
    count = len(_sections_or_skip(model))
    a, b, c, d = matrix
    s_to, t_to = HomPoly.of(V, (a, b)), HomPoly.of(V, (c, d))
    moved = [f.substitute(s_to, t_to) for f in (model.a2, model.a4, model.a6)]
    assert len(two_torsion_sections(WeierstrassModel(*moved, model.weight))) == count
    w2 = 2 * model.weight
    u = HomPoly.of(V, data.draw(st.lists(_SMALL, min_size=w2 + 1, max_size=w2 + 1)))
    assert len(two_torsion_sections(shift_x(model, u))) == count
