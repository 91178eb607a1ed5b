"""Tests for Weierstrass models, fiber classification, and sections.

The classification table is validated two independent ways: an exhaustive
consistency sweep over valuation triples, and a comparison against the
reduction-type recursion in ``tate_oracle`` on constructed models.
Two-torsion sections are checked against sympy's factorization of the
cubic on planted models, and under base changes and translations of x.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corpus
from corpus import affine, constructed_short_models, shift_x
from ellsurf import duality as du
from ellsurf import elliptic, exactpoly
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
    refine_against,
    squarefree_split,
)
from ellsurf.scenario import parse_hompoly, parse_kodaira_type
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
    def test_euler_numbers(self):
        expected = {
            "I0": 0, "I5": 5, "I0*": 6, "I3*": 9,
            "II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10,
        }
        for lab, e in expected.items():
            fiber = parse_kodaira_type(lab)
            assert fiber.euler == e

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_kodaira_type("V")
        with pytest.raises(ValueError):
            parse_kodaira_type("I-3")
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

    def test_minimalize_matches_the_subtraction_loop(self):
        def looped(v4, v6, vd):
            # the reduction as one (4, 6, 12) subtraction per pass
            k = 0
            while (v4 is None or v4 >= 4) and (v6 is None or v6 >= 6) and vd >= 12:
                v4 = None if v4 is None else v4 - 4
                v6 = None if v6 is None else v6 - 6
                vd -= 12
                k += 1
            return (v4, v6, vd), k

        values = [None, *range(-3, 40)]
        for v4, v6 in itertools.product(values, values):
            for vd in range(-3, 80):
                assert minimalize_at(v4, v6, vd) == looped(v4, v6, vd)

    def test_minimalize_takes_no_pass_per_reduction(self):
        n = 10**12
        start = time.perf_counter()
        assert minimalize_at(4 * n, 6 * n + 5, 12 * n + 7) == ((0, 5, 7), n)
        assert minimalize_at(None, 6 * n, 12 * n) == ((None, 0, 0), n)
        with pytest.raises(NonMinimal, match=f"reduces {n} time"):
            kodaira_from_valuations(4 * n, 6 * n, 12 * n)
        assert time.perf_counter() - start < 1

    def test_negative_valuations_rejected(self):
        with pytest.raises(ValueError):
            kodaira_from_valuations(-1, 0, 0)
        with pytest.raises(ValueError):
            kodaira_from_valuations(0, 0, -2)

    def test_negative_valuations_are_inconsistent(self):
        with pytest.raises(InconsistentValuations, match="valuations must be nonnegative"):
            kodaira_from_valuations(-1, 0, 1)
        with pytest.raises(InconsistentValuations, match="valuations must be nonnegative"):
            kodaira_from_valuations(0, 0, -1)


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
            WeierstrassModel(P("s"), HomPoly.zero(V, 4), HomPoly.zero(V, 6))
        with pytest.raises(DegreeMismatch):
            WeierstrassModel(
                HomPoly.zero(V, 2), HomPoly.zero(V, 4), HomPoly.zero(V, 5)
            )
        m = WeierstrassModel(P("s^2"), HomPoly.zero(V, 4), P("t^6"))
        assert m.weight == 1

    @given(weight=st.integers(0, 3), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_model_reads_its_weight_off_a2(self, weight, data):
        def form(degree: int) -> HomPoly:
            entries = st.lists(st.integers(-3, 3), min_size=degree + 1, max_size=degree + 1)
            return HomPoly.of(V, data.draw(entries))

        a2, a4, a6 = form(2 * weight), form(4 * weight), form(6 * weight)
        model = WeierstrassModel(a2, a4, a6)
        assert model.weight == a2.degree // 2 == weight
        assert WeierstrassModel.short(a4, a6).weight == weight
        half = data.draw(st.integers(0, 1))
        twist = form(2 * half)
        assume(not twist.is_zero)
        assert quadratic_twist(model, twist).weight == weight + half
        with pytest.raises(DegreeMismatch):
            WeierstrassModel(form(2 * weight + 1), a4, a6)

    def test_short_models_take_their_weight_from_a4(self):
        a4, a6 = P("s^3*t - t^4"), P("s^5*t + 3*t^6")
        assert WeierstrassModel.short(a4, a6) == WeierstrassModel(HomPoly.zero(V, 2), a4, a6)
        a4, a6 = a4 * P("s^4 + t^4"), a6 * P("s^6 - t^6")
        assert WeierstrassModel.short(a4, a6) == WeierstrassModel(HomPoly.zero(V, 4), a4, a6)
        # degree 6 reads as weight 1, which needs a4 of degree 4
        with pytest.raises(DegreeMismatch):
            WeierstrassModel.short(P("s^6"), P("t^6"))
        with pytest.raises(DegreeMismatch):
            WeierstrassModel.short(P("s^4"), P("t^5"))
        with pytest.raises(DegreeMismatch):
            WeierstrassModel.short(P("s^4"), parse_hompoly("u^6", ("u", "v")))

    def test_rhs_and_shift_guards(self):
        m = WeierstrassModel(P("s^2"), HomPoly.zero(V, 4), P("t^6"))
        with pytest.raises(DegreeMismatch):
            m.rhs_at(P("s"))

    def test_degenerate_model(self):
        zero_model = WeierstrassModel(
            HomPoly.zero(V, 2), HomPoly.zero(V, 4), HomPoly.zero(V, 6)
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
        m = WeierstrassModel(a, b, HomPoly.zero(V, 6))
        assert invariants(m)[2] == 16 * b * b * (a * a - 4 * b)

    def test_shift_preserves_invariants(self):
        m = WeierstrassModel(
            P("s^2 + s*t"), P("s^3*t - t^4"), P("s^5*t + 3*t^6")
        )
        shifted = shift_x(m, P("s^2 - 2*t^2"))
        i0, i1 = invariants(m), invariants(shifted)
        assert i0 == i1

    def test_twist_guards_and_j(self):
        m = WeierstrassModel(
            P("s^2 + s*t"), P("s^3*t - t^4"), P("s^5*t + 3*t^6")
        )
        with pytest.raises(DegreeMismatch):
            quadratic_twist(m, P("s"))
        with pytest.raises(DegenerateModel):
            quadratic_twist(m, HomPoly.zero(V, 2))
        with pytest.raises(DegreeMismatch):
            quadratic_twist(m, parse_hompoly("u*v", ("u", "v")))
        tw = quadratic_twist(m, P("s*t"))
        assert tw.weight == 2
        (c4_0, _, delta_0), (c4_1, _, delta_1) = invariants(m), invariants(tw)
        assert c4_1 ** 3 * delta_0 == c4_0 ** 3 * delta_1


def _textbook_invariants(model: WeierstrassModel) -> tuple[HomPoly, HomPoly, HomPoly]:
    """c4, c6 and delta by ``HomPoly`` arithmetic, term by term."""
    a2, a4, a6 = model.a2, model.a4, model.a6
    c4 = 16 * (a2 * a2 - 3 * a4)
    c6 = -32 * (2 * a2 * a2 * a2 - 9 * a2 * a4 + 27 * a6)
    return c4, c6, (c4 * c4 * c4 - c6 * c6) * Fraction(1, 1728)


@st.composite
def _fractional_models(draw) -> WeierstrassModel:
    """Models of weight 0-3 with a nonzero a2, a zero a4 or a6 now and
    then, and a denominator above 1 in some coefficient."""
    weight = draw(st.integers(0, 3))
    entry = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))

    def form(degree: int, may_vanish: bool) -> HomPoly:
        if may_vanish and draw(st.booleans()) and draw(st.booleans()):
            return HomPoly.zero(V, degree)
        return HomPoly.of(V, draw(st.lists(entry, min_size=degree + 1, max_size=degree + 1)))

    a2 = form(2 * weight, False)
    model = WeierstrassModel(a2, form(4 * weight, True), form(6 * weight, True))
    assume(not a2.is_zero and max(a.den for a in (model.a2, model.a4, model.a6)) > 1)
    return model


class TestInvariantRows:
    @given(model=_fractional_models())
    @settings(max_examples=150, deadline=None)
    def test_the_row_formulas_are_the_textbook_ones(self, model):
        c4, c6, delta = _textbook_invariants(model)
        if delta.is_zero:
            for _ in range(2):
                with pytest.raises(DegenerateModel):
                    invariants(model)
            return
        assert invariants(model) == (c4, c6, delta)

    def test_a_degenerate_model_raises_on_every_call(self):
        for a2 in (HomPoly.zero(V, 2), P("s^2 - 3*s*t")):
            model = WeierstrassModel(a2, HomPoly.zero(V, 4), HomPoly.zero(V, 6))
            for _ in range(2):
                with pytest.raises(DegenerateModel):
                    invariants(model)

    def test_the_cache_cannot_be_seen_from_outside(self):
        def build() -> WeierstrassModel:
            return WeierstrassModel(P("s^2 + s*t"), P("s^3*t - t^4"), P("s^5*t + 3*t^6"))

        first, second = build(), build()
        text = repr(first)
        assert first == second and hash(first) == hash(second) and repr(second) == text
        assert invariants(first) is invariants(first)
        assert first == second and hash(first) == hash(second)
        assert repr(first) == repr(second) == text
        assert invariants(second) == invariants(first)


class TestFiberConfiguration:
    def test_generic_weight_one(self):
        m = WeierstrassModel(
            P("s^2 + s*t"), P("s^3*t - t^4"), P("s^5*t + 3*t^6")
        )
        cfg = fiber_configuration(m)
        assert cfg.summary() == {"I1": 12}
        assert cfg.euler_total == 12
        assert sum(p.degree * p.reductions for p in cfg.places) == 0

    def test_additive_at_finite_and_infinite_places(self):
        # delta = -16 s^10 (4 s^2 + 27 t^2): II* over s = 0 plus two nodes
        m = WeierstrassModel(HomPoly.zero(V, 2), P("s^4"), P("s^5*t"))
        cfg = fiber_configuration(m)
        assert cfg.summary() == {"I1": 2, "II*": 1}
        assert cfg.euler_total == 12
        labels = {p.place.text(): p.kodaira.label for p in cfg.places}
        assert labels["s"] == "II*"
        # same model with the variables swapped puts II* at infinity
        m_inf = WeierstrassModel(HomPoly.zero(V, 2), P("t^4"), P("s*t^5"))
        cfg_inf = fiber_configuration(m_inf)
        assert cfg_inf.summary() == {"I1": 2, "II*": 1}
        labels_inf = {p.place.text(): p.kodaira.label for p in cfg_inf.places}
        assert labels_inf["t"] == "II*"

    def test_twist_moves_fibers(self):
        m = WeierstrassModel(
            P("s^2 + s*t"), P("s^3*t - t^4"), P("s^5*t + 3*t^6")
        )
        tw = quadratic_twist(m, P("s*t"))
        cfg = fiber_configuration(tw)
        assert cfg.summary() == {"I0*": 1, "I1": 11, "I1*": 1}
        assert cfg.euler_total == 24
        assert sum(p.degree * p.reductions for p in cfg.places) == 0

    def test_non_squarefree_twist_minimalizes(self):
        m = WeierstrassModel(
            P("s^2 + s*t"), P("s^3*t - t^4"), P("s^5*t + 3*t^6")
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
                random_form(2 * w), random_form(4 * w), random_form(6 * w)
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
                HomPoly.zero(V, 2 * w), homogenize(a4, V, 4 * w), homogenize(a6, V, 6 * w)
            )
        )
    rng = random.Random(20261018)
    r = corpus.sample_rational_surface(rng)
    cover = corpus.sample_cover_parameters(rng, r)
    trace, left, right = corpus.sample_isogeny_forms(rng)
    pair = du.AlternatePair(trace, left * right)
    models += [
        r.model(),
        du.base_change_k3(r, *cover),
        du.twist_model(r, *cover),
        pair.model(),
        du.two_isogeny_dual(pair).model(),
        du.bilinear_quadruple_surface(corpus.sample_generic_quadruple(rng)).model,
        du.three_lines_cubic_model(corpus.sample_three_lines_params(rng)),
        # c4 = 0, with II* over s = 0 and II at infinity
        WeierstrassModel(HomPoly.zero(V, 2), HomPoly.zero(V, 4), P("s^5*t")),
        # c6 = 0, with III* over s = 0 and III at infinity
        WeierstrassModel(HomPoly.zero(V, 2), P("s^3*t"), HomPoly.zero(V, 6)),
    ]
    return models


class TestValuationsAgainstSympy:
    def test_every_place_carries_its_sympy_multiplicities(self):
        for model in _valuation_corpus():
            c4, c6, delta = invariants(model)
            in_c4 = form_multiplicities(c4.coeffs)
            in_c6 = form_multiplicities(c6.coeffs)
            in_delta = form_multiplicities(delta.coeffs)
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
    c4, c6, delta = invariants(model)
    places = []
    for f, m in squarefree_split(delta)[1]:
        for g, v4 in refine_against(f, c4):
            for h, v6 in refine_against(g, c6):
                reduced, k = minimalize_at(v4, v6, m)
                places.append(FiberPlace(h, kodaira_from_valuations(*reduced), v4, v6, m, k))
    places.sort(key=lambda p: (p.place.degree, p.place.coeffs))
    return FiberConfiguration(model.weight, tuple(places))


class TestC6PassSkip:
    def test_places_prime_to_c4_match_the_double_refinement(self):
        # the double refinement reaches the places with v(delta) = 1, which
        # fiber_configuration does not refine, and the others prime to c4
        models = _valuation_corpus()
        skipped = simple = 0
        for model in models:
            config = fiber_configuration(model)
            assert config == _refined_twice(model)
            skipped += sum(p.v_c4 == 0 < p.v_delta - 1 for p in config.places)
            simple += sum(p.v_delta == 1 for p in config.places)
        assert skipped > 0 and simple > 0
        invs = [invariants(m) for m in models]
        assert any(c4.is_zero for c4, _, _ in invs)
        assert any(c6.is_zero for _, c6, _ in invs)

    def test_pieces_of_multiplicity_one_are_not_refined(self, monkeypatch):
        # exactly the squarefree pieces of delta of multiplicity 2 or more
        # are refined against c4, each once, and each v(delta) = 1 place
        # is an I1 prime to c4 and c6
        calls = []
        refine = elliptic.refine_against
        monkeypatch.setattr(
            elliptic, "refine_against", lambda f, q: calls.append((f, q)) or refine(f, q)
        )
        simple = 0
        for model in _valuation_corpus() + [_wide_model(0, False), _wide_model(0, True)]:
            c4, _, delta = invariants(model)
            factors = squarefree_split(delta)[1]
            calls.clear()
            places = fiber_configuration(model).places
            assert [f for f, q in calls if q is c4] == [f for f, m in factors if m > 1]
            ones = [p for p in places if p.v_delta == 1]
            assert all((p.kodaira.label, p.v_c4, p.v_c6) == ("I1", 0, 0) for p in ones)
            simple += sum(m == 1 for _, m in factors)
        assert simple > 0


def _fraction_order(forms: list[HomPoly]) -> list[HomPoly]:
    return sorted(forms, key=lambda f: (f.degree, f.coeffs))


def _seeded_fractional_model(seed: int) -> WeierstrassModel:
    rng = random.Random(seed)
    w = 1 + seed % 2

    def form(degree: int) -> HomPoly:
        return HomPoly.of(
            V, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree + 1)]
        )

    return WeierstrassModel(form(2 * w), form(4 * w), form(6 * w))


class TestIntegerSortKeys:
    """The places and the squarefree factors are sorted on their integer
    rows; the order must be the one their Fraction coefficients give."""

    def test_forms_with_unlike_denominators_keep_the_fraction_order(self):
        # monic in s, s - t/2 and s - t/3 have the numerator rows (2, -1)
        # and (3, -1), which alone would put them after s, (1, 0), and
        # s + 4t/5, (5, 4), after s + t
        model = WeierstrassModel(
            HomPoly.zero(V, 2),
            P("2*s - t") * P("3*s - t") * P("s^2"),
            P("2*s - t") * P("3*s - t") ** 2 * P("s^2") * P("t"),
        )
        places = [(p.place.text(), p.kodaira.label) for p in fiber_configuration(model).places]
        assert places[:3] == [("s - 1/2*t", "II"), ("s - 1/3*t", "III"), ("s", "IV")]
        f = P("2*s - t") * P("3*s - t") ** 2 * P("5*s + 4*t") ** 3
        f = f * P("s") ** 4 * P("t") ** 5 * P("s + t") ** 6
        assert [(g.text(), m) for g, m in squarefree_split(f)[1]] == [
            ("t", 5), ("s - 1/2*t", 1), ("s - 1/3*t", 2), ("s", 4), ("s + 4/5*t", 3), ("s + t", 6),
        ]

    def test_the_order_is_the_fraction_order_and_builds_no_fractions(self):
        models = _valuation_corpus() + [_wide_model(0, False), _wide_model(0, True)]
        models += [_seeded_fractional_model(seed) for seed in range(20)]
        for model in models:
            places = [p.place for p in fiber_configuration(model).places]
            assert not any("coeffs" in vars(f) for f in places)
            assert places == _fraction_order(places)
            factors = [f for f, _m in squarefree_split(invariants(model)[2])[1]]
            assert factors == _fraction_order(factors)


def _wide_model(seed: int, two_torsion: bool) -> WeierstrassModel:
    """A seeded weight-4 model with 128-bit coefficients; ``a6 = 0`` when
    ``two_torsion``."""
    rng = random.Random(seed)

    def form(degree: int) -> HomPoly:
        return HomPoly.of(V, [rng.getrandbits(128) - (1 << 127) for _ in range(degree + 1)])

    a2, a4 = form(8), form(16)
    a6 = HomPoly.zero(V, 24) if two_torsion else form(24)
    return WeierstrassModel(a2, a4, a6)


@pytest.mark.parametrize(
    "two_torsion, summary", [(False, {"I1": 48}), (True, {"I1": 16, "I2": 16})]
)
def test_large_models_take_few_pseudo_divisions(monkeypatch, two_torsion, summary):
    # the gcds under the squarefree split and refine_against divide only to
    # confirm a candidate; a remainder sequence made 70 and 90 divisions here
    divisions = []
    divmod_ = exactpoly._int_divmod
    monkeypatch.setattr(
        exactpoly, "_int_divmod", lambda a, b: divisions.append(len(b)) or divmod_(a, b)
    )
    assert fiber_configuration(_wide_model(0, two_torsion)).summary() == summary
    assert len(divisions) <= 20


def test_every_pseudo_division_of_the_fiber_classification_is_a_gcd_trial(monkeypatch):
    # the squarefree split and refine_against read the quotients off the
    # gcd, so a division happens only inside _int_gcd, after a
    # nonconstant candidate, once for each input at most; and the gcd's
    # bound is computed only after a trial division refused a candidate
    state = {"in_gcd": False, "candidate": None, "divisions": 0, "refused": False}
    tally = {"candidates": 0, "divisions": 0, "bounds": 0, "refusing_gcds": 0}
    int_gcd, candidate, divmod_ = exactpoly._int_gcd, exactpoly._xi_candidate, exactpoly._int_divmod
    xi_bits = exactpoly._xi_bits

    def gcd_(a, b):
        state.update(in_gcd=True, candidate=None, refused=False)
        try:
            return int_gcd(a, b)
        finally:
            state["in_gcd"] = False
            tally["refusing_gcds"] += state["refused"]

    def candidate_(a, b, k):
        h = candidate(a, b, k)
        state.update(candidate=h, divisions=0)
        tally["candidates"] += len(h) > 1
        return h

    def division(a, b):
        assert state["in_gcd"] and len(state["candidate"] or ()) > 1
        assert b == state["candidate"] and state["divisions"] < 2
        state["divisions"] += 1
        tally["divisions"] += 1
        out = divmod_(a, b)
        state["refused"] = state["refused"] or bool(out[1])
        return out

    def bits(a, b):
        assert state["in_gcd"] and state["refused"]
        tally["bounds"] += 1
        return xi_bits(a, b)

    monkeypatch.setattr(exactpoly, "_int_gcd", gcd_)
    monkeypatch.setattr(exactpoly, "_xi_candidate", candidate_)
    monkeypatch.setattr(exactpoly, "_int_divmod", division)
    monkeypatch.setattr(exactpoly, "_xi_bits", bits)
    models = _valuation_corpus() + [_wide_model(0, False), _wide_model(0, True)]
    for model in models:
        fiber_configuration(model)
    assert 0 < tally["divisions"] <= 2 * tally["candidates"]
    assert 0 < tally["bounds"] == tally["refusing_gcds"] < tally["candidates"]


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
        m = WeierstrassModel(P("5*s^2"), P("4*s^4"), HomPoly.zero(V, 6))
        secs = two_torsion_sections(m)
        assert [s.text() for s in secs] == ["-4*s^2", "-s^2", "0"]
        for s in secs:
            assert m.rhs_at(s).is_zero

    def test_shifted_split_family(self):
        m = WeierstrassModel(P("5*s^2"), P("4*s^4"), HomPoly.zero(V, 6))
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
            m = WeierstrassModel(a2, a4, a6)
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
            HomPoly.zero(V, 2), HomPoly.zero(V, 4), P("s^5*t + t^6")
        )
        assert two_torsion_sections(m) == ()

    def test_one_section(self):
        # x^3 + a4 x = x (x^2 + a4) with a4 not a negated square
        m = WeierstrassModel(HomPoly.zero(V, 2), P("s^4 + t^4"), HomPoly.zero(V, 6))
        secs = two_torsion_sections(m)
        assert [s.text() for s in secs] == ["0"]

    def test_twist_scales_sections(self):
        m = WeierstrassModel(P("5*s^2"), P("4*s^4"), HomPoly.zero(V, 6))
        d = P("s^2 + t^2")
        tw = quadratic_twist(m, d)
        expected = {(d * s).coeffs for s in two_torsion_sections(m)}
        assert {s.coeffs for s in two_torsion_sections(tw)} == expected

    def test_weight_two_generic(self):
        m = WeierstrassModel(P("5*s^2"), P("4*s^4"), HomPoly.zero(V, 6))
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
        model = WeierstrassModel(form(2 * w), form(4 * w), form(6 * w))
    else:
        r = HomPoly.zero(V, 2 * w) if a6_zero else form(2 * w)
        if planted == 1:
            b, c = form(2 * w), form(4 * w)
        else:
            r2, r3 = form(2 * w), form(2 * w)
            b, c = -(r2 + r3), r2 * r3
        # (x - r)(x^2 + b x + c)
        model = WeierstrassModel(b - r, c - r * b, -(r * c))
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
    assert len(two_torsion_sections(WeierstrassModel(*moved))) == count
    w2 = 2 * model.weight
    u = HomPoly.of(V, data.draw(st.lists(_SMALL, min_size=w2 + 1, max_size=w2 + 1)))
    assert len(two_torsion_sections(shift_x(model, u))) == count
