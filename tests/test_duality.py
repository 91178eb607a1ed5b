"""Tests for the surface constructions: covers, twists, isogenies, the
correspondence tower, quadruple covers and the pinned-star refibration.

Structural identities are checked exactly; fiber-configuration claims are
checked on random instances drawn through the genericity predicates of
``corpus`` (squarefreeness and coprimality of discriminant factors), so
resampling never conditions on the expected counts.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corpus import (
    full_torsion_tower_generic,
    random_form,
    sample_correspondence_triple,
    sample_cover_parameters,
    sample_full_torsion_forms,
    sample_generic_quadruple,
    sample_isogeny_forms,
    sample_rational_surface,
    sample_refiber_quadruple,
    sample_three_lines_params,
    separable,
    shift_x,
    star_chain_profile,
    three_lines_generic,
)
from ellsurf import duality as du
from ellsurf.elliptic import (
    DegenerateModel,
    WeierstrassModel,
    fiber_configuration,
    invariants,
    two_torsion_sections,
)
from ellsurf.exactpoly import (
    DegreeMismatch,
    HomPoly,
    UniPoly,
    homogenize,
    tensor_forms,
)
from ellsurf.hermite_aj import NormalizationViolated, UnitViolation, hermite_pair_forms

ST = ("s", "t")
UV = ("U", "V")
uv = ("u", "v")


def places_with_label(cfg, label):
    return {p.place for p in cfg.places if p.kodaira.label == label}


def label_product(cfg, label):
    # places are squarefree pieces, so same-type places with identical
    # valuation patterns can arrive merged; the product is stable
    total = None
    for p in cfg.places:
        if p.kodaira.label == label:
            total = p.place if total is None else total * p.place
    return total


# ---------------------------------------------------------------------------
# rational surface data, base change, twist


def test_rational_surface_gates():
    f4 = HomPoly.of(ST, (1, 0, 0, 0, 1))
    g6 = HomPoly.of(ST, (1, 0, 0, 0, 0, 0, 1))
    with pytest.raises(DegreeMismatch):
        du.RESData(f4, HomPoly.of(ST, (1, 0, 0, 1)))
    st = HomPoly.of(ST, (0, 1, 0))
    with pytest.raises(DegenerateModel):
        du.RESData(-3 * st**2, 2 * st**3)
    r = du.RESData(f4, g6)
    assert r.model().weight == 1
    assert r.reduced_discriminant() == 4 * f4**3 + 27 * g6**2


def test_rational_surface_generic_configuration():
    rng = random.Random(201)
    for _ in range(5):
        r = sample_rational_surface(rng)
        cfg = fiber_configuration(r.model())
        assert cfg.summary() == {"I1": 12}
        assert cfg.euler_total == 12


def test_base_change_unit_gates():
    r = du.RESData(HomPoly.of(ST, (1, 0, 0, 0, 1)), HomPoly.of(ST, (1, 0, 0, 0, 0, 0, 1)))
    for d0, d_inf in ((1, 5), (5, 1), (2, Fraction(1, 2))):
        with pytest.raises(UnitViolation):
            du.base_change_k3(r, d0, d_inf)


def test_base_change_singular_branch_fiber():
    # discriminant -108 s^12 + 108 t^12 vanishes exactly over [1:1]
    f_bad = HomPoly.of(ST, (-3, 0, 0, 0, 0))
    g_bad = HomPoly.of(ST, (0, 0, 0, 0, 0, 0, 2))
    r = du.RESData(f_bad, g_bad)
    with pytest.raises(du.SingularBranchFiber) as err:
        du.base_change_k3(r, 0, 0)
    assert "[1:1]" in str(err.value)


def test_base_change_cover_geometry():
    # the model is the pullback of (f, g) along a fixed degree-two map
    # that sends its ramification points to [d0:1] and [1:d_inf] and the
    # diagonal point [1:1] to itself
    rng = random.Random(232)
    r = sample_rational_surface(rng)
    d0, d_inf = Fraction(3), Fraction(-2)
    h_first = HomPoly.of(uv, (1 - d0, 0, d0 * (1 - d_inf)))
    h_second = HomPoly.of(uv, (d_inf * (1 - d0), 0, 1 - d_inf))
    assert h_first(0, 1) == d0 * h_second(0, 1)
    assert h_second(1, 0) == d_inf * h_first(1, 0)
    assert h_first(1, 1) == h_second(1, 1) != 0
    disc = r.reduced_discriminant()
    if all(disc(a, b) != 0 for a, b in ((3, 1), (1, -2), (1, 1))):
        expected = WeierstrassModel(
            HomPoly.zero(uv, 4),
            r.f.substitute(h_first, h_second),
            r.g.substitute(h_first, h_second),
        )
        assert du.base_change_k3(r, d0, d_inf) == expected


def test_base_change_at_the_origin_substitutes_squares():
    # with d0 = d_inf = 0 the cover map is [u^2 : v^2]
    f4 = HomPoly.of(ST, (1, 0, 0, 0, 1))
    g6 = HomPoly.of(ST, (0, 1, 0, 0, 0, 1, 1))
    model = du.base_change_k3(du.RESData(f4, g6), 0, 0)
    assert model.weight == 2
    assert (model.a4.degree, model.a6.degree) == (8, 12)
    u_sq, v_sq = HomPoly.of(uv, (1, 0, 0)), HomPoly.of(uv, (0, 0, 1))
    assert model.a4 == f4.substitute(u_sq, v_sq)
    assert model.a6 == g6.substitute(u_sq, v_sq)
    assert fiber_configuration(model).summary() == {"I1": 24}


def test_base_change_generic_configuration():
    rng = random.Random(202)
    for _ in range(5):
        r = sample_rational_surface(rng)
        d0, d_inf = sample_cover_parameters(rng, r)
        model = du.base_change_k3(r, d0, d_inf)
        assert model.weight == 2
        cfg = fiber_configuration(model)
        assert cfg.summary() == {"I1": 24}
        assert cfg.euler_total == 24


def test_twist_gates_and_places():
    r = du.RESData(HomPoly.of(ST, (1, 0, 0, 0, 1)), HomPoly.of(ST, (1, 0, 0, 0, 0, 0, 1)))
    with pytest.raises(UnitViolation):
        du.twist_model(r, 2, Fraction(1, 2))
    rng = random.Random(203)
    for _ in range(5):
        surf = sample_rational_surface(rng)
        while True:
            d0, d_inf = sample_cover_parameters(rng, surf)
            if d0 != 0 and d_inf != 0:
                break
        model = du.twist_model(surf, d0, d_inf)
        assert model.weight == 2
        cfg = fiber_configuration(model)
        assert cfg.summary() == {"I0*": 2, "I1": 12}
        assert cfg.euler_total == 24
        expected = HomPoly.of(ST, (1, -d0)) * HomPoly.of(
            ST, (1, Fraction(-1, 1) / d_inf)
        )
        assert label_product(cfg, "I0*") == expected


def test_twist_at_the_origin():
    r = du.RESData(HomPoly.of(ST, (1, 0, 0, 0, 1)), HomPoly.of(ST, (0, 1, 0, 0, 0, 1, 1)))
    model = du.twist_model(r, 0, 0)
    assert model.weight == 2
    cfg = fiber_configuration(model)
    assert cfg.summary() == {"I0*": 2, "I1": 12}
    assert cfg.euler_total == 24


def test_twist_preserves_j_invariant():
    rng = random.Random(204)
    r = sample_rational_surface(rng)
    d0, d_inf = sample_cover_parameters(rng, r)
    base_c4, _, base_delta = invariants(r.model())
    twisted_c4, _, twisted_delta = invariants(du.twist_model(r, d0, d_inf))
    assert base_c4**3 * twisted_delta == twisted_c4**3 * base_delta


# ---------------------------------------------------------------------------
# the two-torsion normal form and its isogeny dual


def test_alternate_pair_gates():
    trace = HomPoly.of(ST, (1, 0, 0, 0, 1))
    norm = HomPoly.of(ST, tuple([1] + [0] * 7 + [1]))
    with pytest.raises(DegreeMismatch):
        du.AlternatePair(trace, trace)
    with pytest.raises(DegenerateModel):
        du.AlternatePair(trace, HomPoly.zero(ST, 8))
    pair = du.AlternatePair(trace, norm)
    assert pair.model().weight == 2
    assert pair.model().a2 == -trace
    assert pair.model().a4 == norm


def test_isogeny_dual_square_is_multiplication_by_four():
    rng = random.Random(205)
    for _ in range(10):
        trace, left, right = sample_isogeny_forms(rng)
        pair = du.AlternatePair(trace, left * right)
        again = du.two_isogeny_dual(du.two_isogeny_dual(pair))
        assert again.trace == 4 * pair.trace
        assert again.norm == 16 * pair.norm


def test_isogeny_swaps_place_sets():
    rng = random.Random(206)
    for _ in range(6):
        trace, left, right = sample_isogeny_forms(rng)
        pair = du.AlternatePair(trace, left * right)
        dual = du.two_isogeny_dual(pair)
        cfg = fiber_configuration(pair.model())
        cfg_dual = fiber_configuration(dual.model())
        assert cfg.summary() == {"I1": 8, "I2": 8}
        assert cfg_dual.summary() == {"I1": 8, "I2": 8}
        assert cfg.euler_total == cfg_dual.euler_total == 24
        assert places_with_label(cfg, "I2") == places_with_label(cfg_dual, "I1")
        assert places_with_label(cfg, "I1") == places_with_label(cfg_dual, "I2")
        # the norm is a separable product, never a square, so the only
        # rational two-torsion section is x = 0
        assert two_torsion_sections(pair.model()) == (HomPoly.zero(ST, 4),)


# ---------------------------------------------------------------------------
# the quadric double cover and the ruling swap


def test_ruling_swap_reading_identity():
    # the bidegree-(4,2) branch form has two equal readings: degree-four
    # coefficients against u^4, u^2 v^2, v^4, or degree-two coefficients
    # against the monomials of the first ruling
    rng = random.Random(207)
    for _ in range(8):
        branch, (coeffs, _, _), _ = du.quadric_double_cover(*sample_isogeny_forms(rng))
        u_sq = HomPoly.of(uv, (1, 0, 0))
        v_sq = HomPoly.of(uv, (0, 0, 1))
        total = None
        for j in range(5):
            power = HomPoly.of(
                ("s", "t"), tuple(1 if k == 4 - j else 0 for k in range(5))
            )
            term = tensor_forms(power, coeffs[j].substitute(u_sq, v_sq))
            total = term if total is None else total + term
        assert total == branch


def test_ruling_swap_frozen_coefficients():
    # A = 0, C = s^4, D = t^4: only the outer coefficients survive
    coeffs, f, g = du.ruling_swap(
        HomPoly.zero(ST, 4), HomPoly.of(ST, (1, 0, 0, 0, 0)), HomPoly.of(ST, (0, 0, 0, 0, 1))
    )
    assert coeffs[4] == HomPoly.of(UV, (1, 0, 0))
    assert coeffs[0] == HomPoly.of(UV, (0, 0, 1))
    assert all(coeffs[j].is_zero for j in (1, 2, 3))
    assert f == HomPoly.of(UV, (0, 0, -4, 0, 0))
    assert g.is_zero


def test_ruling_swap_matches_the_curve_equation():
    # C(s,t) U^2 - A(s,t) U V + D(s,t) V^2 = sum_j a_j(U,V) s^j t^(4-j)
    rng = random.Random(233)
    for _ in range(5):
        a, c, d = (random_form(rng, ST, 4, -9, 9) for _ in range(3))
        coeffs, _, _ = du.ruling_swap(a, c, d)
        for _ in range(10):
            s0, t0, u0, v0 = (rng.randint(-9, 9) for _ in range(4))
            lhs = c(s0, t0) * u0 * u0 - a(s0, t0) * u0 * v0 + d(s0, t0) * v0 * v0
            rhs = sum(coeffs[j](u0, v0) * s0**j * t0 ** (4 - j) for j in range(5))
            assert lhs == rhs


def test_ruling_swap_degree_gate():
    bad = HomPoly.of(ST, (1, 0, 1))
    good = HomPoly.of(ST, (1, 0, 0, 0, 1))
    with pytest.raises(DegreeMismatch):
        du.ruling_swap(bad, good, good)


def test_quadric_cover_swapping_rulings_flips_split():
    rng = random.Random(208)
    trace, left, right = sample_isogeny_forms(rng)
    flipped, _, _ = du.quadric_double_cover(trace, right, left)
    branch, _, _ = du.quadric_double_cover(trace, left, right)
    v_lin = HomPoly.of(uv, (0, 1))
    u_lin = HomPoly.of(uv, (1, 0))
    assert branch.substitute_pair2(v_lin, u_lin) == flipped


def test_the_quadric_branch_is_the_covers_branch_with_its_errors():
    rng = random.Random(331)
    for _ in range(4):
        forms = sample_isogeny_forms(rng)
        assert du.quadric_branch(*forms) == du.quadric_double_cover(*forms)[0]
    quadric = HomPoly.of(ST, (1, 0, 1))
    # a weight-one pair: its split factors are quadrics, not quartics
    for build in (du.quadric_double_cover, du.quadric_branch):
        with pytest.raises(DegreeMismatch):
            build(quadric, quadric, quadric)


def test_quadric_cover_jacobian_is_base_change():
    # the (u^2, v^2) substitution is the degree-two base change at (0, 0)
    rng = random.Random(209)
    for _ in range(5):
        _, (_, f, g), jacobian = du.quadric_double_cover(*sample_isogeny_forms(rng))
        try:
            res = du.RESData(f.rename(ST), g.rename(ST))
        except DegenerateModel:
            continue
        disc = res.reduced_discriminant()
        if disc(0, 1) == 0 or disc(1, 0) == 0 or disc(1, 1) == 0:
            continue
        assert jacobian == du.base_change_k3(res, 0, 0)


def _twisted_jacobian(f: HomPoly, g: HomPoly) -> WeierstrassModel:
    """Twisted relative Jacobian of the swap: x^3 + U^2 V^2 f x + U^3 V^3 g."""
    vars = f.vars
    uv_form = HomPoly.of(vars, (0, 1, 0))
    return WeierstrassModel(HomPoly.zero(vars, 4), uv_form**2 * f, uv_form**3 * g)


def test_ruling_swap_jacobian_configuration():
    rng = random.Random(210)
    done = 0
    while done < 5:
        _, (_, f, g), _ = du.quadric_double_cover(*sample_isogeny_forms(rng))
        disc = 4 * f**3 + 27 * g**2
        if disc.is_zero or not separable(disc):
            continue
        if disc(0, 1) == 0 or disc(1, 0) == 0:
            continue
        model = _twisted_jacobian(f, g)
        cfg = fiber_configuration(model)
        assert cfg.summary() == {"I0*": 2, "I1": 12}
        assert label_product(cfg, "I0*") == HomPoly.of(UV, (0, 1, 0))
        done += 1


# ---------------------------------------------------------------------------
# moving the section lines


def test_two_param_family_identities():
    rng = random.Random(211)
    for _ in range(6):
        trace, left, right = sample_isogeny_forms(rng)
        d0, d_inf = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        if d0 * d_inf == 1:
            continue
        model, reduced = du.two_param_family(trace, left, right, d0, d_inf)
        # discriminant of the model equals 16 times the reduced form
        assert invariants(model)[2] == 16 * reduced
        # the branch quartic in x recovers the deformation-invariant factor
        combo = model.a2 * model.a2 - 4 * model.a4
        fixed = (trace * trace - 4 * left * right).rename(("s", "t"))
        assert combo == (d0 * d_inf - 1) ** 2 * fixed


def test_two_param_invariant_places():
    # the nodal places of the fixed factor do not move with (d0, d_inf)
    rng = random.Random(212)
    trace, left, right = sample_isogeny_forms(rng)
    reference = None
    for d0, d_inf in ((0, 0), (2, 3), (-1, 4), (Fraction(1, 2), -2)):
        model, _ = du.two_param_family(trace, left, right, d0, d_inf)
        try:
            cfg = fiber_configuration(model)
        except DegenerateModel:
            continue
        fixed_places = places_with_label(cfg, "I1")
        if reference is None:
            reference = fixed_places
        else:
            assert fixed_places == reference


def test_two_param_gates():
    quartic = HomPoly.of(ST, (1, 0, 0, 0, 1))
    with pytest.raises(UnitViolation):
        du.two_param_family(quartic, quartic, quartic, 2, Fraction(1, 2))
    with pytest.raises(DegreeMismatch):
        du.two_param_family(HomPoly.of(ST, (1, 0, 1)), quartic, quartic, 0, 0)
    with pytest.raises(UnitViolation):
        du.moduli_involution(quartic, quartic, quartic, 3, Fraction(1, 3))
    # new_left = left + d_inf^2 right - d_inf trace vanishes, and so the norm
    right, trace, d_inf = quartic, HomPoly.of(ST, (2, 0, 1, 1, -1)), Fraction(3, 2)
    left = d_inf * trace - d_inf**2 * right
    assert du.moduli_involution(trace, left, right, 2, d_inf)[1].is_zero
    with pytest.raises(DegenerateModel):
        du.two_param_family(trace, left, right, 2, d_inf)


@pytest.mark.parametrize("moved", range(3))
def test_the_deformation_refuses_forms_on_two_variable_pairs(moved):
    # read on one pair, the three forms would be valid deformation data
    forms = [HomPoly.of(ST, row) for row in ((1, 0, 0, 0, 1), (1, 2, 0, 0, 1), (0, 1, 0, 1, 1))]
    forms[moved] = forms[moved].rename(UV)
    with pytest.raises(DegreeMismatch):
        du.two_param_family(*forms, 2, 3)
    with pytest.raises(DegreeMismatch):
        du.moduli_involution(*forms, 2, 3)


def test_involution_normal_forms():
    rng = random.Random(213)
    for _ in range(8):
        trace, left, right = sample_isogeny_forms(rng)
        # at the base point the move just flips the trace
        assert du.moduli_involution(trace, left, right, 0, 0) == (
            -trace,
            left,
            right,
        )
        d0, d_inf = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        if d0 * d_inf == 1:
            continue
        once = du.moduli_involution(trace, left, right, d0, d_inf)
        twice = du.moduli_involution(*once, d0, d_inf)
        scale = (d0 * d_inf - 1) ** 2
        assert twice == (scale * trace, scale * left, scale * right)
        # the branch combination scales by the square of the same factor
        combo = once[0] * once[0] - 4 * once[1] * once[2]
        fixed = trace * trace - 4 * left * right
        assert combo == scale * fixed


# ---------------------------------------------------------------------------
# the correspondence tower


def test_correspondence_gates():
    alpha = HomPoly.of(UV, (1, 2, 3))
    gamma = HomPoly.of(UV, (4, 1, 5))
    # breaks d2 == g0: reading the curve against the other ruling would
    # give different coefficients
    delta = HomPoly.of(UV, (9, 3, 6))
    with pytest.raises(NormalizationViolated):
        du.correspondence_surfaces(gamma, alpha, delta)
    with pytest.raises(DegreeMismatch):
        du.correspondence_surfaces(gamma, HomPoly.of(UV, (1, 2)), delta)


def test_correspondence_branch_routes_agree():
    rng = random.Random(214)
    for _ in range(8):
        gamma, alpha, delta = sample_correspondence_triple(rng)
        table = du.correspondence_surfaces(gamma, alpha, delta)
        branches = du.correspondence_branches(gamma, alpha, delta)
        for key in (
            "branch_cover1_cover2",
            "branch_cover1_quot2",
            "branch_quot1_cover2",
            "branch_quot1_quot2",
        ):
            first, second = branches[key]
            assert first == second
        g_q2, a_q2, d_q2 = table["cad"]
        assert (g_q2, a_q2, d_q2) == (
            gamma.rename(UV),
            alpha.rename(UV),
            delta.rename(UV),
        )


def test_correspondence_tower_duals():
    # on the first ruling the listed model is the cover side and its dual
    # the quotient; on the second ruling the roles are mirrored
    rng = random.Random(215)
    gamma, alpha, delta = sample_correspondence_triple(rng)
    table = du.correspondence_surfaces(gamma, alpha, delta)
    for base_key in ("cover1", "quot1", "rat1"):
        base = table[base_key]
        dual = table[base_key + "_dual"]
        assert dual.a2 == -2 * base.a2
        assert dual.a4 == base.a2 * base.a2 - 4 * base.a4
    for base_key in ("cover2", "quot2", "rat2"):
        base = table[base_key + "_dual"]
        dual = table[base_key]
        assert dual.a2 == -2 * base.a2
        assert dual.a4 == base.a2 * base.a2 - 4 * base.a4


def test_correspondence_tower_configurations():
    rng = random.Random(216)
    for _ in range(5):
        gamma, alpha, delta = sample_correspondence_triple(rng)
        table = du.correspondence_surfaces(gamma, alpha, delta)
        for key in ("cover1", "cover2"):
            cfg = fiber_configuration(table[key])
            assert cfg.summary() == {"I1": 8, "I2": 8}
            assert cfg.euler_total == 24
        for key in ("quot1", "quot2"):
            cfg = fiber_configuration(table[key])
            assert cfg.summary() == {"I0*": 2, "I1": 4, "I2": 4}
            assert cfg.euler_total == 24
        for key in ("rat1", "rat2"):
            model = table[key]
            assert model.weight == 1
            cfg = fiber_configuration(model)
            assert cfg.summary() == {"I1": 4, "I2": 4}
            assert cfg.euler_total == 12


# A pointwise oracle for the towers.  It evaluates every returned form from
# its coefficients at random rational points and compares with the curve
# Phi = gamma(S,T) U^2 + alpha(S,T) UV + delta(S,T) V^2, or with the
# full-torsion and subfamily formulas, written out here.  A ``cover``
# reading evaluates at squares, a ``quot`` reading multiplies by st or uv.


def _form_at(form, x, y):
    d = form.degree
    return sum(c * x ** (d - k) * y**k for k, c in enumerate(form.coeffs))


def _bi_at(form, s, t, u, v):
    d1, d2 = form.deg1, form.deg2
    return sum(
        c * s ** (d1 - i) * t**i * u ** (d2 - j) * v**j
        for i, row in enumerate(form.rows)
        for j, c in enumerate(row)
    )


def _random_point(rng, n):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]


def _random_normalized_triple(rng):
    """(gamma, alpha, delta) invariant under exchanging the rulings, with
    gamma delta and alpha^2 - 4 gamma delta nonzero."""
    for _ in range(100):
        d0, a0, g0, a1, a2, g2 = (rng.randint(-6, 6) for _ in range(6))
        gamma = HomPoly.of(UV, (g2, a2, g0))
        alpha = HomPoly.of(UV, (a2, a1, a0))
        delta = HomPoly.of(UV, (g0, a0, d0))
        prod = gamma * delta
        if not prod.is_zero and not (alpha * alpha - 4 * prod).is_zero:
            return gamma, alpha, delta
    raise AssertionError("no nondegenerate triple drawn")


# reading -> (value of the pair at (x, y), factor) on either ruling
_READ_AT = {
    "cover": lambda x, y: ((x * x, y * y), 1),
    "quot": lambda x, y: ((x, y), x * y),
    "rat": lambda x, y: ((x, y), 1),
}


def test_correspondence_branch_pairs_match_the_curve_pointwise():
    rng = random.Random(240)
    for _ in range(6):
        gamma, alpha, delta = _random_normalized_triple(rng)
        branches = du.correspondence_branches(gamma, alpha, delta)

        def phi(s, t, u, v):
            return (
                _form_at(gamma, s, t) * u * u
                + _form_at(alpha, s, t) * u * v
                + _form_at(delta, s, t) * v * v
            )

        for first in ("cover", "quot"):
            for second in ("cover", "quot"):
                pair = branches[f"branch_{first}1_{second}2"]
                for _ in range(3):
                    s, t, u, v = _random_point(rng, 4)
                    (s1, t1), k1 = _READ_AT[first](s, t)
                    (u1, v1), k2 = _READ_AT[second](u, v)
                    want = k1 * k2 * phi(s1, t1, u1, v1)
                    assert [_bi_at(form, s, t, u, v) for form in pair] == [want, want]


def test_correspondence_models_match_the_readings_pointwise():
    rng = random.Random(241)
    pairs = {1: (("S", "T"), ("s", "t")), 2: (UV, uv)}
    for _ in range(6):
        gamma, alpha, delta = _random_normalized_triple(rng)
        table = du.correspondence_surfaces(gamma, alpha, delta)
        g_q2, a_q2, d_q2 = table["cad"]
        for kind in ("cover", "quot", "rat"):
            for ruling in (1, 2):
                x, y = _random_point(rng, 2)
                (x1, y1), k = _READ_AT[kind](x, y)
                a = k * _form_at(alpha, x1, y1)
                prod = k * k * _form_at(gamma, x1, y1) * _form_at(delta, x1, y1)
                listed = table[f"{kind}{ruling}"], table[f"{kind}{ruling}_dual"]
                pair_model, dual_model = listed if ruling == 1 else listed[::-1]
                vars = pairs[ruling][0 if kind != "cover" else 1]
                weight = 1 if kind == "rat" else 2
                for model, a2, a4 in (
                    (pair_model, a, prod),
                    (dual_model, -2 * a, a * a - 4 * prod),
                ):
                    assert (model.vars, model.weight) == (vars, weight)
                    assert _form_at(model.a2, x, y) == a2
                    assert _form_at(model.a4, x, y) == a4
                    assert model.a6.is_zero
        x, y = _random_point(rng, 2)
        assert [_form_at(form, x, y) for form in (g_q2, a_q2, d_q2)] == [
            _form_at(form, x, y) for form in (gamma, alpha, delta)
        ]
        assert g_q2.vars == UV


def test_correspondence_refuses_a_degenerate_triple():
    # delta = 0 forces gamma and alpha to vanish at [0:1] under the
    # normalization; gamma delta = 0 makes every norm form vanish
    gamma = HomPoly.of(UV, (1, 2, 0))
    alpha = HomPoly.of(UV, (2, 3, 0))
    with pytest.raises(DegenerateModel):
        du.correspondence_surfaces(gamma, alpha, HomPoly.zero(UV, 2))
    # the double curve (SU + TV)^2: alpha^2 - 4 gamma delta = 0
    with pytest.raises(DegenerateModel):
        du.correspondence_surfaces(
            HomPoly.of(UV, (1, 0, 0)),
            HomPoly.of(UV, (0, 2, 0)),
            HomPoly.of(UV, (0, 0, 1)),
        )


_READING_NAMES = ("cover", "quot", "rat")


def test_the_correspondence_models_are_the_tables_entries():
    rng = random.Random(332)
    for _ in range(4):
        triple = sample_correspondence_triple(rng)
        table = du.correspondence_surfaces(*triple)
        for kind in _READING_NAMES:
            models = du.correspondence_models(kind, *triple)
            assert models == (table[f"{kind}1"], table[f"{kind}2"])


# (gamma, alpha, delta) that the correspondence table refuses, with its error
_TRIPLE_FAULTS = {
    "normalization": (((4, 1, 5), (1, 2, 3), (9, 3, 6)), NormalizationViolated),
    "degree": (((4, 1, 5), (1, 2), (9, 3, 6)), DegreeMismatch),
    "gamma-delta-zero": (((1, 2, 0), (2, 3, 0), (0, 0, 0)), DegenerateModel),
    "double-curve": (((1, 0, 0), (0, 2, 0), (0, 0, 1)), DegenerateModel),
}


@pytest.mark.parametrize("kind", _READING_NAMES)
@pytest.mark.parametrize("fault", sorted(_TRIPLE_FAULTS))
def test_the_correspondence_models_raise_what_the_table_raises(fault, kind):
    rows, error = _TRIPLE_FAULTS[fault]
    triple = tuple(HomPoly.of(UV, row) for row in rows)
    with pytest.raises(error):
        du.correspondence_surfaces(*triple)
    with pytest.raises(error):
        du.correspondence_models(kind, *triple)


# ---------------------------------------------------------------------------
# the full two-torsion tower


def test_full_torsion_gates():
    quartic = HomPoly.of(ST, (1, 0, 0, 0, 1))
    with pytest.raises(DegreeMismatch):
        du.full_torsion_surfaces(quartic, HomPoly.of(ST, (1, 0, 1)))
    with pytest.raises(du.DegenerateInput):
        du.full_torsion_surfaces(quartic, HomPoly.zero(ST, 4))
    with pytest.raises(du.DegenerateInput):
        du.full_torsion_surfaces(quartic, quartic)


def test_full_torsion_structure():
    rng = random.Random(217)
    for _ in range(8):
        trace, diff = sample_full_torsion_forms(rng)
        tor = du.full_torsion_surfaces(trace, diff)
        assert (tor["f"].degree, tor["g"].degree) == (2, 3)
        for key in ("branch_4cover", "branch_cover", "branch_quot"):
            first, second = tor[key]
            assert first == second
        trace_c = trace.rename(("s", "t"))
        diff_c = diff.rename(("s", "t"))
        assert 4 * tor["alt"].a4 == trace_c**2 - diff_c**2
        assert tor["alt"].a2 == -trace_c
        assert tor["alt_dual"].a4 == diff_c**2
        assert tor["alt_dual"].a2 == 2 * trace_c


def test_the_full_torsion_builders_are_the_tables_entries():
    rng = random.Random(333)
    for _ in range(4):
        trace, diff = sample_full_torsion_forms(rng)
        tor = du.full_torsion_surfaces(trace, diff)
        pair = du.full_torsion_pair(trace, diff)
        trace_c, diff_c = trace.rename(ST), diff.rename(ST)
        assert (pair.trace, 4 * pair.norm) == (trace_c, trace_c**2 - diff_c**2)
        assert pair.model() == tor["alt"]
        assert du.full_torsion_jacobian(trace, diff) == (tor["f"], tor["g"])
        assert hermite_pair_forms(*tor["a"]) == (tor["f"], tor["g"])


def test_the_full_torsion_table_finds_its_torsion_points_once(monkeypatch):
    calls = []

    def counted(*forms):
        calls.append(forms)
        return torsion_points(*forms)

    torsion_points = du._torsion_points
    monkeypatch.setattr(du, "_torsion_points", counted)
    tor = du.full_torsion_surfaces(*sample_full_torsion_forms(random.Random(334)))
    assert len(calls) == 1
    assert tor["alt"] == du.full_torsion_pair(*calls[0]).model()


_QUARTIC = (1, 0, 0, 0, 1)
# (trace, difference) that the full-torsion table refuses, with its error
_TORSION_FAULTS = {
    "degree": ((_QUARTIC, (1, 0, 1)), DegreeMismatch),
    "sections-coincide": ((_QUARTIC, (0, 0, 0, 0, 0)), du.DegenerateInput),
    "section-at-zero": ((_QUARTIC, _QUARTIC), du.DegenerateInput),
}


@pytest.mark.parametrize("builder", ["full_torsion_pair", "full_torsion_jacobian"])
@pytest.mark.parametrize("fault", sorted(_TORSION_FAULTS))
def test_the_full_torsion_builders_raise_what_the_table_raises(fault, builder):
    rows, error = _TORSION_FAULTS[fault]
    forms = tuple(HomPoly.of(ST, row) for row in rows)
    with pytest.raises(error):
        du.full_torsion_surfaces(*forms)
    with pytest.raises(error):
        getattr(du, builder)(*forms)


# the full-torsion readings of the second ruling at (u, v): the values put
# in for (U, V) and the twisting line
_TORSION_AT = {
    "4cover": lambda u, v: (((u * u - v * v) ** 2, (u * u + v * v) ** 2), 1),
    "cover": lambda u, v: ((u * u, v * v), u * u - v * v),
    "quot": lambda u, v: ((u, v), u * v * (u - v)),
}


def test_full_torsion_branches_match_the_readings_pointwise():
    rng = random.Random(242)
    for _ in range(6):
        trace = random_form(rng, ST, 4, -6, 6)
        diff = random_form(rng, ST, 4, -6, 6)
        if (trace * trace - diff * diff).is_zero:
            continue
        tor = du.full_torsion_surfaces(trace, diff)
        for _ in range(3):
            s, t, u, v = _random_point(rng, 4)
            low = (_form_at(trace, s, t) - _form_at(diff, s, t)) / 2
            high = -(_form_at(trace, s, t) + _form_at(diff, s, t)) / 2
            quartic = sum(
                _form_at(a, u, v) * s ** (4 - i) * t**i for i, a in enumerate(tor["a"])
            )
            assert quartic == low * u + high * v
            for name, reading in _TORSION_AT.items():
                (x, y), line = reading(u, v)
                want = line * (low * x + high * y)
                pair = tor[f"branch_{name}"]
                assert [_bi_at(form, s, t, u, v) for form in pair] == [want, want]


# subfamily kind -> (the values put in for the pair of (f, g) at (u, v), the
# twisting line, the weight); the quotient kinds put in (u, v) itself
_SUBFAMILY_AT = {
    "cover4": lambda u, v: (((u * u - v * v) ** 2, (u * u + v * v) ** 2), 1, 2),
    "cover2": lambda u, v: ((u * u, v * v), u * u - v * v, 2),
    "twist": lambda u, v: ((u, v), u * v * (u - v), 2),
    "rational": lambda u, v: ((u, v), u - v, 1),
}
_SUBFAMILY_VARS = {"cover4": ("ut", "vt"), "cover2": uv, "twist": UV, "rational": UV}


def _check_short_model(model, kind, f, g, rng):
    assert model.vars == _SUBFAMILY_VARS[kind]
    for _ in range(3):
        u, v = _random_point(rng, 2)
        (x, y), line, weight = _SUBFAMILY_AT[kind](u, v)
        assert model.weight == weight
        assert model.a2.is_zero
        assert _form_at(model.a4, u, v) == line**2 * _form_at(f, x, y)
        assert _form_at(model.a6, u, v) == line**3 * _form_at(g, x, y)


def test_full_torsion_jacobian_tower_pointwise():
    rng = random.Random(243)
    for _ in range(4):
        tor = du.full_torsion_surfaces(*sample_full_torsion_forms(rng))
        f, g = tor["f"], tor["g"]
        for kind, key in (
            ("cover4", "jac_4cover"),
            ("cover2", "jac_cover"),
            ("twist", "jac_quot_twisted"),
            ("rational", "res_quot"),
        ):
            _check_short_model(tor[key], kind, f, g, rng)
        u, v = _random_point(rng, 2)
        res_cover = tor["res_cover"]
        assert (res_cover.vars, res_cover.weight) == (uv, 1)
        assert _form_at(res_cover.a4, u, v) == _form_at(f, u * u, v * v)
        assert _form_at(res_cover.a6, u, v) == _form_at(g, u * u, v * v)


def test_full_torsion_tower_matches_subfamilies():
    # the five tower models are the four shared subfamily constructions
    # applied to the reconstructed pair, plus the untwisted weight-one one
    rng = random.Random(218)
    trace, diff = sample_full_torsion_forms(rng)
    tor = du.full_torsion_surfaces(trace, diff)
    f, g = tor["f"], tor["g"]
    assert tor["jac_4cover"] == du.subfamily_models("cover4", f, g)
    assert tor["jac_cover"] == du.subfamily_models("cover2", f, g)
    assert tor["jac_quot_twisted"] == du.subfamily_models("twist", f, g)
    assert tor["res_quot"] == du.subfamily_models("rational", f, g)


def test_full_torsion_configurations():
    rng = random.Random(219)
    done = 0
    while done < 5:
        trace, diff = sample_full_torsion_forms(rng)
        tor = du.full_torsion_surfaces(trace, diff)
        cfg_alt = fiber_configuration(tor["alt"])
        assert cfg_alt.summary() == {"I2": 12}
        assert cfg_alt.euler_total == 24
        if not full_torsion_tower_generic(tor["f"], tor["g"]):
            continue
        assert fiber_configuration(tor["jac_4cover"]).summary() == {"I1": 24}
        assert fiber_configuration(tor["jac_cover"]).summary() == {"I0*": 2, "I1": 12}
        assert fiber_configuration(tor["jac_quot_twisted"]).summary() == {
            "I0*": 3,
            "I1": 6,
        }
        cfg_res = fiber_configuration(tor["res_quot"])
        assert cfg_res.summary() == {"I0*": 1, "I1": 6}
        assert cfg_res.euler_total == 12
        assert fiber_configuration(tor["res_cover"]).summary() == {"I1": 12}
        done += 1


# ---------------------------------------------------------------------------
# four bilinear curves


def _hand_pair_form(rows, i, j):
    """The eliminant of curves i and j, expanded coefficient by coefficient."""
    r1i, r2i, r3i, r4i = rows[i]
    r1j, r2j, r3j, r4j = rows[j]
    return HomPoly.of(
        ST,
        (
            r1i * r3j - r3i * r1j,
            r1i * r4j + r2i * r3j - r3i * r2j - r4i * r1j,
            r2i * r4j - r4i * r2j,
        ),
    )


def test_quadruple_pair_eliminant_identity():
    # product identity forced by the 2x2 minors of four vectors
    rng = random.Random(220)
    for _ in range(10):
        rows = tuple(tuple(Fraction(rng.randint(-9, 9)) for _ in range(4)) for _ in range(4))
        b = du._pair_form(rows, 0, 1) * du._pair_form(rows, 2, 3)
        c = du._pair_form(rows, 0, 2) * du._pair_form(rows, 1, 3)
        d = du._pair_form(rows, 0, 3) * du._pair_form(rows, 1, 2)
        assert b - c == -1 * d
        for i, j in itertools.permutations(range(4), 2):
            assert du._pair_form(rows, i, j) == _hand_pair_form(rows, i, j)


def test_quadruple_genericity_gates():
    base = ((1, 2, 3, 5), (2, -1, 1, 4), (0, 1, 1, -3), (1, 1, -2, 1))
    with pytest.raises(du.GenericityViolated) as err:
        du.bilinear_quadruple_surface(((1, 2, 2, 4),) + base[1:])
    assert "reducible" in str(err.value)
    with pytest.raises(du.GenericityViolated) as err:
        du.bilinear_quadruple_surface((base[0], (2, 4, 6, 10)) + base[2:])
    assert "share a component" in str(err.value)
    # curves 0 and 1 meeting at a double point
    tangent = ((1, 0, 0, 1), (0, -1, 1, -2)) + base[2:]
    with pytest.raises(du.GenericityViolated) as err:
        du.bilinear_quadruple_surface(tangent)
    assert "tangent" in str(err.value)
    # curves 0, 1, 2 sharing the point (s, U) = (0, 1)
    triple = ((1, 1, 0, -1), (2, 1, 1, -1), (1, 1, 1, -1), base[3])
    with pytest.raises(du.GenericityViolated) as err:
        du.bilinear_quadruple_surface(triple)
    assert "0, 1 and 2 meet in a point" in str(err.value)


def test_quadruple_rows_are_a_four_by_four_rational_matrix():
    base = ((1, 2, 3, 5), (2, -1, 1, 4), (0, 1, 1, -3), (1, 1, -2, 1))
    with pytest.raises(DegreeMismatch, match="4 x 4"):
        du.bilinear_quadruple_surface(base[:3])
    with pytest.raises(DegreeMismatch, match="4 x 4"):
        du.bilinear_quadruple_surface(((1, 2, 3, 5, 7),) + base[1:])
    with pytest.raises(TypeError):
        du.bilinear_quadruple_surface(((1.0, 2, 3, 5),) + base[1:])
    rows = (iter(row) for row in base)
    assert du.bilinear_quadruple_surface(rows) == du.bilinear_quadruple_surface(base)


def test_quadruple_cover_configuration_and_torsion():
    rng = random.Random(221)
    for _ in range(5):
        b, c = du.bilinear_quadruple_surface(sample_generic_quadruple(rng))
        model = du.AlternatePair(b + c, b * c).model()
        cfg = fiber_configuration(model)
        assert cfg.summary() == {"I2": 12}
        assert cfg.euler_total == 24
        sections = two_torsion_sections(model)
        assert len(sections) == 3
        assert b in sections and c in sections


# ---------------------------------------------------------------------------
# three concurrent lines and a cubic


def test_three_lines_parameter_gates():
    with pytest.raises(du.ParameterConstraintViolated):
        du.ThreeLinesCubicParams.of(1, 1, 0, 1, 0, 0, 0, 0, 0, 0)
    with pytest.raises(du.ParameterConstraintViolated):
        du.ThreeLinesCubicParams.of(0, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(du.ParameterConstraintViolated):
        du.ThreeLinesCubicParams.of(0, 1, 0, 1, 0, 0, -1, 0, 0, 0)


def test_three_lines_discriminant_shape():
    # delta = 16 (t+mu)^6 (t+nu)^6 q(t) with q monic-degree six up to the
    # factor (c1+d2)^2 c1^2 d2^2; d2 = 0 kills the lead and sharpens the
    # fiber at infinity
    rng = random.Random(222)
    done = 0
    while done < 8:
        params = sample_three_lines_params(rng)
        deficit, finite = star_chain_profile(params)
        if params.d2 == 0:
            assert deficit > 6
            done += 1
            continue
        assert deficit == 6
        assert finite.degree == 6
        expected_lead = (
            16 * (params.c1 + params.d2) ** 2 * params.c1**2 * params.d2**2
        )
        assert finite.coeff(6) == expected_lead
        done += 1


def test_three_lines_generic_configuration():
    rng = random.Random(223)
    done = 0
    while done < 5:
        params = sample_three_lines_params(rng)
        if params.d2 == 0 or not three_lines_generic(params):
            continue
        if star_chain_profile(params)[0] != 6:
            continue
        model = du.three_lines_cubic_model(params)
        cfg = fiber_configuration(model)
        assert cfg.summary() == {"I0*": 3, "I1": 6}
        assert cfg.euler_total == 24
        done += 1


def test_three_lines_sharpening_chain():
    rng = random.Random(224)
    cases = (
        (dict(d2=0), 7, {"I1*": 1, "I0*": 2, "I1": 5}),
        (dict(d2=0, e2=0), 8, {"I2*": 1, "I0*": 2, "I1": 4}),
        (dict(d2=0, e2=0, e1=0, d1=0), 9, {"I3*": 1, "I0*": 2, "I1": 3}),
    )
    for fixed, level, expected in cases:
        done = 0
        while done < 4:
            params = sample_three_lines_params(rng, **fixed)
            if star_chain_profile(params)[0] != level:
                continue
            if not three_lines_generic(params):
                continue
            cfg = fiber_configuration(du.three_lines_cubic_model(params))
            assert cfg.summary() == expected
            done += 1


def test_three_lines_last_step_needs_vanishing_d1():
    # with d1 != 0 the star at infinity stays one step lower
    rng = random.Random(225)
    done = 0
    while done < 4:
        params = sample_three_lines_params(rng, d2=0, e2=0, e1=0)
        if params.d1 == 0:
            continue
        deficit, _ = star_chain_profile(params)
        assert deficit == 8
        if not three_lines_generic(params):
            continue
        cfg = fiber_configuration(du.three_lines_cubic_model(params))
        assert cfg.summary() == {"I2*": 1, "I0*": 2, "I1": 4}
        done += 1


def test_normalization_roundtrip():
    rng = random.Random(226)
    done = 0
    while done < 10:
        params = sample_three_lines_params(rng)
        if params.c1 <= 0:
            continue
        sq, lin, cst = du.general_form_coefficients(params)
        back = du.normalize_three_i0star(params.mu, params.nu, sq, lin, cst)
        assert back == params
        done += 1


def test_normalization_mirror_branch():
    rng = random.Random(227)
    done = 0
    while done < 10:
        params = sample_three_lines_params(rng)
        if params.c1 >= 0:
            continue
        sq, lin, cst = du.general_form_coefficients(params)
        back = du.normalize_three_i0star(params.mu, params.nu, sq, lin, cst)
        assert back.c1 > 0
        assert du.three_lines_cubic_model(back) == du.three_lines_cubic_model(params)
        done += 1


def test_normalization_shifted_roundtrip():
    # forward-shift the image so the normalizer must find and undo it
    params = du.ThreeLinesCubicParams.of(0, 1, 2, 1, -1, 3, 2, 1, -2, 1)
    sq, lin, cst = du.general_form_coefficients(params)
    sq_f, lin_f, cst_f = du.shift_cubic_term(sq, lin, cst, -5)
    assert cst_f.coeffs[0] != 0
    back = du.normalize_three_i0star(0, 1, sq_f, lin_f, cst_f)
    assert back == params
    shift_form = homogenize(
        5 * UniPoly.of(0, 1) * UniPoly.of(0, 1, 1), ("t", "h"), 4
    )
    shifted_model = du.star_triple_model(0, 1, sq_f, lin_f, cst_f)
    assert shift_x(shifted_model, shift_form) == du.three_lines_cubic_model(params)


small_rational = st.fractions(min_value=-9, max_value=9, max_denominator=5)
PENCIL = ("t", "h")


def _pencil_forms(*rows):
    """The pinned-star data given by descending coefficient rows, as forms
    on the pencil coordinates."""
    return tuple(HomPoly.of(PENCIL, row) for row in rows)


def _unipoly_star_triple_model(mu, nu, sq, lin, cst):
    """(a2, a4, a6) built affinely in t from p = (t + mu)(t + nu) and the
    descending tuples, then lifted to the pencil at degrees 4, 8, 12."""
    pencil = UniPoly.of(mu * nu, mu + nu, 1)
    a2 = pencil * UniPoly.of(*reversed(sq))
    a4 = pencil**2 * UniPoly.of(*reversed(lin))
    a6 = pencil**3 * UniPoly.of(*reversed(cst))
    return tuple(homogenize(a, ("t", "h"), d) for a, d in ((a2, 4), (a4, 8), (a6, 12)))


@given(
    mu=small_rational,
    nu=small_rational,
    sq=st.lists(small_rational, min_size=2, max_size=2),
    lin=st.lists(small_rational, min_size=3, max_size=3),
    cst=st.lists(small_rational, min_size=4, max_size=4),
)
@example(
    mu=Fraction(1, 2), nu=Fraction(-2, 3), sq=[0, Fraction(1, 5)],
    lin=[Fraction(3, 4), 0, 0], cst=[0, 0, 0, Fraction(-7, 2)],
)
@settings(max_examples=60, deadline=None)
def test_star_triple_model_matches_the_affine_construction(mu, nu, sq, lin, cst):
    assume(mu != nu)
    model = du.star_triple_model(mu, nu, *_pencil_forms(sq, lin, cst))
    want = _unipoly_star_triple_model(mu, nu, sq, lin, cst)
    for got, form in zip((model.a2, model.a4, model.a6), want):
        assert (got.vars, got.num, got.den) == (form.vars, form.num, form.den)
    assert model.weight == 2


def test_normalization_error_gates():
    with pytest.raises(du.NoRationalCubicRoot):
        du.normalize_three_i0star(0, 1, *_pencil_forms((1, 0), (0, 0, 0), (1, 0, 0, 7)))
    with pytest.raises(du.NonSquareDiscriminant):
        du.normalize_three_i0star(0, 1, *_pencil_forms((1, 0), (-1, 0, 0), (0, 0, 0, 0)))
    with pytest.raises(du.ParameterConstraintViolated):
        du.normalize_three_i0star(0, 0, *_pencil_forms((1, 0), (0, 0, 0), (0, 0, 0, 0)))
    with pytest.raises(du.ParameterConstraintViolated):
        du.normalize_three_i0star(0, 1, *_pencil_forms((0, 5), (0, 1, 2), (0, 1, 2, 3)))


@pytest.mark.parametrize("slot", range(3))
@pytest.mark.parametrize("fault", ["degree", "pair"])
def test_pinned_star_data_must_be_pencil_forms_of_degrees_one_two_three(slot, fault):
    forms = list(_pencil_forms((1, 0), (0, 0, 0), (0, 0, 0, 0)))
    form = forms[slot]
    forms[slot] = HomPoly.of(PENCIL, form.coeffs + (0,)) if fault == "degree" else form.rename(ST)
    sq, lin, cst = forms
    with pytest.raises(DegreeMismatch):
        du.star_triple_model(0, 1, sq, lin, cst)
    with pytest.raises(DegreeMismatch):
        du.shift_cubic_term(sq, lin, cst, 1)
    with pytest.raises(DegreeMismatch):
        du.normalize_three_i0star(0, 1, sq, lin, cst)


def _twelve_formula_shift(sq, lin, cst, r):
    """The shift x -> x + r t (t + mu)(t + nu) on descending coefficient
    tuples, written out coefficient by coefficient."""
    c1, c0 = sq
    d2, d1, d0 = lin
    e3, e2, e1, e0 = cst
    new_sq = (c1 + 3 * r, c0)
    new_lin = (d2 + 2 * r * c1 + 3 * r * r, d1 + 2 * r * c0, d0)
    new_cst = (
        e3 + r**3 + r * r * c1 + r * d2,
        e2 + r * r * c0 + r * d1,
        e1 + r * d0,
        e0,
    )
    return new_sq, new_lin, new_cst


_STAR_ROWS = st.tuples(
    st.lists(small_rational, min_size=2, max_size=2),
    st.lists(small_rational, min_size=3, max_size=3),
    st.lists(small_rational, min_size=4, max_size=4),
)


@given(rows=_STAR_ROWS, rho=small_rational)
@example(rows=([0, 0], [0, 0, 0], [0, 0, 0, 0]), rho=Fraction(-7, 3))
@settings(max_examples=80, deadline=None)
def test_the_shift_on_forms_matches_the_coefficient_formulas(rows, rho):
    got = du.shift_cubic_term(*_pencil_forms(*rows), rho)
    want = _twelve_formula_shift(*rows, rho)
    assert [form.coeffs for form in got] == [tuple(row) for row in want]
    assert all(form.vars == PENCIL for form in got)


@given(rows=_STAR_ROWS, rho1=small_rational, rho2=small_rational)
@settings(max_examples=60, deadline=None)
def test_shifts_compose_by_adding_their_parameters(rows, rho1, rho2):
    forms = _pencil_forms(*rows)
    assert du.shift_cubic_term(*forms, 0) == forms
    twice = du.shift_cubic_term(*du.shift_cubic_term(*forms, rho1), rho2)
    assert twice == du.shift_cubic_term(*forms, rho1 + rho2)


# ---------------------------------------------------------------------------
# the refibration of a quadruple cover


def test_refibration_generic_draw_fails_square_gate():
    rows = ((1, 2, 3, 5), (2, -1, 1, 4), (0, 1, 1, -3), (1, 1, -2, 1))
    with pytest.raises(du.NonSquareDiscriminant):
        du.refibration_jacobian(*du.bilinear_quadruple_surface(rows))


def test_refibration_chart_gate():
    rows = ((1, 2, 3, 5), (2, -1, 1, 4), (0, 1, 1, -3), (1, 1, -2, 1))
    with pytest.raises(du.ParameterConstraintViolated):
        du.refibration_jacobian(*du.bilinear_quadruple_surface(rows), 3, 3)


def test_refibration_matches_full_torsion_route():
    rng = random.Random(228)
    for _ in range(5):
        b, c = du.bilinear_quadruple_surface(sample_refiber_quadruple(rng))
        rj = du.refibration_jacobian(b, c)
        tor = du.full_torsion_surfaces(b + c, b - c)
        assert rj.f == tor["f"]
        assert rj.g == tor["g"]
        assert (rj.params.mu, rj.params.nu) == (0, 1)
        other = du.refibration_jacobian(b, c, 2, 5)
        assert (other.f, other.g) == (rj.f, rj.g)
        assert (other.params.mu, other.params.nu) == (2, 5)


def test_refibration_star_configuration():
    rng = random.Random(229)
    done = 0
    while done < 3:
        rj = du.refibration_jacobian(*du.bilinear_quadruple_surface(sample_refiber_quadruple(rng)))
        if not three_lines_generic(rj.params):
            continue
        if star_chain_profile(rj.params)[0] != 6:
            continue
        cfg = fiber_configuration(rj.model)
        assert cfg.summary() == {"I0*": 3, "I1": 6}
        done += 1


# ---------------------------------------------------------------------------
# the shared subfamily tower


def test_subfamily_gates():
    f = HomPoly.of(UV, (2, -1, 3))
    g = HomPoly.of(UV, (1, 0, -2, 1))
    with pytest.raises(ValueError):
        du.subfamily_models("bogus", f, g)
    with pytest.raises(DegreeMismatch):
        du.subfamily_models("twist", g, g)
    with pytest.raises(DegenerateModel):
        du.subfamily_models("twist", HomPoly.of(UV, (-3, 0, 0)), HomPoly.of(UV, (2, 0, 0, 0)))


def test_an_unknown_kind_raises_its_named_error():
    # not a bare ValueError, and never a KeyError from the table of kinds
    f = HomPoly.of(UV, (2, -1, 3))
    g = HomPoly.of(UV, (1, 0, -2, 1))
    triple = sample_correspondence_triple(random.Random(334))
    assert issubclass(du.UnknownKind, ValueError)
    for build in (
        lambda: du.subfamily_models("bogus", f, g),
        lambda: du.correspondence_models("bogus", *triple),
        lambda: du.correspondence_models("cad", *triple),
    ):
        with pytest.raises(du.UnknownKind, match="unknown kind"):
            build()


def test_subfamily_configurations_and_places():
    rng = random.Random(230)
    done = 0
    while done < 5:
        f = random_form(rng, UV, 2, -6, 6)
        g = random_form(rng, UV, 3, -6, 6)
        if (4 * f**3 + 27 * g**2).is_zero:
            continue
        if not full_torsion_tower_generic(f, g):
            continue
        cover4 = du.subfamily_models("cover4", f, g)
        assert fiber_configuration(cover4).summary() == {"I1": 24}
        cover2 = du.subfamily_models("cover2", f, g)
        cfg2 = fiber_configuration(cover2)
        assert cfg2.summary() == {"I0*": 2, "I1": 12}
        assert label_product(cfg2, "I0*") == HomPoly.of(uv, (1, 0, -1))
        twist = du.subfamily_models("twist", f, g)
        cfg_t = fiber_configuration(twist)
        assert cfg_t.summary() == {"I0*": 3, "I1": 6}
        u_q = HomPoly.var_power(UV, 0, 1)
        v_q = HomPoly.var_power(UV, 1, 1)
        assert label_product(cfg_t, "I0*") == u_q * v_q * (u_q - v_q)
        rational = du.subfamily_models("rational", f, g)
        assert rational.weight == 1
        cfg_r = fiber_configuration(rational)
        assert cfg_r.summary() == {"I0*": 1, "I1": 6}
        assert cfg_r.euler_total == 12
        assert label_product(cfg_r, "I0*") == HomPoly.of(UV, (1, -1))
        done += 1


def test_subfamily_models_match_their_formulas_pointwise():
    rng = random.Random(244)
    for _ in range(5):
        f = random_form(rng, UV, 2, -6, 6)
        g = random_form(rng, UV, 3, -6, 6)
        if (4 * f**3 + 27 * g**2).is_zero:
            continue
        for kind in _SUBFAMILY_AT:
            _check_short_model(du.subfamily_models(kind, f, g), kind, f, g, rng)


# ---------------------------------------------------------------------------
# the public chart-restriction helper


def test_line_restriction_roundtrip():
    rng = random.Random(231)
    for degree in range(5):
        for _ in range(10):
            form = random_form(rng, UV, degree, -9, 9)
            mu, nu = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
            if mu == nu:
                continue
            # recover the restriction x -> form(x + mu, x + nu) exactly
            # through interpolation, then invert it
            xs = [Fraction(k) for k in range(degree + 1)]
            values = [form(x + mu, x + nu) for x in xs]
            poly = _interpolate(xs, values)
            lifted = homogenize(poly, ST, degree)
            recovered = du.form_from_line_restriction(lifted, mu, nu)
            assert recovered == form


def _interpolate(xs, values):
    total = UniPoly.zero()
    for i, (xi, vi) in enumerate(zip(xs, values)):
        term = UniPoly.of(vi)
        for j, xj in enumerate(xs):
            if i == j:
                continue
            term = term * UniPoly.of(-xj, 1) * Fraction(1, (xi - xj))
        total = total + term
    return total


def test_line_restriction_gates():
    p = HomPoly.of(ST, (1, 2, 1))
    with pytest.raises(du.ParameterConstraintViolated):
        du.form_from_line_restriction(p, 3, 3)
