"""Tests for the scenario harness and command-line entry point.

Covers the bundled corpus, report statuses and exit codes, the
byte-stability of the JSON emitter, pinned report digests of every
bundled scenario, the sampler draw budget, and the expected-error
convention.  The scenario grammar is tested in ``test_scenario``.
"""

import collections
import contextlib
import hashlib
import io
import itertools
import json
import random
import time

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from corpus import affine
from ellsurf import cli, elliptic, exactpoly, hermite_aj
from ellsurf import duality as du
from ellsurf.elliptic import DegenerateModel, invariants
from ellsurf.exactpoly import (
    HomPoly,
    UniPoly,
    divexact_form,
    homogenize,
    is_separable,
)
from ellsurf.scenario import ParseError, Scenario, parse_scenario


def parse(text: str, source: str = "inline.scn") -> Scenario:
    return parse_scenario(text, source)


def call_main(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


LATTICE_PAIR = """
name tiny-pair
kind lattice-identity
lattice first = H + E8(-2)
lattice second = H(2) + N
expect match
"""

LATTICE_HEAD = "name x\nkind lattice-identity\n"

FIBER_SMALL = """
name tiny-base
kind fiber-config
family rational-base
trials 2
expect fibers 12*I1
expect euler 12
"""



# ---------------------------------------------------------------------------
# bundled corpus


def test_bundled_corpus_parses_and_is_sorted():
    bundle = cli.bundled_scenarios()
    names = [sc.name for sc in bundle]
    assert len(bundle) == 43
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_bundled_corpus_covers_every_kind():
    kinds = {sc.kind for sc in cli.bundled_scenarios()}
    assert kinds == {
        "fiber-config",
        "lattice-identity",
        "hermite-identity",
        "construction-roundtrip",
        "table-consistency",
    }


# ---------------------------------------------------------------------------
# running scenarios


def test_run_lattice_pass_and_artifacts():
    sc = parse(LATTICE_PAIR)
    rep = cli.run(sc, seed=3)
    assert rep.status == "pass"
    assert rep.ok
    assert "lattices" in rep.artifacts
    assert rep.artifacts["lattices"]["first"]["determinant"] == -256


def test_run_lattice_invariant_failure_names_the_lattice():
    sc = parse(
        """
        name wrong-det
        kind lattice-identity
        lattice only = H + E8(-2)
        expect det 64
        """
    )
    rep = cli.run(sc, seed=3)
    assert rep.status == "fail"
    assert not rep.ok
    assert "determinant" in rep.detail


def test_run_fiber_failure_reports_table():
    sc = parse(
        """
        name wrong-counts
        kind fiber-config
        family rational-base
        trials 1
        expect fibers 3*I2
        """
    )
    rep = cli.run(sc, seed=3)
    assert rep.status == "fail"
    assert "fiber counts" in rep.detail
    rows = rep.artifacts["fiber_table"]
    assert rows and set(rows[0]) == {
        "factor", "v_c4", "v_c6", "v_delta", "type", "count",
    }


def test_run_lattice_parity_failure_names_the_lattice():
    sc = parse(LATTICE_HEAD + "lattice a = H\nexpect odd\n")
    rep = cli.run(sc, seed=3)
    assert rep.status == "fail"
    assert rep.detail == "lattice a is not odd"
    assert rep.artifacts["lattices"]["a"]["even"] is True


def test_run_lattice_mismatch_keeps_the_pairs_compared_so_far():
    sc = parse(
        LATTICE_HEAD
        + "lattice a = H + E8(-2)\nlattice b = H(2) + N\nlattice c = H\nexpect match\n"
    )
    rep = cli.run(sc, seed=3)
    assert rep.status == "fail"
    assert rep.detail == "lattices a and c should be equivalent"
    # the run stops at the first inequivalent pair, so b~c is never compared
    assert rep.artifacts["pairs"] == {"a~b": True, "a~c": False}


def test_run_fiber_euler_failure_reports_table():
    sc = parse(FIBER_SMALL.replace("expect euler 12", "expect euler 24"))
    rep = cli.run(sc, seed=3)
    assert rep.status == "fail"
    assert "Euler number 12 instead of 24" in rep.detail
    assert sum(row["count"] for row in rep.artifacts["fiber_table"]) == 12


def test_run_renders_only_the_kept_witness(monkeypatch):
    # every trial checks its fibers, but only the first trial's witness is
    # kept, so only its fiber table is built
    configs = []
    real = cli._fiber_table
    monkeypatch.setattr(cli, "_fiber_table", lambda cfg: configs.append(cfg) or real(cfg))
    (pencil,) = [sc for sc in cli.bundled_scenarios() if sc.name == "rational-base-pencil"]
    rep = cli.run(pencil, seed=0, trials_override=8)
    assert (rep.status, rep.trials) == ("pass", 8)
    assert len(configs) == 1
    assert rep.artifacts["first_instance"]["places"] == real(configs[0])


def test_the_fibers_checks_compute_each_models_invariants_once(monkeypatch):
    # a chain model reaches the fiber classification as the model its gate
    # accepted, a tower member keeps the invariants its builder checked,
    # and the correspondence checks build no branch form
    computed = collections.Counter()
    branch_forms = collections.Counter()
    rows, tensor_forms = elliptic._invariant_rows, exactpoly.tensor_forms
    current = None

    def counted_rows(a2, a4, a6):
        computed[a2, a4, a6] += 1
        return rows(a2, a4, a6)

    def counted_tensor_forms(p, q):
        branch_forms[current] += 1
        return tensor_forms(p, q)

    monkeypatch.setattr(elliptic, "_invariant_rows", counted_rows)
    for module in (exactpoly, du, hermite_aj, cli):
        monkeypatch.setattr(module, "tensor_forms", counted_tensor_forms)
    names = ("star-chain-two", "tower-fourfold-fibers", "correspondence-cover-fibers")
    for sc in cli.bundled_scenarios():
        if sc.name in names:
            current = sc.name
            assert cli.run(sc, seed=0).status == "pass"
    assert computed and set(computed.values()) == {1}
    assert branch_forms["correspondence-cover-fibers"] == 0


# models built per trial by checks that read part of a duality table:
# a correspondence-*-fibers trial builds the two models it classifies, not
# the twelve of correspondence_surfaces; a full-torsion-alternate trial the
# two-torsion model alone, and no short model of the Jacobian tower; a
# quadruple-cover trial the one model of the torsion pair it accepted;
# refibration-match and refibered-pencil-stars, which read the torsion
# pair, no two-torsion model and no short model; and extraction-identity
# one ruling swap, for the cover it reads whole
_BUILT_PER_TRIAL = {
    "correspondence-cover-fibers": {"model": 2, "short": 0},
    "correspondence-quotient-fibers": {"model": 2, "short": 0},
    "correspondence-rational-fibers": {"model": 2, "short": 0},
    "full-torsion-alternate-fibers": {"model": 1, "short": 0},
    "quadruple-cover-fibers": {"model": 1},
    "refibration-match": {"model": 0, "short": 0},
    "refibered-pencil-stars": {"model": 0},
    "extraction-identity": {"ruling_swap": 1},
}


def test_the_checks_build_only_the_models_they_read(monkeypatch):
    calls = collections.Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(du.AlternatePair, "model", counted("model", du.AlternatePair.model))
    short = counted("short", elliptic.WeierstrassModel.short)
    monkeypatch.setattr(elliptic.WeierstrassModel, "short", staticmethod(short))
    monkeypatch.setattr(du, "ruling_swap", counted("ruling_swap", du.ruling_swap))
    bundle = {sc.name: sc for sc in cli.bundled_scenarios()}
    for name, per_trial in _BUILT_PER_TRIAL.items():
        calls.clear()
        rep = cli.run(bundle[name], seed=0)
        assert rep.status == "pass", name
        built = {what: calls[what] / rep.trials for what in per_trial}
        assert built == per_trial, name


def test_the_refibered_pencil_classifies_the_model_it_gated(monkeypatch):
    # each draw's gate reads the refibration's own model, whose invariants
    # the fiber classification of the accepted draw then reuses
    calls = collections.Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(elliptic, "_invariant_rows", counted("rows", elliptic._invariant_rows))
    for name in ("three_lines_cubic_model", "refibration_jacobian"):
        monkeypatch.setattr(du, name, counted(name, getattr(du, name)))
    (sc,) = [sc for sc in cli.bundled_scenarios() if sc.name == "refibered-pencil-stars"]
    assert cli.run(sc, seed=0).status == "pass"
    assert calls["three_lines_cubic_model"] == 0
    assert calls["refibration_jacobian"] > 0
    assert calls["rows"] == calls["refibration_jacobian"]


def test_run_failure_details_name_the_trial(monkeypatch):
    sc = parse(
        "name wrong-counts\nkind fiber-config\nfamily rational-base\n"
        "trials 2\nexpect fibers 3*I2\n"
    )
    rep = cli.run(sc, seed=3)
    assert rep.detail == (
        "trial 0 (rational elliptic surface): fiber counts 12*I1 instead of 3*I2"
    )
    monkeypatch.setattr(cli, "j_invariant_22", lambda b: None)
    bundle = cli.bundled_scenarios()
    (fiberwise,) = [sc for sc in bundle if sc.name == "fiberwise-j-match"]
    rep = cli.run(fiberwise, seed=3, trials_override=2)
    assert rep.status == "fail"
    assert rep.detail == "trial 0: the two j-invariants differ"
    assert set(rep.artifacts) == {"quartic", "xi"}


def test_run_discriminant_relation_failure_names_the_trial(monkeypatch):
    real = hermite_aj.jacobian_quartic

    def shifted(h):
        cubic = real(h)
        return hermite_aj.ShortCubic(cubic.f, cubic.g + 1)

    monkeypatch.setattr(hermite_aj, "jacobian_quartic", shifted)
    (relation,) = [
        sc for sc in cli.bundled_scenarios() if sc.name == "discriminant-relation"
    ]
    rep = cli.run(relation, seed=0, trials_override=2)
    assert rep.status == "fail"
    assert rep.detail == (
        "trial 0: resolvent discriminant is not g^2 times the quartic one"
    )
    assert set(rep.artifacts) == {"quartic"}


def test_run_coupling_product_failure_names_the_first_failing_anchor(monkeypatch):
    real = cli.tensor_forms
    # (x + 2)^2 (x + 1)^2 (x0 + 2)^2 (x0 + 1)^2 is symmetric and vanishes,
    # for every x, at the anchors -2 and -1 and at no other anchor.  Added
    # to the right-hand side P(x)*P(x0), it is out of sight of the checks
    # on the diagonals, which read the coupling data and the quartic only
    roots = HomPoly.of(("U", "V"), (1, 3, 2)) ** 2
    bump = real(roots, roots.rename(("S", "T")))

    def perturbed(p, q):
        return real(p, q) + bump

    monkeypatch.setattr(cli, "tensor_forms", perturbed)
    (coupling,) = [sc for sc in cli.bundled_scenarios() if sc.name == "coupling-product"]
    rep = cli.run(coupling, seed=0, trials_override=2)
    assert rep.status == "fail"
    assert rep.detail == "trial 0: product identity failed at anchor 0"
    assert set(rep.artifacts) == {"quartic"}


def test_run_coupling_product_failure_carries_the_quartic(monkeypatch):
    (coupling,) = [sc for sc in cli.bundled_scenarios() if sc.name == "coupling-product"]
    passed = cli.run(coupling, seed=0, trials_override=1)
    real = cli.form_partials
    # doubled partials scale the Hessian by 16, off the cofactor diagonal
    monkeypatch.setattr(cli, "form_partials", lambda form: tuple(2 * d for d in real(form)))
    rep = cli.run(coupling, seed=0, trials_override=2)
    assert rep.status == "fail"
    assert rep.detail == "trial 0: cofactor diagonal formula failed"
    assert rep.artifacts == passed.artifacts["first_instance"]
    assert set(rep.artifacts) == {"quartic"}


def _coupling_sides(n) -> list[Fraction]:
    """The coefficients of both sides of the coupling-product identities, as
    ``cli._coupling_product`` forms them, for the quartic with entries ``n``."""
    h = hermite_aj.QuarticCurve.of(*n)
    pairing, cofactor = hermite_aj.correspondence_polys(h)
    (f_uu, f_uv), (_, f_vv) = (
        exactpoly.form_partials(d) for d in exactpoly.form_partials(h.form)
    )
    forms = [pairing.diagonal(), h.form, 36 * cofactor.diagonal(), f_uu * f_vv - f_uv * f_uv]
    products = [
        pairing * pairing + cofactor * hermite_aj.SEPARATION_SQUARE,
        exactpoly.tensor_forms(h.form, h.form.rename(pairing.vars2)),
    ]
    return [c for f in forms for c in f.coeffs] + [
        Fraction(n, b.den) for b in products for row in b.num for n in row
    ]


def test_coupling_product_holds_on_the_grid_that_proves_it(monkeypatch):
    # both sides have degree at most 2 in each entry n0..n4 (pinned below),
    # so by the grid lemma (Alon 1999, Lemma 2.1) passing on {-1, 0, 1}^5
    # makes each identity a polynomial identity: it holds for every
    # rational quartic, and no random trial can fail
    grid = itertools.product((-1, 0, 1), repeat=5)
    monkeypatch.setattr(cli, "_random_quartic", lambda rng: hermite_aj.QuarticCurve.of(*next(grid)))
    for _ in range(3**5):
        cli._coupling_product(None, None)
    assert next(grid, None) is None


def test_coupling_product_sides_have_degree_two_along_lines():
    # a coefficient of degree at most 2 in n is quadratic in t along
    # n(t) = p + t*v, so its third finite difference vanishes
    rng = random.Random(17)
    for _ in range(20):
        p, v = ([rng.randint(-9, 9) for _ in range(5)] for _ in range(2))
        values = [_coupling_sides([a + t * b for a, b in zip(p, v)]) for t in range(4)]
        for c0, c1, c2, c3 in zip(*values):
            assert c3 - 3 * c2 + 3 * c1 - c0 == 0, (p, v)


def test_run_trials_override_wins():
    sc = parse(FIBER_SMALL)
    rep = cli.run(sc, seed=3, trials_override=1)
    assert rep.status == "pass"
    assert rep.trials == 1


def test_run_expected_error_counts_as_ok():
    gate = [
        sc for sc in cli.bundled_scenarios() if sc.name == "singular-quartic-gate"
    ][0]
    rep = cli.run(gate, seed=3)
    assert rep.status == "error"
    assert rep.error["expected"] is True
    assert rep.error["type"] == "SingularCurve"
    assert rep.ok


def test_run_unexpected_error_is_not_ok():
    sc = parse(
        """
        name wrong-gate
        kind hermite-identity
        family quartic-double-cover
        rat a0 = 0
        rat a1 = 0
        rat a2 = -1
        rat xi = 1
        rat c0 = 2
        rat c_inf = 3
        expect error DegenerateModel
        """
    )
    rep = cli.run(sc, seed=3)
    assert rep.status == "error"
    assert rep.error["expected"] is False
    assert not rep.ok


def test_run_missing_expected_error_fails():
    sc = parse(
        """
        name missing-gate
        kind hermite-identity
        family quartic-double-cover
        rat a0 = 1
        rat a1 = 2
        rat a2 = 0
        rat xi = 3
        rat c0 = 1/2
        rat c_inf = 3
        expect error SingularCurve
        """
    )
    rep = cli.run(sc, seed=3)
    assert rep.status == "fail"
    assert "SingularCurve" in rep.detail


def test_draw_gives_up_after_the_budget():
    attempts = []
    with pytest.raises(cli.SamplerExhausted):
        cli._draw(lambda: attempts.append(1) or len(attempts), lambda n: False)
    assert len(attempts) == cli.DRAW_BUDGET
    assert cli._draw(lambda: 0, lambda n: True) == 0


def test_run_reports_an_exhausted_sampler_as_an_error(monkeypatch):
    # no drawn pair of forms makes a rational surface; without a budget the
    # sampler would retry forever
    def refuse(f, g):
        raise ValueError("refused")

    monkeypatch.setattr(cli.du, "RESData", refuse)
    rep = cli.run(parse(FIBER_SMALL), seed=3)
    assert rep.status == "error"
    assert rep.error["type"] == "SamplerExhausted"
    assert not rep.ok


def test_scenario_rng_is_name_keyed():
    a = cli._scenario_rng(7, "alpha").random()
    b = cli._scenario_rng(7, "alpha").random()
    c = cli._scenario_rng(7, "beta").random()
    d = cli._scenario_rng(8, "alpha").random()
    assert a == b
    assert a != c and a != d


def _affine_at_chain_level(params: du.ThreeLinesCubicParams, level: int) -> bool:
    """The chain-level test read affinely: the finite factor as a
    polynomial in t, its level the drop of its degree below 12."""
    try:
        delta = invariants(du.three_lines_cubic_model(params))[2]
    except DegenerateModel:
        return False
    stars = (UniPoly.of(params.mu, 1) ** 6) * (UniPoly.of(params.nu, 1) ** 6)
    finite = affine(divexact_form(delta, homogenize(stars, delta.vars, 12)))
    if 12 - finite.degree != level:
        return False
    if finite.is_zero or not is_separable(homogenize(finite, delta.vars, finite.degree)):
        return False
    return finite(-params.mu) != 0 and finite(-params.nu) != 0


_LINE_CUBIC_NAMES = ("mu", "nu", "c0", "c1", "d0", "d1", "d2", "e0", "e1", "e2")
# zero half the time, so the chain zeros d2, e2, e1, d1 come up
_chain_entry = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=3)
)


@given(values=st.tuples(*(_chain_entry,) * 10))
@example(values=(4, -1, 0, 5, 3, -5, 2, -2, 5, -5))
@example(values=(-5, -2, 1, -1, -3, 1, 0, -4, -3, 4))
@example(values=(-1, 0, -2, 3, 5, 5, 0, -3, -2, 0))
@example(values=(2, 0, -3, 2, 2, 0, 0, -1, 0, 0))
@example(values=(Fraction(1, 2), -3, Fraction(2, 3), Fraction(-1, 2), 1, 0, 0, 2, 0, 0))
@settings(max_examples=60, deadline=None)
def test_chain_level_matches_the_affine_reading(values):
    try:
        params = du.ThreeLinesCubicParams.of(**dict(zip(_LINE_CUBIC_NAMES, values)))
    except du.ParameterConstraintViolated:
        assume(False)
    model = du.three_lines_cubic_model(params)
    for level in range(13):
        gated = cli._at_chain_level(model, params.mu, params.nu, level)
        assert gated == _affine_at_chain_level(params, level)


# ---------------------------------------------------------------------------
# report emission


def cheap_reports(seed: int):
    keep = {
        "polarization-classes",
        "rank12-selfglue-profile",
        "frozen-torsion-pair",
        "jacobian-image-anchor",
        "singular-quartic-gate",
    }
    chosen = [sc for sc in cli.bundled_scenarios() if sc.name in keep]
    assert len(chosen) == len(keep)
    return cli.run_suite(chosen, seed)


def test_emit_json_is_byte_stable():
    first = cli.emit_json(cheap_reports(7), 7)
    second = cli.emit_json(cheap_reports(7), 7)
    assert first == second
    assert first.encode() == second.encode()


def test_emit_json_schema():
    doc = json.loads(cli.emit_json(cheap_reports(7), 7))
    assert doc["schema_version"] == 1
    assert doc["seed"] == 7
    assert doc["ok"] is True
    assert doc["counts"] == {"pass": 4, "fail": 0, "error": 1}
    names = [entry["name"] for entry in doc["scenarios"]]
    assert names == sorted(names)
    for entry in doc["scenarios"]:
        assert set(entry) == {
            "name", "kind", "family", "status", "trials",
            "detail", "error", "artifacts",
        }
    gate = [e for e in doc["scenarios"] if e["name"] == "singular-quartic-gate"][0]
    assert gate["status"] == "error"
    assert gate["error"]["expected"] is True


def test_emit_json_carries_no_timing():
    text = cli.emit_json(cheap_reports(7), 7)
    assert "wall" not in text and "ms" not in json.loads(text)


# sha256 prefixes of emit_json for one scenario at root seeds 0-3, recorded
# before the exact primitives moved into exactpoly.  The scenarios are the
# ones that run through the rewired cubic roots, square root, form
# resultant, linear solve and determinant; a kernel change that alters any
# of their reports fails here even when the run is byte-stable.
_PINNED_DIGESTS = {
    "fiberwise-j-match": (
        "61f2f2da681b3bdc", "df1d76cb3b42fb4b",
        "9e33f72e931a786b", "71fc89101faab279",
    ),
    "glued-cover-lattice": (
        "5b2446d64eee2422", "409ac46f5bc02bae",
        "e0c4c0895260f327", "76aa2f0969b26abb",
    ),
    "nikulin-rank8-profile": (
        "7029bd1a4ab2eca7", "acd32a7c6328a847",
        "465c072240402fad", "53b03d2a8f497e24",
    ),
    "normalize-roundtrip": (
        "fdde760fd3bbfd5a", "3d6c11a2f6fa7301",
        "0d86e68a7997f636", "f17e5925b4dca0db",
    ),
    "polarization-classes": (
        "07467851bab5cf67", "10e83ac47880716c",
        "f925dac459b048d1", "2843a25ce6e21c51",
    ),
    "polarization-even-profile": (
        "e90da9013616898e", "af34c1b4f988333d",
        "9fbad0377da1a83e", "19f56729d81046b4",
    ),
    "polarization-odd-profile": (
        "c71b2c545da311d1", "2a01b9fa6521e48e",
        "4be85fd144f8e1a6", "8fda44ae3e958bad",
    ),
    "quadruple-cover-fibers": (
        "17f413097465177e", "6d0f5080ce24046c",
        "6bc0c6db1a062b60", "5c1f6c54e9225f2a",
    ),
    "rank10-lattice-match": (
        "f74a1898668edf0c", "7f7df71be1cf827c",
        "fe8d5a2bf9058efd", "24b4690887e155da",
    ),
    "rank12-selfglue-profile": (
        "55acba166d647ffa", "2cf3097b1af1ec80",
        "12cb5d3543e179b9", "2d333b138d6003e8",
    ),
    "rank14-lattice-chain": (
        "80d49561a74d3d53", "d345c147059522be",
        "a9d11e6c4742d650", "aaed77ec648226de",
    ),
    "refibered-pencil-stars": (
        "8db2fd19c8d3a0ee", "1eb53059e65bd832",
        "847b72b59ccf2c9a", "bc0aa283695b3e4a",
    ),
    "refibration-match": (
        "f918dec66798b213", "35f7c0848618dac8",
        "900090ec720d2f9d", "318d4868cda49b7b",
    ),
    "star-chain-one": (
        "c6dffa5c2ddf5603", "7df4c0af0642794e",
        "761a8198fa8374f8", "14a579d4a5174016",
    ),
    "star-chain-three": (
        "686887bf575d9dd0", "177846e665eed35d",
        "17e698df2965e204", "0d1ed4fab53242cb",
    ),
    "star-chain-two": (
        "73da718fb67dafe5", "aedadd0ab84f966b",
        "af92888fe8cfa567", "85e16c08d1141799",
    ),
    "three-lines-stars": (
        "de61779b340e4c8c", "fe1a2ea4d4c08173",
        "9a5905e7162cba50", "b3d4def1390311a6",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_DIGESTS))
def test_emit_json_digest_is_pinned(name):
    (scenario,) = [sc for sc in cli.bundled_scenarios() if sc.name == name]
    for seed, expected in enumerate(_PINNED_DIGESTS[name]):
        text = cli.emit_json(cli.run_suite([scenario], seed), seed)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == expected, seed


# sha256 prefixes of emit_json for every other bundled scenario at root
# seeds 0-4 with two trials, recorded before the families moved onto one
# driver.  The second trial runs through the driver's witness and counter
# logic (first_instance, mirror_branch_trials) after a trial has passed.
_PINNED_TWO_TRIAL_DIGESTS = {
    "correspondence-cover-fibers": (
        "b2fd10eb25ca9daf", "f02296deba31a751", "21bc16d100cd99a4",
        "f43e630d1298a4fd", "0d9e02c20b8af97e",
    ),
    "correspondence-quotient-fibers": (
        "02e488702b891f0c", "14d874bf886e9981", "d7708688065146eb",
        "a4134fb8925b1c86", "2968f06327a90ff6",
    ),
    "correspondence-rational-fibers": (
        "023d84c899ffa75c", "8d947b52cce908f6", "48fcb3a48182aed9",
        "a99c88dd199fd3fd", "1b4c9f86449afa52",
    ),
    "correspondence-routes": (
        "48c4d7361fc6ec51", "d1f5db21d8a14f24", "a930165f90055b63",
        "227ac1089638d54d", "f6443fe98eb0925b",
    ),
    "coupling-product": (
        "76ea4f3d99e15904", "0014ad248c0ad857", "f4aab11ce8a1e9b1",
        "ca3bd57568d77f93", "76323878538bc93e",
    ),
    "deformation-discriminant": (
        "ed3b99c0bc805480", "9c3754f4c8a0fafe", "96d91f121d6f2d0f",
        "bcf4dab46e24b6d9", "1752981f6c494749",
    ),
    "discriminant-relation": (
        "1fb56fd0a967544a", "459ef0e13bdad192", "b10a9fb4dd868e81",
        "aaed28d14da33ecf", "881a7c2571edd32d",
    ),
    "extraction-identity": (
        "9df232feb6437159", "0179524e0a39b0c8", "12f59a6e82480cab",
        "9159e0dd369e60ec", "33ed944e0a0c9990",
    ),
    "frozen-torsion-pair": (
        "27ec7964eee32756", "8fbe3a8ba777475b", "1286756d0dc30b36",
        "509f23ca531641b8", "a5cb40fd2da400e8",
    ),
    "full-torsion-alternate-fibers": (
        "c07a8d04ad17b63a", "d97bb6069ade2461", "fc03b3d2ff3329a4",
        "e78738029161b25e", "fc218bfc4e513225",
    ),
    "involution-square-scalar": (
        "a2dc65544879f767", "7ac24381e1af8c6a", "77ee59cf04677b29",
        "ceee8d4a2093fcb1", "5501657bfa356a7e",
    ),
    "isogeny-place-swap": (
        "3a4f4ecc6fa2bb48", "bd31a28b2501fe68", "1511b28a74722014",
        "dd3491e7b74f7bca", "8ec826c75223ee2b",
    ),
    "isogeny-square-scaling": (
        "094e90e52d4cdc79", "4cba280ca9a38d33", "0a6d7d02cb2cabfb",
        "6aff2961b0949996", "398555a3198d8c85",
    ),
    "jacobian-image": (
        "f9e17c10f05361f7", "4f8df8aac0d16460", "5a84a45586c18d4d",
        "6ead394076df7fb7", "7c6d188afd37520f",
    ),
    "jacobian-image-anchor": (
        "52ce0487c93dbe93", "65b2423dc43429d0", "bf4b13cbbbc58171",
        "8073dc5b360a26db", "d6d26dfe51afa9ed",
    ),
    "pullback-cover-fibers": (
        "c5d2cab3fdfed305", "038948df17275464", "9f0b2465e35d8f7e",
        "1b584c3f5f07891d", "4da1f4cf92ab4217",
    ),
    "quartic-double-cover": (
        "bae5427eb9ec609f", "371cfe09c129b371", "182a3198e103687a",
        "82233a204bb9ce93", "2e33c58b86b2e7a4",
    ),
    "rational-base-pencil": (
        "4884890cd62ccea0", "e9fed85d1fcccc00", "e65f5fd70b54f18d",
        "170af05a7c3b29c9", "701b215a4a23887f",
    ),
    "singular-quartic-gate": (
        "2ee06a30ac6a01fe", "28f81bd30138ed74", "ca8ea306e271c717",
        "0b1e5c49db9a3092", "4a97eb37bde35029",
    ),
    "torsion-pair-fibers": (
        "a82431ac88d7dfc3", "7b05873e8f4106c0", "d2532c1b77206d1a",
        "c1f9186c3ae8ee84", "4f98b815d8ab0bce",
    ),
    "torsion-tower-match": (
        "cd9215fff4594408", "c22231609c93227c", "ffb299daf9283dfd",
        "1f9552ec4a1bd4f8", "735dcdae753b48ad",
    ),
    "tower-double-cover-fibers": (
        "ca2ac44f8f6e2f82", "6c6861389c1fdc56", "cfd33d8eb901bc93",
        "bd5e1a2e07d66ccf", "84083ca868e11c6c",
    ),
    "tower-fourfold-fibers": (
        "90d160e475f6a396", "6d46141be64bb840", "bc4721495dbb52f5",
        "ee3de18fd8a41b0d", "359472a0dfabede7",
    ),
    "tower-rational-fibers": (
        "2ffadeef10a00e2b", "c80a415b8e9a1c37", "03496039f4bf7022",
        "323b8763b6548139", "8da63b6af9bee68e",
    ),
    "tower-twisted-fibers": (
        "359db3a8f0b8c31b", "dde6ac78ae02decc", "da3082a964a0a292",
        "2ddcaef588d91584", "985b78a1b0c6da8b",
    ),
    "twist-pencil-stars": (
        "d007e52965fc59ef", "b8534e31d9f0fde4", "61f5c369f084d417",
        "1dc79e2907d002fa", "2e8062bc25a408a7",
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED_TWO_TRIAL_DIGESTS))
def test_emit_json_two_trial_digest_is_pinned(name):
    (scenario,) = [sc for sc in cli.bundled_scenarios() if sc.name == name]
    for seed, expected in enumerate(_PINNED_TWO_TRIAL_DIGESTS[name]):
        text = cli.emit_json(cli.run_suite([scenario], seed, 2), seed)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == expected, seed


@pytest.mark.parametrize(
    "seed, prefix",
    enumerate(("bd0515e66fb0", "75538314a6ab", "29aee4fcdc72", "ea5f33ae5c15", "21ffbe851d77")),
)
def test_verify_all_json_digest_is_pinned(seed, prefix):
    # the whole bundle at its own trial counts, which the digests above pin
    # for most scenarios only at two trials
    code, out, _ = call_main(["verify", "--all", "--format", "json", "--seed", str(seed)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == prefix


def test_pinned_digests_cover_the_bundle():
    pinned = set(_PINNED_DIGESTS) | set(_PINNED_TWO_TRIAL_DIGESTS)
    assert pinned == {sc.name for sc in cli.bundled_scenarios()}


def test_emit_json_fiber_places_schema():
    doc = json.loads(cli.emit_json(cheap_reports(7), 7))
    frozen = [e for e in doc["scenarios"] if e["name"] == "frozen-torsion-pair"][0]
    places = frozen["artifacts"]["first_instance"]["places"]
    assert {p["type"]: p["count"] for p in places} == {"I1": 8, "I2": 8}
    for place in places:
        assert set(place) == {"factor", "v_c4", "v_c6", "v_delta", "type", "count"}


def test_emit_text_layout():
    reports = cheap_reports(7)
    text = cli.emit_text(reports, 7)
    assert text.splitlines()[0] == "ellsurf verify: 5 scenarios, seed 7"
    assert "[error*]" in text
    assert "v(delta)" in text
    assert text.rstrip().endswith("ok")


# ---------------------------------------------------------------------------
# command-line entry point


def test_main_pass_exit_zero():
    code, out, _ = call_main(
        ["verify", "--filter", "polarization-*", "--seed", "11"]
    )
    assert code == 0
    assert "3 scenarios" in out


def test_main_json_round_trip():
    argv = ["verify", "--filter", "rank1*", "--seed", "7", "--format", "json"]
    code1, out1, _ = call_main(argv)
    code2, out2, _ = call_main(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert [e["name"] for e in doc["scenarios"]] == [
        "rank10-lattice-match",
        "rank12-selfglue-profile",
        "rank14-lattice-chain",
    ]


def test_main_failing_scenario_exit_one(tmp_path):
    path = tmp_path / "wrong.scn"
    path.write_text(
        "name wrong-counts\nkind fiber-config\nfamily rational-base\n"
        "trials 1\nexpect fibers 3*I2\n"
    )
    code, out, _ = call_main(["verify", "--scenario", str(path), "--seed", "3"])
    assert code == 1
    assert "[fail]" in out
    assert "NOT OK" in out


def test_main_scenario_file_plus_filter(tmp_path):
    path = tmp_path / "extra.scn"
    path.write_text(
        "name zz-extra-pair\nkind lattice-identity\n"
        "lattice a = H + N\nlattice b = H(2) + D4(-1)^2\nexpect match\n"
    )
    code, out, _ = call_main(
        ["verify", "--filter", "polarization-classes",
         "--scenario", str(path), "--seed", "3"]
    )
    assert code == 0
    assert "2 scenarios" in out


def test_main_duplicate_names_rejected(tmp_path):
    path = tmp_path / "dup.scn"
    path.write_text(
        "name twin\nkind lattice-identity\nlattice a = H\nexpect det -1\n"
    )
    code, _, err = call_main(
        ["verify", "--scenario", str(path), "--scenario", str(path)]
    )
    assert code == 2
    assert "twin" in err


def test_main_trials_flag(tmp_path):
    code, out, _ = call_main(
        ["verify", "--filter", "rational-base-pencil", "--seed", "3",
         "--trials", "2", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["scenarios"][0]["trials"] == 2


def test_main_exit_two_paths(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("name x\nkind fiber-config\nnonsense\n")
    for argv in (
        ["verify"],
        ["verify", "--filter", "no-such-*"],
        ["verify", "--scenario", str(tmp_path / "missing.scn")],
        ["verify", "--scenario", str(bad)],
        ["verify", "--all", "--trials", "0"],
        ["verify", "--all", "--format", "yaml"],
        ["frobnicate"],
    ):
        code, _, _ = call_main(argv)
        assert code == 2, argv


def test_main_zero_denominator_is_a_parse_error(tmp_path):
    path = tmp_path / "zero.scn"
    path.write_text(
        "name zero-denominator\nkind fiber-config\nfamily alternate-pair\n"
        "poly trace on s,t deg 4 = 1/0*s^4\npoly norm on s,t deg 8 = s^8\n"
        "expect fibers 8*I1 + 8*I2\n"
    )
    code, _, err = call_main(["verify", "--scenario", str(path)])
    assert code == 2
    assert err.startswith("error: ") and "zero denominator" in err
    assert "line 4" in err


THOUSAND_DIGITS = "1" + "0" * 999


@pytest.mark.parametrize(
    "body, code, status, error",
    [
        # the determinant, about 5 000 digits, is more than Python prints
        (
            f"kind lattice-identity\nlattice first = A1({THOUSAND_DIGITS})^5\nexpect even\n",
            2,
            None,
            "lattice determinant may exceed 4300 digits (line 3, col 17)",
        ),
        # one block fewer, and the determinant has 3 998 digits
        (
            f"kind lattice-identity\nlattice first = A1({THOUSAND_DIGITS})^4\nexpect even\n",
            0,
            "pass",
            None,
        ),
        (
            "kind hermite-identity\nfamily pointwise-map-anchor\n"
            f"quartic curve = {THOUSAND_DIGITS}, 2, 0, 0, 1\n"
            + "".join(f"rat {name} = 1\n" for name in cli._ANCHOR_RATS)
            + "expect pass\n",
            1,
            "error",
            "NotOnCurve",
        ),
        (
            "kind hermite-identity\nfamily quartic-double-cover\n"
            f"rat a0 = {THOUSAND_DIGITS}\nrat a1 = 2\nrat a2 = 0\nrat xi = 3\n"
            "rat c0 = 1/2\nrat c_inf = 3\nexpect pass\n",
            0,
            "pass",
            None,
        ),
        (
            "kind fiber-config\nfamily alternate-pair\n"
            f"poly trace on s,t deg 4 = {THOUSAND_DIGITS}*s^4\n"
            f"poly norm on s,t deg 8 = s^8 - {THOUSAND_DIGITS}*t^8\n"
            "expect fibers 8*I1 + 8*I2\nexpect euler 24\n",
            0,
            "pass",
            None,
        ),
        # the grammar's largest degree, which the family's constraint refuses
        (
            "kind fiber-config\nfamily alternate-pair\n"
            f"poly trace on s,t deg 48 = {THOUSAND_DIGITS}*s^48 - t^48\n"
            "poly norm on s,t deg 8 = s^8 - t^8\nexpect fibers 8*I1 + 8*I2\n",
            2,
            None,
            "alternate-pair needs trace of degree 4, norm of degree 8 (line 1, col 1)",
        ),
        (
            f"kind lattice-identity\nlattice first = H\nexpect det {THOUSAND_DIGITS}\n",
            1,
            "fail",
            None,
        ),
        # the triple of a coupling at a 1 000-digit xi, with lines at
        # 1/10^999 and -10^999
        (
            "kind hermite-identity\nfamily quartic-double-cover\n"
            f"rat a0 = 1\nrat a1 = 2\nrat a2 = 0\nrat xi = {THOUSAND_DIGITS}\n"
            f"rat c0 = 1/{THOUSAND_DIGITS}\nrat c_inf = -{THOUSAND_DIGITS}\nexpect pass\n",
            0,
            "pass",
            None,
        ),
        (
            f"kind lattice-identity\nlattice first = H\nexpect signature {THOUSAND_DIGITS},1\n",
            1,
            "fail",
            None,
        ),
        (
            f"kind lattice-identity\nlattice first = H\nexpect length {THOUSAND_DIGITS}\n",
            1,
            "fail",
            None,
        ),
        (
            "kind fiber-config\nfamily rational-base\n"
            f"expect fibers 12*I1\nexpect euler {THOUSAND_DIGITS}\n",
            1,
            "fail",
            None,
        ),
        (
            f"kind fiber-config\nfamily star-chain\nrat level = {THOUSAND_DIGITS}\n"
            "expect fibers 1*I1* + 2*I0* + 5*I1\n",
            2,
            None,
            "star-chain level must be 7, 8 or 9 (line 1, col 1)",
        ),
    ],
    ids=[
        "lattice-refused",
        "lattice",
        "pointwise-map-anchor",
        "quartic-double-cover",
        "alternate-pair",
        "alternate-pair-refused",
        "expect-det",
        "quartic-double-cover-xi",
        "expect-signature",
        "expect-length",
        "expect-euler",
        "star-chain-refused",
    ],
)
def test_main_reports_a_scenario_of_1000_digit_entries(tmp_path, body, code, status, error):
    path = tmp_path / "large.scn"
    path.write_text("name large\n" + body)
    for fmt in ("text", "json"):
        start = time.perf_counter()
        got, out, err = call_main(["verify", "--scenario", str(path), "--format", fmt])
        assert time.perf_counter() - start < 10
        assert got == code, fmt
        if status is None:
            assert out == ""
            assert err.startswith("error: ") and err.endswith(f"{error}\n")
            assert "Traceback" not in err
        elif fmt == "json":
            report = json.loads(out)["scenarios"][0]
            assert report["status"] == status
            assert (report["error"] or {}).get("type") == error


def test_main_refuses_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.scn"
    path.write_bytes(
        b"name latin1\nkind fiber-config\nfamily rational-base\n"
        b"expect fibers 12*I1 # caf\xe9 \xff\n"
    )
    code, out, err = call_main(["verify", "--scenario", str(path)])
    assert code == 2 and not out
    assert err.startswith("error: ") and "not UTF-8 text (byte 0xe9)" in err
    assert "line 4, col 26" in err
    with pytest.raises(ParseError) as exc:
        cli.load_scenario(str(path))
    assert (exc.value.line, exc.value.col) == (4, 26)


def test_main_twist_at_seed_eight():
    # seed 8 draws a rational surface whose discriminant vanishes at (1, 1),
    # which no choice of cover parameters avoids; the surface is drawn again
    code, out, _ = call_main(
        ["verify", "--filter", "twist-pencil-stars", "--seed", "8", "--format", "json"]
    )
    assert code == 0
    (entry,) = json.loads(out)["scenarios"]
    assert entry["status"] == "pass"


def test_main_fiberwise_j_at_seed_four():
    # seed 4 draws a coupling coordinate at a two-torsion abscissa, where
    # the (2,2) curve is singular; the sampler must draw again
    code, out, _ = call_main(
        ["verify", "--filter", "fiberwise-j-match", "--seed", "4", "--format", "json"]
    )
    assert code == 0
    (entry,) = json.loads(out)["scenarios"]
    assert entry["status"] == "pass"
