"""The ellsurf layers that the traced run observes, and their metrics.

A layer is one module of the package.  Each traced span wraps a public
function or method of that module from outside; ``install`` puts the
wrappers in place and the tracer's ``uninstall`` removes them.
"""

from __future__ import annotations

import random
from fractions import Fraction

from spans import Tracer

# span name -> (module, the functions or "Class.method"s it covers)
SPANS: dict[str, tuple[str, tuple[str, ...]]] = {
    "exactpoly.hom_mul": ("exactpoly", ("HomPoly.__mul__", "BiHomPoly.__mul__")),
    "exactpoly.uni_mul": ("exactpoly", ("UniPoly.__mul__",)),
    "exactpoly.pow": ("exactpoly", ("UniPoly.__pow__", "HomPoly.__pow__")),
    "exactpoly.substitute": ("exactpoly", ("HomPoly.substitute", "BiHomPoly.substitute_pair2")),
    "exactpoly.divmod": ("exactpoly", ("UniPoly.divmod",)),
    "exactpoly.gcd": ("exactpoly", ("gcd_poly", "gcd_form")),
    "exactpoly.squarefree": ("exactpoly", ("squarefree_split", "refine_against")),
    "exactpoly.resultant": ("exactpoly", ("resultant", "discriminant_form", "form_discriminant")),
    "elliptic.fiber_configuration": ("elliptic", ("fiber_configuration",)),
    "elliptic.invariants": ("elliptic", ("invariants",)),
    "elliptic.two_torsion_sections": ("elliptic", ("two_torsion_sections",)),
    "hermite_aj.correspondence_polys": ("hermite_aj", ("correspondence_polys",)),
    "hermite_aj.discr_relation_check": ("hermite_aj", ("discr_relation_check",)),
    "hermite_aj.abel_jacobi": ("hermite_aj", ("abel_jacobi",)),
    "duality.normalize_three_i0star": ("duality", ("normalize_three_i0star",)),
    "duality.correspondence_surfaces": ("duality", ("correspondence_surfaces",)),
    "duality.full_torsion_surfaces": ("duality", ("full_torsion_surfaces",)),
    "duality.refibration_jacobian": ("duality", ("refibration_jacobian",)),
    "duality.subfamily_models": ("duality", ("subfamily_models",)),
    "lattice.determinant": ("lattice", ("determinant",)),
    "lattice.signature": ("lattice", ("signature",)),
    "lattice.discriminant_group": ("lattice", ("discriminant_group",)),
    "lattice.two_elementary_invariants": ("lattice", ("two_elementary_invariants",)),
    "lattice.nikulin_equivalent": ("lattice", ("nikulin_equivalent",)),
    # the runners, checks and samplers all execute inside these two
    "cli.run": ("cli", ("run",)),
    "cli.emit_json": ("cli", ("emit_json",)),
}
MODULES = ("exactpoly", "elliptic", "hermite_aj", "duality", "lattice", "cli")
MUL_SPANS = ("exactpoly.hom_mul", "exactpoly.uni_mul")

DRAWS = "cli.samplers.draws"
TERM_PRODUCTS = "exactpoly.mul.term_products"
COEFF_BITS_MAX = "exactpoly.mul.coeff_bits_max"
DEADLINE_MISSES = "lattice.deadline_misses"


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for span, (module, _sites) in SPANS.items():
        if module != "cli":
            out += [(f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower")]
    out += [
        (TERM_PRODUCTS, "count", "lower"),
        (COEFF_BITS_MAX, "bits", "lower"),
        (DEADLINE_MISSES, "count", "lower"),
        (DRAWS, "count", "lower"),
        ("cli.samplers.draws_per_trial", "count/trial", "lower"),
    ]
    for module in MODULES:
        out += [(f"{module}.self_s", "s", "lower"), (f"{module}.share", "ratio", "lower")]
    out.append(("trace.overhead", "ratio", "lower"))
    return out


class CountingRandom(random.Random):
    """A copy of a ``random.Random`` that counts every value drawn from it.

    It starts from the source's state and draws through the base class,
    so it yields exactly the values the source would have.
    """

    def __init__(self, source: random.Random, counters: dict):
        super().__init__()
        self.setstate(source.getstate())
        self._counters = counters

    def _randbelow(self, n: int) -> int:  # randint, randrange, choice, sample, shuffle
        self._counters[DRAWS] += 1
        return super()._randbelow(n)

    def random(self) -> float:
        self._counters[DRAWS] += 1
        return super().random()


def count_draws(tracer: Tracer, cli) -> None:
    """Make every scenario rng of ``cli`` count its draws into the tracer."""
    make_rng = cli._scenario_rng
    counters = tracer.counters
    tracer.patch(cli, "_scenario_rng", lambda seed, name: CountingRandom(make_rng(seed, name), counters))


def _coefficients(poly) -> list[Fraction]:
    rows = getattr(poly, "rows", None)
    if rows is not None:
        return [c for row in rows for c in row]
    return list(poly.coeffs)


def _count_product(counters: dict, poly_type: type):
    """Count coefficient products; a scalar factor counts as one term."""

    def before(args) -> None:
        left = _coefficients(args[0])
        right = _coefficients(args[1]) if isinstance(args[1], poly_type) else []
        counters[TERM_PRODUCTS] += len(left) * max(len(right), 1)
        bits = max(
            (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in left + right),
            default=0,
        )
        if bits > counters[COEFF_BITS_MAX]:
            counters[COEFF_BITS_MAX] = bits

    return before


def install(tracer: Tracer, package) -> None:
    """Wrap every function in ``SPANS`` wherever the package binds it."""
    modules = [getattr(package, name) for name in MODULES]
    modules.append(package)
    for span, (module_name, sites) in SPANS.items():
        module = getattr(package, module_name)
        for site in sites:
            owner_name, _, attr = site.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            before = _count_product(tracer.counters, owner) if span in MUL_SPANS else None
            tracer.install(span, owner, attr, modules, before)


def layer_values(tracer: Tracer, traced_wall: float, untraced_wall: float, trials: int) -> dict[str, float]:
    """Every per-layer metric, by name, from a finished traced pass."""
    totals = tracer.totals()
    values: dict[str, float] = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for span, (module, _sites) in SPANS.items():
        calls, self_s = totals.get(span, (0, 0.0))
        module_self[module] += self_s
        if module != "cli":
            values[f"{span}.calls"] = calls
            values[f"{span}.self_s"] = self_s
    counters = tracer.counters
    values[TERM_PRODUCTS] = counters[TERM_PRODUCTS]
    values[COEFF_BITS_MAX] = counters[COEFF_BITS_MAX]
    values[DEADLINE_MISSES] = counters[DEADLINE_MISSES]
    values[DRAWS] = counters[DRAWS]
    values["cli.samplers.draws_per_trial"] = counters[DRAWS] / trials if trials else 0.0
    for module in MODULES:
        values[f"{module}.self_s"] = module_self[module]
        values[f"{module}.share"] = module_self[module] / traced_wall
    values["trace.overhead"] = traced_wall / untraced_wall
    return values
