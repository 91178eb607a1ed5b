"""Tests of the benchmark's own logic: inputs, tracing and deadlines."""

from __future__ import annotations

import json
import random
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


@pytest.fixture(autouse=True)
def keep_ellsurf_modules():
    """run.set_up re-imports ellsurf; put back the modules other tests use."""
    saved = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "ellsurf"}
    yield
    for name in [name for name in sys.modules if name.split(".")[0] == "ellsurf"]:
        del sys.modules[name]
    sys.modules.update(saved)


def _inputs(workload: str, seed: int):
    _elapsed, _package, built = run.set_up(workload, seed)
    if workload == "lattices":
        return [
            (tag, conj.gram) for _label, _source, conjugates in built.sources for tag, conj in conjugates
        ]
    return [(sc.name, root) for sc, root in built.items]


def test_same_seed_gives_same_inputs():
    for workload in ("fibers", "lattices"):
        first = _inputs(workload, 7)
        assert first == _inputs(workload, 7)
        assert first != _inputs(workload, 8)


def test_item_counts_match_the_plan():
    for workload, spec in workloads.PLAN["workloads"].items():
        _elapsed, _package, built = run.set_up(workload, 0)
        if workload == "lattices":
            per_source = 1 + spec["conjugates"]["pick"]
            count = len(built.scenarios) + per_source * len(built.sources)
        else:
            count = len(built.items)
        assert count == spec["items_per_pass"], workload


def test_conjugates_are_unimodular_congruences():
    _elapsed, package, built = run.set_up("lattices", 3)
    lattice = package.lattice
    for _label, source, conjugates in built.sources:
        for _tag, conj in conjugates[:1]:
            assert lattice.determinant(conj) == lattice.determinant(source)
            assert conj.gram != source.gram


def test_seed_picks_from_a_fixed_pool():
    recipe = workloads.PLAN["workloads"]["lattices"]["conjugates"]
    by_seed = []
    for seed in (5, 6):
        _elapsed, _package, built = run.set_up("lattices", seed)
        by_seed.append({tag: conj.gram for _label, _source, conjugates in built.sources for tag, conj in conjugates})
        for label, _source, conjugates in built.sources:
            tags = [tag for tag, _conj in conjugates]
            assert len(set(tags)) == recipe["pick"]
            pool = {workloads.conjugate_tag(label, recipe["moves"], k) for k in range(recipe["pool"])}
            assert set(tags) <= pool
    shared = by_seed[0].keys() & by_seed[1].keys()
    assert shared and all(by_seed[0][tag] == by_seed[1][tag] for tag in shared)


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        return "in"

    traced_inner = tracer.wrap("m.inner", inner)

    def outer():
        traced_inner()
        traced_inner()
        return "out"

    assert tracer.wrap("m.outer", outer)() == "out"
    assert list(tracer.parents) == [-1, 0, 0]
    assert tracer.self_times() == [5.0, 2.0, 3.0]
    assert tracer.totals() == {"m.inner": (2, 5.0), "m.outer": (1, 5.0)}


def test_install_wraps_every_binding_and_uninstall_restores_them():
    def f(x):
        return x + 1

    home = types.ModuleType("home")
    home.f = f
    user = types.ModuleType("user")
    user.alias = f
    tracer = Tracer()
    tracer.install("home.f", home, "f", [home, user])
    assert home.f is not f and user.alias is not f
    assert home.f(1) == 2 and user.alias(2) == 3
    assert tracer.totals()["home.f"][0] == 2
    tracer.uninstall()
    assert home.f is f and user.alias is f


def test_span_closes_when_a_deadline_interrupts_it():
    tracer = Tracer()

    def spin():
        while True:
            pass

    result = workloads.PassResult(deadline_ref=25, tracer=tracer)
    _value, missed = result.call(tracer.wrap("m.spin", spin))
    assert missed
    assert len(tracer) == 1 and tracer.ends[0] > tracer.starts[0]
    assert tracer._stack == []


def test_deadline_miss_counts_as_failed_and_the_pass_goes_on():
    def swallowing_spin():
        try:
            while True:
                pass
        except Exception:  # the program's own handlers must not hide a miss
            return "swallowed"

    result = workloads.PassResult(deadline_ref=25)
    started = time.perf_counter()
    value, missed = result.call(swallowing_spin)
    assert missed and value is None
    assert time.perf_counter() - started < 1.0
    assert result.call(lambda: 42) == (42, False)
    assert result.failed == 1 and result.attempted == 2
    assert len(result.times) == 2 and result.outcomes == [None, 42]
    assert result.ok == [False, True] and list(result.missed) == [0]


def test_missed_item_is_carried_into_later_passes_as_not_ok():
    later = workloads.PassResult(deadline_ref=25, skip={0: (0.06, 15.0)})
    assert later.call(lambda: 1 / 0) == (None, True)
    assert later.call(lambda: 42) == (42, False)
    later.finish(time.perf_counter())
    assert later.times[0] == 0.06 and later.units[0] == 15.0 and later.ok == [False, True]
    assert later.attempted == 1 and later.failed == 0
    first = workloads.PassResult(deadline_ref=1000, units=[15.0, 1.0], ok=[False, True])
    metrics = run.end_to_end([0.1], [first, later])
    assert metrics["ok_ratio"] == (0.5, "ratio")
    assert metrics["wall_ref"] == (15.0 + (1.0 + later.units[1]) / 2, "ref")


def test_item_times_in_reference_units():
    result = workloads.PassResult(deadline_ref=1000)
    result.call(lambda: time.sleep(0.02))
    result.finish(time.perf_counter())
    assert len(result.refs) == 2
    assert result.units[0] == result.times[0] / min(result.refs)
    assert result.units[0] > 1


def test_counting_random_draws_the_same_values():
    counters = {layers.DRAWS: 0}
    plain = random.Random(12345)
    counted = layers.CountingRandom(random.Random(12345), counters)
    for rng in (plain, counted):
        rng.values = [rng.randint(-9, 9) for _ in range(5)] + rng.sample(range(-6, 7), 4)
    assert counted.values == plain.values
    assert counters[layers.DRAWS] == 9


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == layers.per_layer_metrics()
    passes = [workloads.PassResult(deadline_ref=1000, units=[1.0] * 20, ok=[True] * 20)]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end([0.1], passes))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.PLAN["workloads"])


def test_layers_install_on_every_binding_of_the_package():
    _elapsed, package, _built = run.set_up("fibers", 0)
    original = package.elliptic.fiber_configuration
    assert package.cli.fiber_configuration is original
    mul = package.exactpoly.HomPoly.__mul__
    tracer = Tracer()
    layers.install(tracer, package)
    try:
        assert package.cli.fiber_configuration is not original
        assert package.cli.fiber_configuration is package.elliptic.fiber_configuration
        x = package.exactpoly.HomPoly.of(("s", "t"), (1, 2))
        (x * x) * 3
    finally:
        tracer.uninstall()
    assert package.cli.fiber_configuration is original
    assert package.elliptic.fiber_configuration is original
    assert package.exactpoly.HomPoly.__mul__ is mul
    assert tracer.totals()["exactpoly.hom_mul"][0] == 2
    assert tracer.counters[layers.TERM_PRODUCTS] == 2 * 2 + 3 * 1
