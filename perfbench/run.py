"""Benchmark of the ellsurf package: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fibers --seed 1 --seconds 36 --trace 0

Run from the root of the repository.  It imports ``ellsurf`` from
``src/``, builds the workload's inputs from the seed, and runs passes over
them, one item at a time in this one process, for ``--seconds``.  Every
pass is checked for correctness.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

TAIL_BEYOND = 10
SETUPS_PER_PASS = 3
# seconds the reference computation takes on a quiet 2-vCPU Intel Xeon
# virtual machine with Python 3.11; setup_s is given at that speed
REF_SECONDS = 0.0022


def fresh_import():
    """Import ``ellsurf`` anew, so each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "ellsurf" or m.startswith("ellsurf.")]:
        del sys.modules[name]
    return importlib.import_module("ellsurf")


def set_up(workload: str, seed: int):
    """Import, scenario parse and input generation, timed.

    Earlier imports of the package hold reference cycles; collecting them
    first keeps memory and later collections from growing with each set-up.
    """
    gc.collect()
    started = time.perf_counter()
    package = fresh_import()
    built = workloads.WORKLOADS[workload](workload, package.cli, package.lattice, seed)
    return time.perf_counter() - started, package, built


def tail(times: list[float]) -> float:
    """The highest order statistic with TAIL_BEYOND items beyond it."""
    ordered = sorted(times)
    return ordered[max(len(ordered) - TAIL_BEYOND - 1, 0)]


def timed_set_up(workload: str, seed: int):
    """``set_up``, with its time in reference units: its seconds over the
    quicker of the reference times measured around it."""
    before = workloads.reference_time()
    elapsed, package, built = set_up(workload, seed)
    after = workloads.reference_time()
    return elapsed / min(before, after), package, built


def end_to_end(setup_units: list[float], passes: list) -> dict:
    """End-to-end metrics from the run's set-ups and passes.

    Item times are in reference units (see ``workloads.PassResult``): a
    shared host's slowdowns last minutes here, longer than a run, and
    stretch the reference computation as much as the items.  The same
    items run in every pass, so each item's median over the passes is
    taken before the pass-level figures are formed.  An item is ok only
    if it was ok in every pass.  ``setup_s`` is the median set-up, in reference
    units, times REF_SECONDS: seconds on the quiet host.
    """
    typical = [statistics.median(units) for units in zip(*(p.units for p in passes))]
    ok = [all(flags) for flags in zip(*(p.ok for p in passes))]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_units) * REF_SECONDS, "s"),
        "wall_ref": (sum(typical), "ref"),
        "item_p50_ref": (statistics.median(typical), "ref"),
        "item_tail_ref": (tail(typical), "ref"),
        "ok_ratio": (sum(ok) / len(ok), "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MiB"),
    }


def traced_passes(package, built, spans_path: Path) -> tuple[list, dict]:
    """An untraced pass and a traced one; both count sampler draws.

    The traced pass must compute exactly what the untraced one did: the
    same outcomes and the same number of draws.
    """
    counting = Tracer()
    layers.count_draws(counting, package.cli)
    try:
        plain = built.run_pass()
    finally:
        counting.uninstall()
    tracer = Tracer()
    layers.count_draws(tracer, package.cli)
    layers.install(tracer, package)
    try:
        traced = built.run_pass(tracer)
    finally:
        tracer.uninstall()
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    if counting.counters[layers.DRAWS] != tracer.counters[layers.DRAWS]:
        traced.mismatches.append("the traced pass drew a different number of sampler values")
    for index, (a, b) in enumerate(zip(plain.outcomes, traced.outcomes)):
        if a is not None and b is not None and a != b:
            traced.mismatches.append(f"item {index} gave a different outcome when traced")
    values = layers.layer_values(tracer, traced.wall, plain.wall, traced.trials)
    units = {name: unit for name, unit, _better in layers.per_layer_metrics()}
    return [plain, traced], {name: (values[name], units[name]) for name in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ellsurf" / "__init__.py").is_file():
        print(f"error: no ellsurf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        _elapsed, package, built = set_up(args.workload, args.seed)
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        passes, metrics = traced_passes(package, built, spans_path)
    else:
        # set-ups are spread over the run like the passes, so that both
        # meet the same stretches of a shared host's slowdowns; a pass
        # starts only if one as long as the last still ends in time
        setup_units, passes, skip = [], [], {}
        started = time.perf_counter()
        last = 0.0
        while not passes or time.perf_counter() - started + last <= args.seconds:
            begun = time.perf_counter()
            for _ in range(SETUPS_PER_PASS):
                units, _package, built = timed_set_up(args.workload, args.seed)
                setup_units.append(units)
            passes.append(built.run_pass(skip=skip))
            skip.update(passes[-1].missed)
            last = time.perf_counter() - begun
        metrics = end_to_end(setup_units, passes)

    mismatches = [m for p in passes for m in p.mismatches]
    for message in mismatches[:20]:
        print(f"mismatch: {message}", file=sys.stderr)
    result = {
        "correct": not mismatches,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
