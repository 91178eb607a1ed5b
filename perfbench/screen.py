"""Check that every pool conjugate of the lattices workload finishes.

    python3 perfbench/screen.py [seconds]

Run from the root of the repository.  It puts every conjugate of the
pool described in ``plan.json`` through the lattice item under a
deadline of ``seconds`` (default 5) wall-clock seconds, prints the
slowest time per source, and exits 1 if any conjugate missed.  A miss
means the program's Smith form did not finish on that conjugate: its
entries can grow doubly exponentially, which the benchmark must not
run into, since its workloads may have no failing item.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from ellsurf import cli, lattice  # noqa: E402


def main(argv: list[str]) -> int:
    deadline = float(argv[0]) if argv else 5.0
    spec = workloads.PLAN["workloads"]["lattices"]
    recipe = spec["conjugates"]
    scenarios = [sc for sc in cli.bundled_scenarios() if sc.kind in spec["kinds"]]
    misses = 0
    for label, source in workloads.lattice_sources(scenarios):
        slowest, missed_tags = 0.0, []
        for k in range(recipe["pool"]):
            tag = workloads.conjugate_tag(label, recipe["moves"], k)
            conj = workloads.conjugate(lattice, source, random.Random(tag), recipe["moves"])
            seconds, _result, missed = workloads.timed_call(
                lambda: workloads.profile(lattice, conj, source), deadline
            )
            if missed:
                missed_tags.append(tag)
            else:
                slowest = max(slowest, seconds)
        misses += len(missed_tags)
        print(f"{label}: slowest {slowest:.3f} s, missed {missed_tags}")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
