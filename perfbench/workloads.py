"""Workload inputs, items and correctness checks of the ellsurf benchmark.

The workload seed decides every input the program sees: the order of the
scenario items, and the unimodular conjugates of the lattice workload.
The program is reached only through its public entry points
(``cli.bundled_scenarios``, ``cli.run``, ``cli.emit_json`` and the
``lattice`` functions), looked up at call time so that a traced pass
goes through the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from layers import DEADLINE_MISSES

PLAN = json.loads(Path(__file__).with_name("plan.json").read_text("utf-8"))
ROOT_SEEDS: list[int] = PLAN["root_seeds"]
INVARIANTS = ("determinant", "signature", "discriminant_group", "two_elementary_invariants")


class DeadlineMiss(BaseException):
    """Raised inside an item that overran its deadline.

    It derives from BaseException so that the program's own
    ``except Exception`` handlers cannot swallow it.
    """


def _overrun(signum, frame):
    raise DeadlineMiss


def timed_call(fn, deadline_s: float):
    """Run ``fn()`` under a deadline; return (seconds, result, missed).

    The timer is one-shot, so once the inner ``finally`` has run no
    signal can arrive; a miss anywhere before that is caught here.
    """
    previous = signal.signal(signal.SIGALRM, _overrun)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            result = fn()
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineMiss:
        return time.perf_counter() - start, None, True
    finally:
        signal.signal(signal.SIGALRM, previous)
    return elapsed, result, False


# The reference computation: a fixed piece of exact rational arithmetic,
# the kind of work that dominates ellsurf, owned by the benchmark so that
# no change to the program can change it.  It takes about 2.2 ms on a
# 2-vCPU Intel Xeon virtual machine with Python 3.11.
_REF_X = [Fraction(i % 7 - 3, 1 + i % 5) for i in range(60)]
_REF_Y = [Fraction(1 + i % 4, i % 9 - 4 or 1) for i in range(60)]


def reference_time() -> float:
    """Seconds the reference computation takes right now."""
    start = time.perf_counter()
    total = Fraction(0)
    for _ in range(12):
        total += sum(a * b for a, b in zip(_REF_X, _REF_Y))
    return time.perf_counter() - start


@dataclass
class PassResult:
    """One pass over a workload's items.

    The reference computation runs before each item and once after the
    last, and each item's time is also given in reference units: its
    seconds over the quicker of the reference times around it (a
    reference run just after a large item can be slowed by what the item
    left in the caches, never sped up).  A shared host that slows
    everything down for a while changes both alike.  The deadline is in
    reference units too: ``deadline_ref`` times the reference time
    measured just before the item.

    ``skip`` maps the index of an item that missed its deadline in an
    earlier pass of the run to (seconds, reference units) of that miss.
    Such an item is not run again: it keeps those times and stays not
    ok, which leaves the run's time to the items whose times can vary.
    """

    deadline_ref: float
    tracer: object = None
    skip: dict[int, tuple[float, float]] = field(default_factory=dict)
    wall: float = 0.0
    times: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    units: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    missed: dict[int, tuple[float, float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    trials: int = 0

    def call(self, fn, layer_item: bool = False, summary=lambda result: result):
        """Time one item; a missed deadline counts as failed, with result None.

        ``summary(result)`` is kept as the item's outcome, which a traced
        pass must reproduce.
        """
        index = len(self.times)
        reference = reference_time()
        self.refs.append(reference)
        if index in self.skip:
            self.times.append(self.skip[index][0])
            self.ok.append(False)
            self.outcomes.append(None)
            return None, True
        if self.tracer is not None:
            self.tracer.item = index
        elapsed, result, missed = timed_call(fn, self.deadline_ref * reference)
        self.attempted += 1
        self.times.append(elapsed)
        self.ok.append(not missed)
        self.outcomes.append(None if missed else summary(result))
        if missed:
            self.failed += 1
            self.missed[index] = (elapsed, 0.0)
            if layer_item and self.tracer is not None:
                self.tracer.counters[DEADLINE_MISSES] += 1
        return result, missed

    def mismatch(self, message: str) -> None:
        """The item just run finished with a wrong answer."""
        self.failed += 1
        self.ok[-1] = False
        self.mismatches.append(message)

    def finish(self, started: float) -> None:
        """Close the pass begun at ``started``: reference units and wall time."""
        self.refs.append(reference_time())
        self.wall = time.perf_counter() - started - sum(self.refs)
        for index, seconds in enumerate(self.times):
            if index in self.skip:
                self.units.append(self.skip[index][1])
            else:
                self.units.append(seconds / min(self.refs[index], self.refs[index + 1]))
        for index in self.missed:
            self.missed[index] = (self.times[index], self.units[index])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _verdict(report) -> tuple:
    """A report without its timing."""
    return report.status, report.detail, report.error, report.trials


class ScenarioWorkload:
    """Bundled scenarios of some kinds, each run at every root seed.

    The seed shuffles the order of the (scenario, root seed) items; the
    inputs themselves are fixed so that each root seed's JSON report can
    be checked byte for byte against the digest recorded in the plan.
    """

    def __init__(self, name: str, cli, lattice, seed: int):
        spec = PLAN["workloads"][name]
        self.name, self.cli, self.deadline_ref = name, cli, spec["deadline_ref"]
        scenarios = [sc for sc in cli.bundled_scenarios() if sc.kind in spec["kinds"]]
        self.items = [(sc, root) for root in ROOT_SEEDS for sc in scenarios]
        random.Random(f"{name}/{seed}").shuffle(self.items)

    def run_pass(self, tracer=None, skip=None) -> PassResult:
        result = PassResult(self.deadline_ref, tracer, dict(skip or {}))
        started = time.perf_counter()
        reports: dict[int, list] = {root: [] for root in ROOT_SEEDS}
        for sc, root in self.items:
            report, missed = result.call(lambda: self.cli.run(sc, root), summary=_verdict)
            if missed:
                reports.pop(root, None)
                continue
            if root in reports:
                reports[root].append(report)
            result.trials += report.trials or 0
            if not report.ok:
                result.mismatch(f"{sc.name} at root seed {root}: {report.status}")
        for root, batch in reports.items():
            text = self.cli.emit_json(sorted(batch, key=lambda r: r.name), root)
            if digest(text) != PLAN["digests"][self.name][str(root)]:
                result.mismatches.append(f"JSON report at root seed {root} differs from the recorded digest")
        result.finish(started)
        return result


def conjugate(lattice, source, rng: random.Random, moves: int):
    """U^T G U for U a product of ``moves`` elementary matrices I + c e_j e_i^T."""
    gram = [list(row) for row in source.gram]
    n = len(gram)
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in gram:
            row[i] += c * row[j]
        gram[i] = [a + c * b for a, b in zip(gram[i], gram[j])]
    return lattice.GramLattice.from_rows(gram)


def conjugate_tag(label: str, moves: int, k: int) -> str:
    """Name of the k-th pool conjugate of a source; it seeds the moves."""
    return f"{label}~{moves}moves#{k}"


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # an error is an answer, compared like a value
        return ("error", type(exc).__name__)


def _expected_equivalence(source_invariants):
    """What nikulin_equivalent(source, conjugate) must answer, given the
    source's two_elementary_invariants outcome: isometric lattices are
    equivalent whenever the oracle applies."""
    kind, inv = source_invariants
    if kind == "error":
        return source_invariants
    if inv.is_two_elementary and min(inv.signature) > 0:
        return ("value", True)
    return ("error", "NotApplicable")


def profile(lattice, lat, source=None) -> dict:
    """One lattice item: the invariants of ``lat`` and, for a conjugate,
    the equivalence oracle against its source."""
    out = {name: _outcome(getattr(lattice, name), lat) for name in INVARIANTS}
    if source is not None:
        out["nikulin_equivalent"] = _outcome(lattice.nikulin_equivalent, source, lat)
    return out


def lattice_sources(scenarios) -> list:
    """(label, lattice) for each distinct lattice the scenarios build,
    labelled by the first scenario and name that build it."""
    sources: dict = {}
    for sc in scenarios:
        for lattice_name, lat in sc.lattices.items():
            sources.setdefault(lat.gram, (f"{sc.name}/{lattice_name}", lat))
    return list(sources.values())


class LatticeWorkload:
    """The lattice-identity scenarios, then every lattice they build and
    seeded unimodular conjugates of it, through the lattice invariants.

    One item puts one lattice through all the invariants.  Conjugates are
    checked against their source: determinant, signature, discriminant
    group and 2-elementary invariants must agree, and the equivalence
    oracle must call them equivalent.

    Each source has a fixed pool of conjugates, ``pool`` of them after
    ``moves`` elementary moves each, and the seed picks ``pick`` of them.
    ``screen.py`` checks that every conjugate of the pool finishes; an
    item that misses its deadline all the same counts as failed.
    """

    def __init__(self, name: str, cli, lattice, seed: int):
        spec = PLAN["workloads"][name]
        self.name, self.cli, self.lattice = name, cli, lattice
        self.deadline_ref = spec["deadline_ref"]
        self.scenarios = [sc for sc in cli.bundled_scenarios() if sc.kind in spec["kinds"]]
        recipe = spec["conjugates"]
        pool = range(recipe["pool"])
        self.sources = []  # (label, source, [(tag, conjugate)])
        for label, lat in lattice_sources(self.scenarios):
            picked = sorted(random.Random(f"{name}/{seed}/{label}").sample(pool, recipe["pick"]))
            conjugates = []
            for k in picked:
                tag = conjugate_tag(label, recipe["moves"], k)
                conjugates.append((tag, conjugate(lattice, lat, random.Random(tag), recipe["moves"])))
            self.sources.append((label, lat, conjugates))

    def run_pass(self, tracer=None, skip=None) -> PassResult:
        result = PassResult(self.deadline_ref, tracer, dict(skip or {}))
        started = time.perf_counter()
        for sc in self.scenarios:
            report, missed = result.call(lambda: self.cli.run(sc, ROOT_SEEDS[0]), summary=_verdict)
            if not missed and not report.ok:
                result.mismatch(f"{sc.name}: {report.status}")
        for label, source, conjugates in self.sources:
            reference, _missed = result.call(lambda: profile(self.lattice, source), layer_item=True)
            for tag, conj in conjugates:
                got, missed = result.call(lambda: profile(self.lattice, conj, source), layer_item=True)
                if missed or reference is None:
                    continue
                expected = dict(reference)
                expected["nikulin_equivalent"] = _expected_equivalence(reference["two_elementary_invariants"])
                wrong = [name for name in expected if got[name] != expected[name]]
                if wrong:
                    result.mismatch(f"{tag}: {wrong} differ from {label}")
        result.finish(started)
        return result


WORKLOADS = {"fibers": ScenarioWorkload, "identities": ScenarioWorkload, "lattices": LatticeWorkload}
