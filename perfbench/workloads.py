"""Seeded streams of solve operations, one stream per workload.

An operation is one problem text plus the variant, division and schedule to
solve it with.  A stream is stratified: every workload lists slots
(problem, variant, how many operations, the range its sizes are drawn
from), and the seed only draws sizes and sub-boxes inside each slot's range
and shuffles the order.  So every seed gives the same mix of work, and the
cost of a pass varies little from seed to seed.

Why these three workloads:

* ``decomposed`` -- full decompositions (``fm fs fe``), weak division, the
  generated schedule, on ``cubes``, ``opt`` and ``sumprod``.  Many nodes,
  cheap rules (linear, ``x*y = z``, powers and roots), so the engine's own
  loop has its largest share of the time here.  No polynomial rule runs.
* ``direct`` -- the direct and partial variants (``du do pu po``), weak
  division, the generated schedule, on ``kyoto``, ``sumprod`` and
  ``fractions``.  Long polynomial constraints: polynomial rules and monomial
  evaluation take most of the time and the engine little.
* ``strong-cycle`` -- all seven variants at smaller sizes on all five
  problems, strong division and the cyclic schedule.  Exact division scans
  divisors, and the engine sweeps every rule in construction order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from problems import TEXTS

MAX_NODES = 200_000

# the one solution of fractions under its ordering constraints; pinning
# letters to these digits keeps that solution inside the sub-box
_FRACTION_SOLUTION = dict(zip("ABCDEFGHI", (9, 1, 2, 5, 3, 4, 7, 6, 8)))


@dataclass(frozen=True)
class Op:
    problem: str
    params: tuple
    variant: str
    division: str
    schedule: str          # "scheduled" (generated) or "cycle"

    @property
    def maximize(self) -> bool:
        return self.problem == "opt"

    def text(self) -> str:
        return TEXTS[self.problem](*self.params)


def _stratified(rng, lo, hi, count):
    """``count`` integers from [lo..hi], one from each of ``count`` equal
    strata of the range, so every seed draws the same spread of sizes."""
    span = hi - lo + 1
    return [lo + int((i + rng.random()) * span / count) for i in range(count)]


def _cubes(rng, count, lo_min, lo_max, width):
    return [(lo, lo + width) for lo in _stratified(rng, lo_min, lo_max, count)]


def _sized(rng, count, lo, hi):
    return [(n,) for n in _stratified(rng, lo, hi, count)]


def _kyoto(rng, count, lo, hi, width):
    return [(b, b + width) for b in _stratified(rng, lo, hi, count)]


def _fractions(rng, count, pinned):
    # distinct subsets: pinning costs differ widely between subsets, and
    # drawing without replacement keeps the mix steady
    subsets = list(combinations("ABCDEFGHI", pinned))
    return [(tuple((c, _FRACTION_SOLUTION[c]) for c in letters),)
            for letters in rng.sample(subsets, count)]


DRAW = {
    "cubes": _cubes,
    "opt": _sized,
    "sumprod": _sized,
    "kyoto": _kyoto,
    "fractions": _fractions,
}

# workload -> (division, schedule, slots); a slot is
# (problem, variants, operations per variant, draw arguments)
WORKLOADS = {
    "decomposed": ("weak", "scheduled", [
        ("cubes", "fm fs", 20, (150, 250, 30)),
        ("cubes", "fe", 28, (250, 400, 50)),
        ("opt", "fm", 24, (13, 17)),
        ("opt", "fs", 24, (24, 32)),
        ("opt", "fe", 28, (60, 100)),
        ("sumprod", "fm fs fe", 24, (6, 7)),
    ]),
    # weighted towards du, whose long polynomial rules are the point of
    # this workload; do spends most of its time in rational division.
    # fractions du takes all 84 subsets of six letters: the median time to
    # a first solution falls among them, and a sample of them moved it by
    # a fifth from seed to seed
    "direct": ("weak", "scheduled", [
        ("kyoto", "du", 50, (9, 14, 0)),
        ("kyoto", "pu po", 4, (7, 11, 0)),
        ("kyoto", "do", 3, (6, 8, 0)),
        ("sumprod", "du do pu po", 3, (6, 7)),
        ("fractions", "du", 84, (6,)),
        ("fractions", "pu po", 4, (6,)),
        ("fractions", "do", 3, (7,)),
    ]),
    # eight or more operations a slot: with six, the sizes drawn near the
    # p90 of latency moved it by twice as much from seed to seed.  kyoto
    # and sumprod draw a whole number of operations per size (two per
    # base, three per n), so which of them have a solution, and with it
    # the median time to a first solution, does not change with the seed
    "strong-cycle": ("strong", "cycle", [
        ("cubes", "du do pu po fm fs fe", 8, (150, 250, 30)),
        ("opt", "du do pu po fm fs fe", 8, (13, 18)),
        ("sumprod", "du do pu po fm fs fe", 9, (5, 7)),
        ("kyoto", "du do pu po fm fs fe", 10, (5, 9, 0)),
        ("fractions", "du do pu po fm fs fe", 8, (6,)),
    ]),
}


def generate(workload: str, seed: int):
    """The operation stream of one workload for one seed."""
    division, schedule, slots = WORKLOADS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    ops = []
    for problem, variants, count, args in slots:
        for variant in variants.split():
            for params in DRAW[problem](rng, count, *args):
                ops.append(Op(problem, params, variant, division, schedule))
    rng.shuffle(ops)
    return ops
