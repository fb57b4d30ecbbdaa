"""Counter tripwire: the paper's work counters on a small benchmark matrix.

Every cell is one problem solved with one variant, division and schedule.
Its search nodes, DRF (rule) applications, effective applications, every
``OpCounters`` category, and the solution set (or optimum) must equal the
values in ``counters_baseline.json`` exactly.  Wall time is reported as a
test property and is not gated.

A change whose purpose is to alter the work done re-records the baseline::

    PYTHONPATH=src python tests/test_counters.py --record
"""

import json
import pathlib
import sys
import time

import pytest

from intprop.bench import build_benchmark
from intprop.decompose import VARIANTS
from intprop.search import maximize, solve_all

BASELINE = pathlib.Path(__file__).with_name("counters_baseline.json")

# Pins keep every cell in milliseconds.  The one solution of fractions is
# 9/12 + 5/34 + 7/68 = 1, and base 9 is the least base in which KYOTO has
# solutions (four of them).
PROBLEMS = {
    "cubes": lambda: build_benchmark("cubes", 200),
    "opt": lambda: build_benchmark("opt", 20),
    "kyoto": lambda: _pinned("kyoto", 9, B=9),
    "sumprod": lambda: build_benchmark("sumprod", 6),
    "fractions": lambda: _pinned("fractions", None,
                                 A=9, B=1, C=2, G=7, H=6, I=8),
}


def _pinned(name, n, **pins):
    csp = build_benchmark(name, n)
    for letter, value in pins.items():
        csp.domains[csp.var(letter)] = (value, value)
    return csp


def configurations():
    for variant in VARIANTS:
        for division in ("weak", "strong"):
            for mode in ("scheduled", "cycle"):
                yield variant, division, mode


def run_cell(csp, variant, division, mode):
    """The counters and the result of one cell."""
    if csp.goal == "maximize":
        best, value, stats = maximize(csp, variant=variant,
                                      division=division, mode=mode)
        result = {"optimum": value, "best": list(best),
                  "incumbents": stats.incumbents}
    else:
        sols, stats = solve_all(csp, variant, division, mode)
        result = {"solutions": sorted(list(s) for s in sols)}
    ops = stats.counters.as_dict()
    ops.pop("total")
    cell = {"nodes": stats.nodes, "solutions_found": stats.solutions,
            "drf_applications": stats.drf_applications,
            "drf_effective": stats.drf_effective,
            "complete": stats.complete, "ops": ops}
    cell.update(result)
    return cell


def run_problem(name):
    """Every cell of one problem, keyed ``problem/variant/division/mode``,
    and the wall time they took."""
    csp = PROBLEMS[name]()
    cells = {}
    t0 = time.perf_counter()
    for variant, division, mode in configurations():
        key = "/".join((name, variant, division, mode))
        cells[key] = run_cell(csp, variant, division, mode)
    return cells, time.perf_counter() - t0


@pytest.fixture(scope="module")
def baseline():
    with open(BASELINE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_counters_match_baseline(name, baseline, record_property):
    cells, wall = run_problem(name)
    record_property("wall_s", round(wall, 3))
    want = {key: cell for key, cell in baseline.items()
            if key.startswith(name + "/")}
    assert sorted(cells) == sorted(want)
    differing = {key: {"got": cells[key], "want": want[key]}
                 for key in cells if cells[key] != want[key]}
    assert not differing


def _changes(old, new, prefix=""):
    """``(field, old value, new value)`` for each field of a cell that
    differs, the op categories as ``ops.<category>``."""
    for field in sorted(set(old) | set(new)):
        a, b = old.get(field), new.get(field)
        if isinstance(a, dict) and isinstance(b, dict):
            yield from _changes(a, b, prefix + field + ".")
        elif a != b:
            yield prefix + field, a, b


def _record():
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            old = json.load(fh)
    except FileNotFoundError:
        old = {}
    cells = {}
    for name in sorted(PROBLEMS):
        got, wall = run_problem(name)
        cells.update(got)
        print("%-10s %6.2f s" % (name, wall))
    changed = 0
    for key in sorted(set(old) | set(cells)):
        diffs = list(_changes(old.get(key, {}), cells.get(key, {})))
        changed += bool(diffs)
        for field, a, b in diffs:
            print("%s %s: %s -> %s" % (key, field, json.dumps(a),
                                       json.dumps(b)))
    print("%d of %d cells changed" % (changed, len(cells)))
    # one cell a line, so that a re-recording diffs cell by cell
    with open(BASELINE, "w", encoding="utf-8") as fh:
        fh.write("{\n%s\n}\n" % ",\n".join(
            "%s: %s" % (json.dumps(key), json.dumps(cells[key], sort_keys=True))
            for key in sorted(cells)))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_counters.py --record")
    _record()
