"""Decomposition tripwire: what ``decompose`` builds on a small matrix.

Every cell is one problem of the counter tripwire decomposed with one
variant and division.  Its digest covers those two, the variable names and
domains, each constraint by kind and fields (the auxiliary definitions
come first, so they are covered too), each rule's class, ``variant``,
``writes`` and ``reads``, the schedule, the readers index and the
infeasible flag; the cell also keeps the number of rules and of
auxiliaries, so that a change shows its size.
Only public attributes are read, so rules may change their internals.
All of it must equal ``decompositions_baseline.json`` exactly.

A change whose purpose is to alter a decomposition re-records it, and the
recording prints each cell whose digest changed::

    PYTHONPATH=src python tests/test_decompositions.py --record
"""

import hashlib
import json
import pathlib
import sys

import pytest

from intprop.decompose import VARIANTS, decompose
from intprop.model import MultAtom, PolynomialConstraint, PowerAtom

from test_counters import PROBLEMS

BASELINE = pathlib.Path(__file__).with_name("decompositions_baseline.json")


def constraint_fields(c):
    """One constraint as its kind and fields."""
    if isinstance(c, MultAtom):
        return ["mul", c.x, c.y, c.z]
    if isinstance(c, PowerAtom):
        return ["pow", c.x, c.y, c.n]
    if isinstance(c, PolynomialConstraint):
        return ["poly", c.monomials, c.op, c.rhs]
    raise TypeError("no description of %r" % (c,))


def describe(dec):
    """Everything the digest covers, as JSON-ready values."""
    return {
        "variant": dec.variant,
        "division": dec.division,
        "names": dec.names,
        "domains": dec.domains,
        "constraints": [constraint_fields(c) for c in dec.constraints],
        "rules": [[type(r).__name__, r.variant, r.writes, list(r.reads)]
                  for r in dec.rules],
        "schedule": list(dec.schedule),
        "readers": [list(rs) for rs in dec.readers],
        "infeasible": dec.infeasible,
    }


def run_problem(name):
    """Every cell of one problem, keyed ``problem/variant/division``."""
    csp = PROBLEMS[name]()
    cells = {}
    for variant in VARIANTS:
        for division in ("weak", "strong"):
            dec = decompose(csp, variant, division)
            text = json.dumps(describe(dec), sort_keys=True)
            cells["/".join((name, variant, division))] = {
                "digest": hashlib.sha256(text.encode()).hexdigest(),
                "rules": len(dec.rules),
                "aux": len(dec.names) - dec.n_user,
            }
    return cells


@pytest.fixture(scope="module")
def baseline():
    with open(BASELINE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_decompositions_match_baseline(name, baseline):
    cells = run_problem(name)
    want = {key: cell for key, cell in baseline.items()
            if key.startswith(name + "/")}
    assert sorted(cells) == sorted(want)
    differing = {key: {"got": cells[key], "want": want[key]}
                 for key in cells if cells[key] != want[key]}
    assert not differing


def _record():
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            old = json.load(fh)
    except FileNotFoundError:
        old = {}
    cells = {}
    for name in sorted(PROBLEMS):
        cells.update(run_problem(name))
    changed = [key for key in sorted(set(old) | set(cells))
               if old.get(key) != cells.get(key)]
    for key in changed:
        print("%s: %s -> %s" % (key, json.dumps(old.get(key), sort_keys=True),
                                json.dumps(cells.get(key), sort_keys=True)))
    print("%d of %d cells changed" % (len(changed), len(cells)))
    # one cell a line, so that a re-recording diffs cell by cell
    with open(BASELINE, "w", encoding="utf-8") as fh:
        fh.write("{\n%s\n}\n" % ",\n".join(
            "%s: %s" % (json.dumps(key), json.dumps(cells[key], sort_keys=True))
            for key in sorted(cells)))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_decompositions.py "
                 "--record")
    _record()
