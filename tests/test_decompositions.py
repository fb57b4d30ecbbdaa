"""Decomposition tripwire: what ``decompose`` builds on a small matrix.

Every cell is one problem of the counter tripwire decomposed with one
variant and division.  Its digest covers those two, the variable names and
domains, every field of each auxiliary definition, each rule's class,
``variant``, ``writes`` and ``reads``, the schedule, the readers index, the
branching order, the user rule indices and the infeasible flag; the cell
also keeps the number of rules and of auxiliaries, so that a change shows
its size.
Only public attributes are read, so rules may change their internals.
All of it must equal ``decompositions_baseline.json`` exactly.

A change whose purpose is to alter a decomposition re-records it::

    PYTHONPATH=src python tests/test_decompositions.py --record
"""

import dataclasses
import hashlib
import json
import pathlib
import sys

import pytest

from intprop.decompose import VARIANTS, decompose

from test_counters import PROBLEMS

BASELINE = pathlib.Path(__file__).with_name("decompositions_baseline.json")


def describe(dec):
    """Everything the digest covers, as JSON-ready values."""
    return {
        "variant": dec.variant,
        "division": dec.division,
        "names": dec.names,
        "domains": dec.domains,
        "aux_defs": [[getattr(d, f.name) for f in dataclasses.fields(d)]
                     for d in dec.aux_defs],
        "rules": [[type(r).__name__, r.variant, r.writes, list(r.reads)]
                  for r in dec.rules],
        "schedule": list(dec.schedule),
        "readers": [list(rs) for rs in dec.readers],
        "branch_order": list(dec.branch_order),
        "user_rule_indices": list(dec.user_rule_indices),
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
                "aux": len(dec.aux_defs),
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
    cells = {}
    for name in sorted(PROBLEMS):
        cells.update(run_problem(name))
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
