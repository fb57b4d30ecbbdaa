"""The layer trace of ``perfbench/run.py --trace 1`` still finds its hooks.

``perfbench/layertrace.py`` wraps the program's functions by name from
outside.  A rename in ``intprop`` breaks it without failing any other test,
so this runs one traced solve per variant that reaches each rule family.
"""

import pathlib
import sys

import pytest

from intprop import rules
from intprop.model import parse
from intprop.search import solve_all

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# a linear equality under fe, a linear inequality, a disequality, and a
# polynomial with a square and a product for Poly, Mult, Expo and RootX
TEXT = """
    var x in [1..6]; var y in [1..6]; var z in [0..80];
    constraint x^2*y + x*y = z;
    constraint x + y <= 9;
    constraint x != y;
    solve all;
"""
SOLUTIONS = [(x, y, x * y * (x + 1)) for x in range(1, 7) for y in range(1, 7)
             if x + y <= 9 and x != y and x * y * (x + 1) <= 80]


@pytest.fixture
def layertrace(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace
    return layertrace


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_rule_class_has_a_family(layertrace):
    missing = [cls.__name__ for cls in _subclasses(rules.Rule)
               if cls.__name__ not in layertrace.FAMILIES]
    assert not missing


def test_traced_solve_reaches_every_hook(layertrace):
    tracer = layertrace.Tracer()
    uninstall = layertrace.install(tracer)
    try:
        for variant in ("fe", "du", "do"):
            for division in ("weak", "strong"):
                sols, _ = solve_all(parse(TEXT), variant, division)
                assert sorted(sols) == SOLUTIONS
    finally:
        uninstall()
    names = ["rules." + family
             for family in dict.fromkeys(layertrace.FAMILIES.values())]
    names += ["rules.eval_monomial", "engine.propagate"]
    uncalled = [name for name in names
                if name not in tracer.agg or not tracer.agg[name].calls]
    assert not uncalled
