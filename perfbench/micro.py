"""Micro-timings of single layers, reported with the traced run.

``intervals.<op>.<class>_ns`` times one call of an interval operation (or
of ``rules.eval_monomial``) on three classes of operands: small bounded
intervals, intervals with one infinite bound, and bounded intervals with
big-integer endpoints.  ``engine.idle_sweep_us`` times one engine sweep
over the generated schedule of a decomposed ``fractions`` solver at its
fixpoint, with only the readers of one variable pending; none of them
changes anything.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from intprop import decompose, engine, intervals, model, rationals, rules

from problems import fractions_text

B = 10 ** 30

# op -> class -> arguments before the counter sink
CASES = {
    "mult": {
        "bounded": ((-7, 13), (3, 29)),
        "halfline": ((-7, None), (3, 29)),
        "bigint": ((-B + 7, 10 * B), (3 * B, 5 * B + 9)),
    },
    "div": {
        "bounded": ((1000, 1010), (7, 300)),
        "halfline": ((1000, None), (7, 300)),
        "bigint": ((B, 2 * B), (10 ** 10, 10 ** 12)),
    },
    "div_weak": {
        "bounded": ((1000, 1010), (7, 300)),
        "halfline": ((1000, None), (7, 300)),
        "bigint": ((B, 2 * B), (10 ** 10, 10 ** 12)),
    },
    "root": {
        "bounded": ((50, 5000), 2),
        "halfline": ((50, None), 3),
        "bigint": ((B, 100 * B), 3),
    },
    "exp": {
        "bounded": ((-7, 13), 3),
        "halfline": ((-7, None), 2),
        "bigint": ((10 ** 20, 10 ** 21), 3),
    },
    "q_div": {
        "bounded": ((3, 17), (2, 9)),
        "halfline": ((3, None), (2, 9)),
        "bigint": ((B, 10 * B), (10 ** 10, 10 ** 11)),
    },
    "eval_monomial": {
        "bounded": (3, ((0, 2), (1, 1), (2, 3)), [(-3, 5), (2, 9), (1, 4)]),
        "halfline": (3, ((0, 2), (1, 1), (2, 3)),
                     [(-3, None), (2, 9), (1, 4)]),
        "bigint": (3, ((0, 2), (1, 1), (2, 3)),
                   [(-B, B), (B, 2 * B), (1, B)]),
    },
}

_OWNERS = {"q_div": rationals, "eval_monomial": rules}


def _per_call(fn, args, target=0.004, repeats=7):
    """Median seconds per call over ``repeats`` loops of ~``target`` s."""
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn(*args)
        if perf_counter() - t0 >= target / 4:
            break
        n *= 4
    n = max(1, int(n * target / max(perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(n):
            fn(*args)
        samples.append((perf_counter() - t0) / n)
    return statistics.median(samples)


def interval_timings():
    out = {}
    for op, classes in CASES.items():
        fn = getattr(_OWNERS.get(op, intervals), op)
        for cls, args in classes.items():
            ctr = intervals.OpCounters()
            out["intervals.%s.%s_ns" % (op, cls)] = (
                _per_call(fn, args + (ctr,)) * 1e9)
    return out


def idle_sweep_us():
    csp = model.parse(fractions_text(()))
    dec = decompose(csp, "fe", "weak")
    solver = engine.Solver(dec)
    solver.flag_all()
    if solver.propagate() != engine.FIXPOINT:
        raise RuntimeError("fractions root propagation failed")
    # the variable with the fewest readers: propagating it applies just
    # those, and the engine still sweeps the whole schedule
    var = min((v for v in range(len(dec.names)) if dec.readers[v]),
              key=lambda v: (len(dec.readers[v]), v))
    before = solver.applications
    if solver.propagate([var]) != engine.FIXPOINT or (
            solver.applications - before != len(dec.readers[var])):
        raise RuntimeError("idle sweep applied more than the readers")
    return _per_call(solver.propagate, ([var],)) * 1e6
