"""The whole pipeline against brute force.

Hypothesis draws small problems as *texts*: a few variables with boxes in
[-5..5], some declared ``in Z`` and bounded only by two constraints, so
that root propagation starts from unbounded domains; up to three
polynomial constraints under every comparison operator; sometimes a
``maximize`` goal.  Each text goes through ``parse``, ``normalize``,
``decompose``, propagation and search under every variant, division and
schedule.  Monotone, contracting rules share one greatest common fixpoint
(Apt, "The essence of constraint propagation", TCS 1999), so every one of
the 28 runs must find exactly what enumerating the box finds: the same
solutions without duplicates, an assignment reaching the same optimum, or
``Infeasible``.  Each run is made twice, and the second must repeat every
counter of the first.

The same problems, run under ``do``, also pin the precondition of
``rationals.q_div``: no denominator it is given holds 0.
"""

import itertools
import operator
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intprop import VARIANTS, Infeasible, maximize, parse, rules, solve_all

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)

NAMES = ("w", "x", "y", "z")

COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}

CONFIGS = [(variant, division, mode)
           for variant in VARIANTS
           for division in ("weak", "strong")
           for mode in ("scheduled", "cycle")]


@st.composite
def monomials(draw, nvars, min_size, max_size):
    """A list of ``(coeff, exponents)``; ``exponents[i]`` is the power of
    variable ``i``, 0 when absent."""
    return draw(st.lists(
        st.tuples(st.integers(-4, 4),
                  st.lists(st.integers(0, 3), min_size=nvars,
                           max_size=nvars)),
        min_size=min_size, max_size=max_size))


@st.composite
def problems(draw):
    """``(text, boxes, constraints, objective)``: the problem text and
    what brute force needs of it.  A constraint is ``(lhs, op, rhs)``
    with monomial lists on both sides."""
    nvars = draw(st.integers(1, 4))
    boxes = []
    lines = []
    bounds = []
    for name in NAMES[:nvars]:
        lo = draw(st.integers(-5, 5))
        hi = draw(st.integers(lo, 5))
        boxes.append((lo, hi))
        if draw(st.integers(0, 3)) == 0:
            lines.append("var %s in Z;" % name)
            bounds.append("constraint %s >= %d;" % (name, lo))
            bounds.append("constraint %d >= %s;" % (hi, name))
        else:
            lines.append("var %s in [%d..%d];" % (name, lo, hi))
    lines += bounds
    constraints = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(monomials(nvars, 1, 4))
        split = draw(st.integers(1, len(terms)))
        lhs = terms[:split]
        rhs = terms[split:] + [(draw(st.integers(-10, 10)), [0] * nvars)]
        op = draw(st.sampled_from(sorted(COMPARE)))
        constraints.append((lhs, op, rhs))
        lines.append("constraint %s %s %s;" % (render(lhs), op, render(rhs)))
    objective = None
    if draw(st.booleans()):
        objective = draw(monomials(nvars, 1, 2))
        lines.append("maximize %s;" % render(objective))
    return "\n".join(lines), boxes, constraints, objective


def render(terms):
    out = ""
    for coeff, exps in terms:
        factors = [str(abs(coeff))]
        for name, e in zip(NAMES, exps):
            if e:
                factors.append(name if e == 1 else "%s^%d" % (name, e))
        sign = "-" if coeff < 0 else "+"
        if not out:
            out = ("-" if coeff < 0 else "") + "*".join(factors)
        else:
            out += " %s %s" % (sign, "*".join(factors))
    return out


def value(terms, point):
    total = 0
    for coeff, exps in terms:
        t = coeff
        for x, e in zip(point, exps):
            t *= x ** e
        total += t
    return total


def enumerate_box(boxes, constraints):
    ranges = [range(lo, hi + 1) for lo, hi in boxes]
    return {point for point in itertools.product(*ranges)
            if all(COMPARE[op](value(lhs, point), value(rhs, point))
                   for lhs, op, rhs in constraints)}


def work(stats):
    return (stats.nvar, stats.n_rules, stats.nodes, stats.solutions,
            stats.drf_applications, stats.drf_effective,
            stats.counters.as_dict(), stats.complete, stats.incumbents)


def run(text, variant, division, mode):
    """The outcome of one configuration and its statistics: the sorted
    solutions, ``(best, value)`` of a maximization, or ``"infeasible"``."""
    csp = parse(text)
    args = dict(variant=variant, division=division, mode=mode)
    if csp.objective is None:
        sols, stats = solve_all(csp, **args)
        return sorted(sols), stats
    try:
        best, best_value, stats = maximize(csp, **args)
    except Infeasible as e:
        return "infeasible", e.stats
    return (best, best_value), stats


@SETTINGS
@given(problems())
def test_every_configuration_matches_brute_force(problem):
    text, boxes, constraints, objective = problem
    want = enumerate_box(boxes, constraints)
    for config in CONFIGS:
        got, stats = run(text, *config)
        again, stats_again = run(text, *config)
        assert got == again, (config, text)
        assert stats.complete, (config, text)
        assert work(stats) == work(stats_again), (config, text)
        if objective is None:
            assert got == sorted(want), (config, text)
        elif not want:
            assert got == "infeasible", (config, text)
        else:
            assert got != "infeasible", (config, text)
            best, best_value = got
            assert best in want, (config, text)
            optimum = max(value(objective, p) for p in want)
            assert value(objective, best) == best_value == optimum, \
                (config, text)


def test_fractions_path_divides_by_zero_free_denominators_only():
    # rationals.q_div has no case for a denominator holding 0: the
    # simplified-fraction rules (variant do) take that path only while
    # every divisor variable excludes 0.  Drawn problems have boxes of
    # both signs, and the spy fails on any denominator that holds 0.
    signs = Counter()
    q_div = rules.q_div

    def spy(a, b, ctr):
        if b is not None:
            b0, b1 = b
            if (b0 is None or b0 <= 0) and (b1 is None or b1 >= 0):
                raise AssertionError("q_div denominator holds 0: %r" % (b,))
            signs[b0 is not None and b0 > 0] += 1
        return q_div(a, b, ctr)

    @SETTINGS
    @given(problems())
    def run_do(problem):
        for division in ("weak", "strong"):
            run(problem[0], "do", division, "scheduled")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rules, "q_div", spy)
        run_do()
    assert signs[True] > 0 and signs[False] > 0, signs
