"""Property tests of the interval kernels against brute force on small boxes.

Bounds lie in [-8..8] or are infinite.  Brute force enumerates operands
inside a window around 0.  For division, every quotient found there must
lie in the computed result (soundness), a smaller box must give a smaller
result (monotonicity), and strong division must refine weak division.
Rational division is drawn only with denominators without 0, the only
ones its caller passes.  Multiplication and powers must also be minimal:
each finite bound of the result is attained inside the window, and an
infinite one is approached to the window's edge.  Roots are exact on the
window.

Every rule class is checked the same way on boxes of three variables: a
rule keeps every value that a brute-force solution of its constraint
inside the box takes (soundness), and a sub-box gives a result inside the
full box's result (monotonicity).  The simplified-fraction mode of
``PolyRule`` (variant ``do``) is monotone only between boxes that take the
same path, fractions or plain, so only such pairs are compared for it.
"""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intprop.intervals import OpCounters, div, div_weak, exp, mult, root
from intprop.model import (
    MultAtom,
    PolynomialConstraint,
    PowerAtom,
    check_assignment,
)
from intprop.rationals import q_div
from intprop.rules import (
    UNCHANGED,
    DiseqCheckRule,
    DiseqVarConstRule,
    DiseqVarVarRule,
    ExpoRule,
    LinearEqRule,
    LinearIneqRule,
    MultRule,
    PolyRule,
    RootXRule,
    _Residuals,
)

from interval_sets import contains, issubset

WINDOW = range(-40, 41)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None)

bound = st.one_of(st.none(), st.integers(-8, 8))
powers = st.integers(1, 4)


@st.composite
def intervals(draw):
    lo, hi = draw(bound), draw(bound)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return (lo, hi)


@st.composite
def zero_free_intervals(draw):
    """An interval on one side of 0, as the denominator of ``q_div`` is."""
    lo = draw(st.integers(1, 8))
    hi = draw(st.one_of(st.none(), st.integers(lo, 8)))
    if draw(st.booleans()):
        return (lo, hi)
    return (None if hi is None else -hi, -lo)


@st.composite
def shrunk(draw, a):
    """A non-empty sub-interval of ``a``."""
    lo, hi = a
    if lo is None:
        lo = draw(st.one_of(st.none(), st.integers(-8, 8 if hi is None else hi)))
    else:
        lo = draw(st.integers(lo, lo + 3 if hi is None else hi))
    lower = -8 if lo is None else lo
    if hi is None:
        hi = draw(st.one_of(st.none(), st.integers(lower, max(lower, 8))))
    else:
        hi = draw(st.integers(lower, hi))
    return (lo, hi)


def members(a):
    return [x for x in WINDOW if contains(a, x)]


def q_contains(q, x):
    if q is None:
        return False
    lo, hi = q
    return ((lo is None or F(*lo) <= x) and (hi is None or x <= F(*hi)))


def q_issubset(p, q):
    if p is None:
        return True
    if q is None:
        return False
    (p0, p1), (q0, q1) = p, q
    return ((q0 is None or (p0 is not None and F(*p0) >= F(*q0)))
            and (q1 is None or (p1 is not None and F(*p1) <= F(*q1))))


@SETTINGS
@given(intervals(), intervals())
def test_integer_division_is_sound(a, b):
    strong = div(a, b, OpCounters())
    weak = div_weak(a, b, OpCounters())
    xs = set(members(a))
    for y in members(b):
        for u in WINDOW:
            if u * y in xs:
                assert contains(strong, u), (a, b, u, y)
                assert contains(weak, u), (a, b, u, y)


@SETTINGS
@given(intervals(), intervals())
def test_strong_division_refines_weak(a, b):
    assert issubset(div(a, b, OpCounters()), div_weak(a, b, OpCounters()))


@SETTINGS
@given(st.data(), intervals(), intervals())
def test_integer_division_is_monotone(data, a, b):
    a2 = data.draw(shrunk(a))
    b2 = data.draw(shrunk(b))
    assert issubset(div(a2, b2, OpCounters()),
                    div(a, b, OpCounters())), (a, b, a2, b2)
    assert issubset(div_weak(a2, b2, OpCounters()),
                    div_weak(a, b, OpCounters())), (a, b, a2, b2)


@SETTINGS
@given(intervals(), zero_free_intervals())
def test_rational_division_is_sound(a, b):
    q = q_div(a, b, OpCounters())
    if q is not None:
        assert all(x is None or x[1] > 0 for x in q)
    for y in members(b):
        for x in members(a):
            assert q_contains(q, F(x, y)), (a, b, x, y)


@SETTINGS
@given(st.data(), intervals(), zero_free_intervals())
def test_rational_division_is_monotone(data, a, b):
    a2 = data.draw(shrunk(a))
    b2 = data.draw(shrunk(b))
    assert q_issubset(q_div(a2, b2, OpCounters()),
                      q_div(a, b, OpCounters())), (a, b, a2, b2)


def assert_closure(result, values):
    """``result`` is the smallest interval holding every member of the
    operation's image, given its members ``values`` from the window."""
    lo, hi = result
    assert all(contains(result, x) for x in values), (result, values)
    edge = WINDOW[-1]
    assert (min(values) == lo) if lo is not None else (min(values) <= -edge)
    assert (max(values) == hi) if hi is not None else (max(values) >= edge)


@SETTINGS
@given(intervals(), intervals())
def test_multiplication_is_sound_and_minimal(a, b):
    assert_closure(mult(a, b, OpCounters()),
                   [x * y for x in members(a) for y in members(b)])


@SETTINGS
@given(st.data(), intervals(), intervals())
def test_multiplication_is_monotone(data, a, b):
    a2 = data.draw(shrunk(a))
    b2 = data.draw(shrunk(b))
    assert issubset(mult(a2, b2, OpCounters()),
                    mult(a, b, OpCounters())), (a, b, a2, b2)


@SETTINGS
@given(intervals(), powers)
def test_power_is_sound_and_minimal(a, n):
    assert_closure(exp(a, n, OpCounters()), [x ** n for x in members(a)])


@SETTINGS
@given(st.data(), intervals(), powers)
def test_power_is_monotone(data, a, n):
    a2 = data.draw(shrunk(a))
    assert issubset(exp(a2, n, OpCounters()),
                    exp(a, n, OpCounters())), (a, a2, n)


@SETTINGS
@given(intervals(), powers)
def test_root_is_exact_on_the_window(a, n):
    parts = root(a, n, OpCounters())
    for u in WINDOW:
        assert any(contains(p, u) for p in parts) == contains(a, u ** n), \
            (a, n, u)


@SETTINGS
@given(st.data(), intervals(), powers)
def test_root_is_monotone(data, a, n):
    a2 = data.draw(shrunk(a))
    big = root(a, n, OpCounters())
    for p in root(a2, n, OpCounters()):
        assert any(issubset(p, q) for q in big), (a, a2, n)


# ---------------------------------------------------------------------------
# rule classes

RULE_WINDOW = range(-10, 11)
NVARS = 3

# an infinite bound in one draw of fourteen: brute force enumerates the
# window for it, so mostly bounded boxes keep the enumeration small
rule_bound = st.sampled_from([None] + list(range(-6, 7)))
coefficients = st.sampled_from([-3, -2, -1, 1, 2, 3])
rhs = st.integers(-12, 12)
divisions = st.sampled_from(["weak", "strong"])


@st.composite
def boxes(draw):
    box = []
    for _ in range(NVARS):
        lo, hi = draw(rule_bound), draw(rule_bound)
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        box.append((lo, hi))
    return box


@st.composite
def linear_case(draw, cls):
    vs = draw(st.lists(st.integers(0, NVARS - 1), min_size=1, max_size=NVARS,
                       unique=True))
    coeffs = [(draw(coefficients), v) for v in vs]
    b = draw(rhs)
    j = draw(st.integers(0, len(coeffs) - 1))
    op = "eq" if cls is LinearEqRule else "le"
    c = PolynomialConstraint(tuple((a, ((v, 1),)) for a, v in coeffs), op, b)
    return c, cls(coeffs, b, j)


power_products = st.lists(
    st.tuples(st.integers(0, NVARS - 1), st.integers(1, 2)),
    min_size=1, max_size=NVARS, unique_by=lambda ve: ve[0]).map(
        lambda ves: tuple(sorted(ves)))


@st.composite
def poly_case(draw):
    pps = draw(st.lists(power_products, min_size=1, max_size=3, unique=True))
    mons = tuple((draw(coefficients), pp) for pp in pps)
    c = PolynomialConstraint(mons, draw(st.sampled_from(["eq", "le"])),
                             draw(rhs))
    l = draw(st.integers(0, len(mons) - 1))
    vj = draw(st.sampled_from([v for v, _ in mons[l][1]]))
    return c, PolyRule(c, l, vj, draw(divisions), draw(st.booleans()),
                       shared=_Residuals(c))


@st.composite
def mult_case(draw):
    # x * y = z, or x * x = z when squaring (two directions only)
    kind = draw(st.integers(1, 3))
    y = draw(st.sampled_from([0, 1])) if kind != 3 else 1
    return MultAtom(0, y, 2), MultRule(kind, 0, y, 2, draw(divisions))


@st.composite
def power_case(draw, cls):
    n = draw(st.integers(2, 4))
    return PowerAtom(0, 1, n), cls(0, 1, n)


@st.composite
def diseq_var_var_case(draw):
    shift = draw(st.integers(-4, 4))
    c = PolynomialConstraint(((1, ((0, 1),)), (-1, ((1, 1),))), "ne", shift)
    target, other = draw(st.permutations([0, 1]))
    return c, DiseqVarVarRule(target, other,
                              shift if target == 0 else -shift)


@st.composite
def diseq_var_const_case(draw):
    value = draw(st.integers(-8, 8))
    return (PolynomialConstraint(((1, ((0, 1),)),), "ne", value),
            DiseqVarConstRule(0, value))


@st.composite
def diseq_check_case(draw):
    pps = draw(st.lists(power_products, min_size=1, max_size=3, unique=True))
    mons = tuple((draw(coefficients), pp) for pp in pps)
    c = PolynomialConstraint(mons, "ne", draw(rhs))
    return c, DiseqCheckRule(c)


# a strategy of (constraint, rule) per rule class; each draws the class's
# variants: PolyRule eq/le x weak/strong x plain/optimized, MultRule
# kinds 1-3 x both divisions
RULE_CASES = {
    "LinearEqRule": linear_case(LinearEqRule),
    "LinearIneqRule": linear_case(LinearIneqRule),
    "PolyRule": poly_case(),
    "MultRule": mult_case(),
    "ExpoRule": power_case(ExpoRule),
    "RootXRule": power_case(RootXRule),
    "DiseqVarVarRule": diseq_var_var_case(),
    "DiseqVarConstRule": diseq_var_const_case(),
    "DiseqCheckRule": diseq_check_case(),
}


def rule_members(a):
    return [x for x in RULE_WINDOW if contains(a, x)]


def solutions(c, box):
    """Every assignment inside ``box`` and the window satisfying ``c``."""
    values = [None] * NVARS
    for combo in itertools.product(*map(rule_members, box)):
        values[:] = combo
        if check_assignment(c, values):
            yield combo


def applied(rule, box):
    """The domain the rule gives its written variable on ``box``; the
    rule changes nothing else, and reports a change exactly when it
    makes one."""
    store = list(box)
    w = rule.apply(store, OpCounters(), {})
    assert all(store[v] == box[v] for v in range(NVARS) if v != rule.writes)
    assert w == (UNCHANGED if store == box else rule.writes), (w, box, store)
    return store[rule.writes]


def fractions_path(rule, box):
    """Whether ``rule`` takes the simplified-fraction path on ``box``."""
    return (isinstance(rule, PolyRule) and rule.optimized
            and not any(contains(box[v], 0) for v in rule.s_vars))


def assert_sound(c, rule, box):
    got = applied(rule, box)
    for s in solutions(c, box):
        assert contains(got, s[rule.writes]), (c, rule, box, got, s)
    return got


@pytest.mark.parametrize("cls", sorted(RULE_CASES))
@SETTINGS
@given(data=st.data())
def test_rule_is_sound_and_monotone(cls, data):
    c, rule = data.draw(RULE_CASES[cls])
    box = data.draw(boxes())
    sub = [data.draw(shrunk(d)) for d in box]
    full = assert_sound(c, rule, box)
    part = assert_sound(c, rule, sub)
    if fractions_path(rule, box) == fractions_path(rule, sub):
        assert issubset(part, full), (c, rule, box, sub)


def test_optimized_poly_rule_is_not_monotone_across_paths():
    # -3*x0*x1^2*x2^2 + x0^2 - x1 = -9, strong division, the rule for x1
    # in the first monomial: neither box has a solution, but the full box
    # (plain path, x2 spans 0) empties x1 while the sub-box (fractions
    # path) keeps x1 = 0.  A fix changes the work of variant do.
    c = PolynomialConstraint(((-3, ((0, 1), (1, 2), (2, 2))),
                              (1, ((0, 2),)), (-1, ((1, 1),))), "eq", -9)
    rule = PolyRule(c, 0, 1, "strong", optimized=True, shared=_Residuals(c))
    box = [(-3, -2), (-2, 5), (-6, 0)]
    sub = [(-3, -2), (-2, 5), (-3, -1)]
    assert not list(solutions(c, box))
    assert applied(rule, box) is None
    assert applied(rule, sub) == (0, 0)
