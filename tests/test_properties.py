"""Property tests of the interval kernels against brute force on small boxes.

Bounds lie in [-8..8] or are infinite.  Brute force enumerates operands
inside a window around 0.  For division, every quotient found there must
lie in the computed result (soundness), a smaller box must give a smaller
result (monotonicity), and strong division must refine weak division.
Multiplication and powers must also be minimal: each finite bound of the
result is attained inside the window, and an infinite one is approached
to the window's edge.  Roots are exact on the window.
"""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from intprop.intervals import div, div_weak, exp, mult, root
from intprop.rationals import q_div

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
    strong = div(a, b)
    weak = div_weak(a, b)
    xs = set(members(a))
    for y in members(b):
        for u in WINDOW:
            if u * y in xs:
                assert contains(strong, u), (a, b, u, y)
                assert contains(weak, u), (a, b, u, y)


@SETTINGS
@given(intervals(), intervals())
def test_strong_division_refines_weak(a, b):
    assert issubset(div(a, b), div_weak(a, b))


@SETTINGS
@given(st.data(), intervals(), intervals())
def test_integer_division_is_monotone(data, a, b):
    a2 = data.draw(shrunk(a))
    b2 = data.draw(shrunk(b))
    assert issubset(div(a2, b2), div(a, b)), (a, b, a2, b2)
    assert issubset(div_weak(a2, b2), div_weak(a, b)), (a, b, a2, b2)


@SETTINGS
@given(intervals(), intervals())
def test_rational_division_is_sound(a, b):
    q = q_div(a, b)
    if q is not None:
        assert all(x is None or x[1] > 0 for x in q)
    for y in members(b):
        if y == 0:
            continue
        for x in members(a):
            assert q_contains(q, F(x, y)), (a, b, x, y)


@SETTINGS
@given(st.data(), intervals(), intervals())
def test_rational_division_is_monotone(data, a, b):
    a2 = data.draw(shrunk(a))
    b2 = data.draw(shrunk(b))
    assert q_issubset(q_div(a2, b2), q_div(a, b)), (a, b, a2, b2)


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
    assert_closure(mult(a, b), [x * y for x in members(a) for y in members(b)])


@SETTINGS
@given(st.data(), intervals(), intervals())
def test_multiplication_is_monotone(data, a, b):
    a2 = data.draw(shrunk(a))
    b2 = data.draw(shrunk(b))
    assert issubset(mult(a2, b2), mult(a, b)), (a, b, a2, b2)


@SETTINGS
@given(intervals(), powers)
def test_power_is_sound_and_minimal(a, n):
    assert_closure(exp(a, n), [x ** n for x in members(a)])


@SETTINGS
@given(st.data(), intervals(), powers)
def test_power_is_monotone(data, a, n):
    a2 = data.draw(shrunk(a))
    assert issubset(exp(a2, n), exp(a, n)), (a, a2, n)


@SETTINGS
@given(intervals(), powers)
def test_root_is_exact_on_the_window(a, n):
    parts = root(a, n)
    for u in WINDOW:
        assert any(contains(p, u) for p in parts) == contains(a, u ** n), \
            (a, n, u)


@SETTINGS
@given(st.data(), intervals(), powers)
def test_root_is_monotone(data, a, n):
    a2 = data.draw(shrunk(a))
    big = root(a, n)
    for p in root(a2, n):
        assert any(issubset(p, q) for q in big), (a, a2, n)
