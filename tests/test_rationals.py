import math
import random
from fractions import Fraction as F

from intprop.intervals import OpCounters, div
from intprop.rationals import q_add, q_div, q_of, q_to_interval
from test_kernel_oracles import mult_oracle


def fr(a):
    """A rational interval with ``(n, d)`` bounds, as ``Fraction`` bounds."""
    if a is None:
        return None
    return tuple(None if x is None else F(*x) for x in a)


class TestQAdd:
    def test_endpoints(self):
        assert (fr(q_add(((1, 3), (1, 2)), ((1, 6), (1, 6)), OpCounters()))
                == (F(1, 2), F(2, 3)))
        assert q_add(((0, 1), (1, 1)), None, OpCounters()) is None
        assert (fr(q_add((None, (2, 1)), ((1, 1), (3, 1)), OpCounters()))
                == (None, 5))

    def test_counted(self):
        c = OpCounters()
        q_add(q_of((0, 1)), q_of((0, 1)), c)
        assert c.q_sum == 1 and c.total() == 1


class TestQDiv:
    def test_positive_den(self):
        assert (fr(q_div((40, 40), (1, 1000000), OpCounters()))
                == (F(1, 25000), 40))

    def test_negative_den(self):
        assert fr(q_div((2, 6), (-3, -1), OpCounters())) == (-6, F(-2, 3))

    def test_counted(self):
        c = OpCounters()
        q_div((1, 2), (1, 2), c)
        assert c.q_div == 1 and c.total() == 1


class TestHalfline:
    # an inequality rounds the half-line below (le) or above (ge) the sum
    def test_le(self):
        assert q_to_interval((None, (131, 3))) == (None, 43)
        assert q_to_interval((None, (41, 1))) == (None, 41)
        assert q_to_interval((None, None)) == (None, None)

    def test_ge(self):
        assert q_to_interval((None, None)) == (None, None)
        assert q_to_interval(((7, 2), None)) == (4, None)

    def test_to_interval(self):
        assert q_to_interval(((1, 3), (10, 3))) == (1, 3)
        assert q_to_interval(((5, 2), (5, 2))) is None
        assert q_to_interval(None) is None


class TestExactness:
    def test_fraction_roundtrip(self):
        rng = random.Random(1)
        for _ in range(200):
            p = rng.randint(-50, 50)
            q = rng.randint(1, 50)
            f = F(p, q)
            assert fr(q_div((p, p), (q, q), OpCounters())) == (f, f)

    def test_agrees_with_integer_division_on_singleton_dens(self):
        rng = random.Random(2)
        for _ in range(300):
            a = sorted(rng.randint(-20, 20) for _ in range(2))
            k = rng.choice([x for x in range(-9, 10) if x != 0])
            got = q_to_interval(q_div((a[0], a[1]), (k, k), OpCounters()))
            want = div((a[0], a[1]), (k, k), OpCounters())
            assert got == want


# ---------------------------------------------------------------------------
# Fraction oracles: the rational arithmetic as it was before bounds became
# unreduced integer pairs (``Fraction`` bounds, reciprocals, and products
# by the four-corner oracle of test_kernel_oracles)

def q_add_oracle(a, b):
    if a is None or b is None:
        return None
    a0, a1 = a
    b0, b1 = b
    return (None if a0 is None or b0 is None else a0 + b0,
            None if a1 is None or b1 is None else a1 + b1)


def q_div_oracle(a, b):
    # a times the reciprocal of a zero-free b
    if a is None or b is None:
        return None
    a0, a1 = a
    b0, b1 = b
    if b0 is not None and b0 > 0:
        recip = (0 if b1 is None else F(1, 1) / b1, F(1, 1) / b0)
    else:
        recip = (F(1, 1) / b1, 0 if b0 is None else F(1, 1) / b0)
    return mult_oracle((a0, a1), recip)


def q_to_halfline_oracle(a, side):
    if a is None:
        return None
    lo, hi = a
    if side == "le":
        return (None, None) if hi is None else (None, math.floor(hi))
    return (None, None) if lo is None else (math.ceil(lo), None)


def q_to_interval_oracle(a):
    if a is None:
        return None
    lo, hi = a
    lo = None if lo is None else math.ceil(lo)
    hi = None if hi is None else math.floor(hi)
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


GRID = [None] + list(range(-9, 10))
GRID_INTERVALS = [(lo, hi) for lo in GRID for hi in GRID
                  if lo is None or hi is None or lo <= hi]
# the denominators q_div takes: none holds 0
ZERO_FREE_GRID_INTERVALS = [
    (lo, hi) for lo, hi in GRID_INTERVALS
    if (lo is not None and lo > 0) or (hi is not None and hi < 0)]


def random_pair_interval(rng):
    # unreduced (n, d) bounds, crossed bounds allowed
    return tuple(None if rng.random() < 0.2
                 else (rng.randint(-40, 40), rng.randint(1, 12))
                 for _ in range(2))


class TestAgainstFractionOracles:
    def test_q_div_on_grid(self):
        for a in GRID_INTERVALS + [None]:
            for b in ZERO_FREE_GRID_INTERVALS + [None]:
                got = q_div(a, b, OpCounters())
                assert fr(got) == q_div_oracle(a, b), (a, b)
                for x in got or ():
                    assert x is None or x[1] > 0

    def test_q_add_on_grid(self):
        qs = [q_of(a) for a in GRID_INTERVALS] + [None]
        for a in qs:
            for b in qs:
                assert (fr(q_add(a, b, OpCounters()))
                        == q_add_oracle(fr(a), fr(b))), (a, b)

    def test_q_add_on_unreduced_pairs(self):
        rng = random.Random(3)
        for _ in range(5000):
            a = random_pair_interval(rng)
            b = random_pair_interval(rng)
            assert (fr(q_add(a, b, OpCounters()))
                    == q_add_oracle(fr(a), fr(b))), (a, b)

    def test_rounding_on_grid(self):
        bounds = [None] + [(n, d) for n in range(-9, 10) for d in range(1, 5)]
        for lo in bounds:
            for hi in bounds:
                a = (lo, hi)
                assert q_to_interval(a) == q_to_interval_oracle(fr(a)), a
                assert (q_to_interval((None, hi))
                        == q_to_halfline_oracle(fr(a), "le")), a
                assert (q_to_interval((lo, None))
                        == q_to_halfline_oracle(fr(a), "ge")), a

    def test_q_of(self):
        for a in GRID_INTERVALS + [None]:
            assert fr(q_of(a)) == a
