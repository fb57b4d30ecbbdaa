import random
import time

from intprop import intervals
from intprop.intervals import (
    ALL,
    OpCounters,
    add,
    ceil_root,
    div,
    div_scalar,
    div_weak,
    exp,
    floor_root,
    intersect,
    mk,
    mult,
    root,
    scale,
    span,
    sub,
)
from intprop.rationals import q_add, q_div, q_of

from interval_sets import contains, hull, issubset, iter_values

B = (None, None)


def iv(lo, hi):
    return (lo, hi)


class TestBasics:
    def test_mk_normalizes_empty(self):
        assert mk(3, 2) is None
        assert mk(2, 2) == (2, 2)
        assert mk(None, 5) == (None, 5)

    def test_intersect(self):
        assert intersect(iv(1, 20), iv(16, 16)) == (16, 16)
        assert intersect(iv(1, 5), None) is None
        assert intersect(ALL, iv(3, 7)) == (3, 7)
        assert intersect(iv(1, 3), iv(5, 9)) is None
        assert intersect((None, 10), (5, None)) == (5, 10)

    def test_hull_interior_span(self):
        assert hull({3, 6}) == (3, 6)
        assert hull(set()) is None
        assert hull({5}) == (5, 5)
        assert span(iv(1, 2), iv(5, 9)) == (1, 9)
        assert span(None, iv(1, 2)) == (1, 2)

    def test_issubset(self):
        assert issubset(iv(2, 3), iv(1, 4))
        assert issubset(None, iv(1, 1))
        assert not issubset(iv(0, 5), iv(1, 4))
        assert issubset(iv(1, 4), ALL)
        assert not issubset(ALL, iv(1, 4))


class TestAddSubScale:
    def test_add(self):
        assert add(iv(2, 4), iv(3, 8), OpCounters()) == (5, 12)
        assert add(None, iv(1, 2), OpCounters()) is None
        assert add((None, 2), iv(1, 3), OpCounters()) == (None, 5)

    def test_sub(self):
        assert sub(iv(3, 7), iv(1, 8), OpCounters()) == (-5, 6)
        assert sub(iv(0, 0), (1, None), OpCounters()) == (None, -1)

    def test_scale(self):
        assert scale(iv(1, 81), 10, OpCounters()) == (10, 810)
        assert scale(iv(3, 5), -1, OpCounters()) == (-5, -3)
        assert scale(iv(2, 4), 0, OpCounters()) == (0, 0)
        assert scale((1, None), 3, OpCounters()) == (3, None)
        assert scale((1, None), -2, OpCounters()) == (None, -2)


class TestMult:
    def test_paper_values(self):
        assert mult(iv(3, 3), iv(1, 2), OpCounters()) == (3, 6)
        assert mult(iv(-2, 1), iv(-3, 10), OpCounters()) == (-20, 10)
        assert mult(iv(16, 16), iv(10, 10), OpCounters()) == (160, 160)

    def test_unbounded(self):
        assert mult((0, None), iv(-3, -2), OpCounters()) == (None, 0)
        assert mult((0, None), iv(0, 0), OpCounters()) == (0, 0)
        assert mult((1, None), iv(0, 1), OpCounters()) == (0, None)
        assert mult(ALL, iv(0, 5), OpCounters()) == ALL
        assert mult(ALL, iv(0, 0), OpCounters()) == (0, 0)
        assert mult((1, None), (1, None), OpCounters()) == (1, None)


class TestExpRoot:
    def test_exp(self):
        assert exp(iv(1, 2), 2, OpCounters()) == (1, 4)
        assert exp(iv(-2, 3), 3, OpCounters()) == (-8, 27)
        assert exp(iv(-3, 2), 2, OpCounters()) == (0, 9)
        assert exp((1, None), 3, OpCounters()) == (1, None)
        assert exp(ALL, 2, OpCounters()) == (0, None)
        assert exp((None, -2), 2, OpCounters()) == (4, None)

    def test_root(self):
        assert root(iv(-30, 100), 3, OpCounters()) == ((-3, 4),)
        assert root(iv(-100, 9), 2, OpCounters()) == ((-3, 3),)
        assert root(iv(1, 9), 2, OpCounters()) == ((-3, -1), (1, 3))
        assert root(iv(-10, -1), 2, OpCounters()) == ()
        assert root(iv(2, 3), 3, OpCounters()) == ()
        assert root(iv(2, 3), 2, OpCounters()) == ()
        assert root((4, None), 2, OpCounters()) == ((None, -2), (2, None))
        assert root((None, 8), 3, OpCounters()) == ((None, 2),)
        assert root(iv(0, 9), 2, OpCounters()) == ((-3, 3),)

    def test_integer_roots(self):
        for x in list(range(0, 200)) + [10 ** 30, 10 ** 30 + 1, 2 ** 64]:
            for n in (1, 2, 3, 4, 5):
                f = floor_root(x, n)
                assert f >= 0 and f ** n <= x < (f + 1) ** n
                c = ceil_root(x, n)
                # smallest non-negative root for even n
                assert c >= 0 and x <= c ** n
                assert c == 0 or (c - 1) ** n < x
        for x in range(-200, 0):
            for n in (1, 3, 5):
                f = floor_root(x, n)
                assert f ** n <= x < (f + 1) ** n
                c = ceil_root(x, n)
                assert (c - 1) ** n < x <= c ** n

    def test_huge_root_is_exact(self):
        big = (10 ** 40 + 7) ** 3
        assert floor_root(big, 3) == 10 ** 40 + 7
        assert floor_root(big - 1, 3) == 10 ** 40 + 6
        assert ceil_root(big + 1, 3) == 10 ** 40 + 8


class TestDiv:
    def test_case_analysis(self):
        # 0 in both
        assert div(iv(-1, 100), iv(-2, 8), OpCounters()) == ALL
        # zero divisor only
        assert div(iv(10, 100), iv(0, 0), OpCounters()) is None
        # den straddles 0
        assert div(iv(-100, -10), iv(-2, 5), OpCounters()) == (-100, 100)
        # divisor snapping
        assert div(iv(155, 161), iv(9, 11), OpCounters()) == (16, 16)
        # strip 0 endpoint
        assert div(iv(1, 100), iv(-7, 0), OpCounters()) == (-100, -1)
        assert div(iv(3, 5), iv(-1, 2), OpCounters()) == (-5, 5)
        assert div(iv(-3, 5), iv(-1, 2), OpCounters()) == ALL

    def test_no_divisor_gives_empty(self):
        assert div(iv(3, 5), iv(7, 9), OpCounters()) is None
        assert div(iv(3, 5), iv(7, 7), OpCounters()) is None

    def test_unbounded(self):
        assert div(iv(10, 100), (2, None), OpCounters()) == (1, 50)
        assert div((10, None), iv(2, 3), OpCounters()) == (4, None)
        assert div((None, -5), iv(3, 3), OpCounters()) == (None, -2)
        assert div((1, None), iv(-1, 2), OpCounters()) == ALL
        assert div(ALL, iv(3, 3), OpCounters()) == ALL

    def test_weak_division(self):
        assert div_weak(iv(155, 161), iv(9, 11), OpCounters()) == (15, 17)
        assert div_weak(iv(8, 10), iv(-3, 10), OpCounters()) == (-10, 10)
        assert div_weak(iv(6, 6), iv(3, 3), OpCounters()) == (2, 2)
        # zero endpoint branch of the weak rule
        assert div_weak(iv(155, 161), iv(0, 11), OpCounters()) == (15, 161)
        assert div_weak(iv(-8, 10), iv(0, 11), OpCounters()) == ALL

    def test_div_scalar(self):
        assert div_scalar(iv(222, 1022), 100, OpCounters()) == (3, 10)
        assert div_scalar(iv(7, 7), 2, OpCounters()) is None
        assert div_scalar(iv(3, 8), -2, OpCounters()) == (-4, -2)
        assert div_scalar(iv(3, 8), 1, OpCounters()) == (3, 8)
        assert div_scalar(iv(3, 8), -1, OpCounters()) == (-8, -3)
        assert div_scalar(iv(-2, 5), 0, OpCounters()) == ALL
        assert div_scalar(iv(2, 5), 0, OpCounters()) is None
        assert div_scalar((None, 45), 1, OpCounters()) == (None, 45)

    def test_div_halfline(self):
        assert div_weak((None, 45), iv(1, 100), OpCounters()) == (None, 45)
        assert div_weak((None, 45), iv(-2, 3), OpCounters()) == ALL
        assert (div_weak((None, -10), iv(-1, -1), OpCounters())
                == (10, None))
        assert div_weak((None, 43), iv(1, 27), OpCounters()) == (None, 43)
        assert (div_weak((None, -10), iv(3, None), OpCounters())
                == (None, -1))
        assert div_weak((5, None), iv(2, 3), OpCounters()) == (2, None)
        assert div_weak(ALL, iv(2, 3), OpCounters()) == ALL
        assert div_weak((None, -1), iv(0, 0), OpCounters()) is None
        # a bounded numerator gets the weak quotient
        assert div_weak(iv(155, 161), iv(9, 11), OpCounters()) == (15, 17)


def scan_divisors_oracle(c, d, a0, a1):
    # the divisor snap as a linear scan: test each y of [c..d] in turn,
    # from below for the least divisor and from above for the greatest
    def divides_some(m):
        return m * (a1 // m) >= a0

    lo = None
    y = c
    while y <= d:
        if divides_some(-y if y < 0 else y):
            lo = y
            break
        y += 1
    if lo is None:
        return None
    y = d
    while y >= lo:
        if divides_some(-y if y < 0 else y):
            return (lo, y)
        y -= 1
    return (lo, lo)


class TestDivisorSnap:
    def test_matches_linear_scan_on_small_ranges(self):
        r = range(-15, 16)
        nums = [(a0, a1) for a0 in r for a1 in r
                if a0 <= a1 and (a0 > 0 or a1 < 0)]
        for c in r:
            for d in range(c - 1, 16):
                if c <= 0 <= d:
                    continue
                for a0, a1 in nums:
                    assert (intervals._scan_divisors(c, d, a0, a1)
                            == scan_divisors_oracle(c, d, a0, a1)), (c, d, a0, a1)

    def test_matches_linear_scan_up_to_10_12(self):
        # large magnitudes, denominator ranges short enough for the oracle
        rng = random.Random(5)
        for _ in range(3000):
            a0 = rng.randint(1, 10 ** rng.randint(1, 12))
            a1 = a0 + int(10 ** rng.uniform(0, rng.randint(0, 7)))
            c = rng.randint(1, a1 + 10)
            d = c + rng.randint(0, 1500)
            if rng.random() < 0.5:
                a0, a1 = -a1, -a0
            if rng.random() < 0.5:
                c, d = -d, -c
            assert (intervals._scan_divisors(c, d, a0, a1)
                    == scan_divisors_oracle(c, d, a0, a1)), (c, d, a0, a1)

    def test_div_matches_linear_scan_on_grid(self, monkeypatch):
        # div with the block snap against div with the linear scan, on
        # every pair of intervals with bounds in [-9..9] or infinite
        g = [None] + list(range(-9, 10))
        ivs = [(lo, hi) for lo in g for hi in g
               if lo is None or hi is None or lo <= hi] + [None]
        got = [div(a, b, OpCounters()) for a in ivs for b in ivs]
        monkeypatch.setattr(intervals, "_scan_divisors", scan_divisors_oracle)
        assert got == [div(a, b, OpCounters()) for a in ivs for b in ivs]

    def test_large_range_snaps_quickly(self):
        # a linear scan takes seconds here, and minutes near 10**9
        t0 = time.perf_counter()
        assert (div((10 ** 7 + 3,) * 2, (2, 10 ** 7), OpCounters())
                == (13, 769231))
        p = 10 ** 9 + 7     # prime: no divisor in [2..10**9]
        assert div((p, p), (2, 10 ** 9), OpCounters()) is None
        assert div((-p, -p), (-10 ** 9, -2), OpCounters()) is None
        assert time.perf_counter() - t0 < 1.0

    def test_huge_numerator_falls_back_to_the_weak_quotient(self):
        # an uncapped snap would take about 2 * 10**9 blocks here
        p = 10 ** 18 + 3    # prime: no divisor in [2..10**12]
        t0 = time.perf_counter()
        for a, b in (((p, p), (2, 10 ** 12)), ((-p, -p), (2, 10 ** 12)),
                     ((p, p), (-10 ** 12, -2))):
            assert (div(a, b, OpCounters())
                    == div_weak(a, b, OpCounters()) is not None)
        assert time.perf_counter() - t0 < 2.0

    def test_block_cap_gives_a_superset_of_the_exact_quotient(
            self, monkeypatch):
        a, b = (10 ** 7 + 3,) * 2, (2, 10 ** 7)
        assert div(a, b, OpCounters()) == (13, 769231)
        monkeypatch.setattr(intervals, "_MAX_BLOCKS", 3)
        assert (div(a, b, OpCounters()) == div_weak(a, b, OpCounters())
                == (2, 5000001))


class TestCounters:
    def test_each_op_bumps_one_category(self):
        c = OpCounters()
        add(iv(1, 2), iv(3, 4), c)
        sub(iv(1, 2), iv(3, 4), c)
        assert c.sum == 2
        scale(iv(1, 2), 5, c)
        assert c.multF == 1
        mult(iv(1, 2), iv(3, 4), c)
        assert c.multI == 1
        div(iv(4, 8), iv(2, 2), c)
        div_weak(iv(4, 8), iv(2, 2), c)
        div_weak((None, 8), iv(2, 2), c)
        assert c.div == 3
        div_scalar(iv(4, 8), 2, c)
        assert c.div == 4
        div_scalar(iv(4, 8), -1, c)
        assert c.multF == 2
        exp(iv(1, 2), 3, c)
        assert c.exp == 1
        root(iv(1, 9), 2, c)
        assert c.root == 1
        assert c.total() == 11
        assert c.as_dict()["total"] == 11

    def test_every_call_bumps_exactly_one_category_once(self):
        # all counted kernels, on every operand with bounds in [-4..4] or
        # infinite and on the empty interval, also where the result is
        # decided before any arithmetic; every bound they return is None
        # or exactly an int (the oracles compare with ==, which cannot tell
        # 1 from 1.0 or True)
        g = [None] + list(range(-4, 5))
        ivs = [(lo, hi) for lo in g for hi in g
               if lo is None or hi is None or lo <= hi] + [None]

        def q_add_of(a, b, ctr):
            return q_add(q_of(a), q_of(b), ctr)

        calls = [(f, (a, b)) for f in (add, sub, mult, div, div_weak,
                                       q_add_of)
                 for a in ivs for b in ivs]
        # q_div takes only denominators without 0
        calls += [(q_div, (a, b)) for a in ivs for b in ivs
                  if b is None or (b[0] is not None and b[0] > 0)
                  or (b[1] is not None and b[1] < 0)]
        calls += [(f, (a, k)) for f in (scale, div_scalar)
                  for a in ivs for k in range(-3, 4)]
        calls += [(f, (a, n)) for f in (exp, root)
                  for a in ivs for n in range(1, 5)]

        def returned_ints(f, out):
            # the bounds of each part of a root, both components of each
            # rational bound, the bounds of any other result
            parts = out if f is root else () if out is None else (out,)
            for part in parts:
                for x in part:
                    if f in (q_add_of, q_div) and x is not None:
                        yield from x
                    else:
                        yield x

        wrong = []
        for f, args in calls:
            c = OpCounters()
            out = f(*args, c)
            bumps = [getattr(c, name) for name in OpCounters.CATEGORIES]
            if c.total() != 1 or bumps.count(1) != 1:
                wrong.append((f.__name__,) + args)
            if any(x is not None and type(x) is not int
                   for x in returned_ints(f, out)):
                wrong.append((f.__name__,) + args + (out,))
        assert wrong == []


# ---------------------------------------------------------------------------
# enumeration oracle on small bounds

LO, HI = -12, 12
UNIVERSE = range(LO, HI + 1)


def exact_set(op, A, B=None, n=None):
    if op == "add":
        return {x + y for x in A for y in B}
    if op == "sub":
        return {x - y for x in A for y in B}
    if op == "mult":
        return {x * y for x in A for y in B}
    if op == "div":
        # u*y = x for some x in A, y in B; unbounded when 0 in both
        if 0 in A and 0 in B:
            return None
        lim = max((abs(x) for x in A), default=0)
        return {u for u in range(-lim, lim + 1)
                for y in B if u * y in A}
    if op == "exp":
        return {x ** n for x in A}
    if op == "root":
        lim = max((abs(x) for x in A), default=0) + 1
        return {u for u in range(-lim, lim + 1) if u ** n in A}
    raise AssertionError(op)


def as_set(interval_or_parts):
    if interval_or_parts is None:
        return set()
    if interval_or_parts == ():
        return set()
    if isinstance(interval_or_parts[0], tuple):
        out = set()
        for p in interval_or_parts:
            out |= set(iter_values(p))
        return out
    return set(iter_values(interval_or_parts))


def random_interval(rng):
    a = rng.randint(LO, HI)
    b = rng.randint(LO, HI)
    return (min(a, b), max(a, b))


class TestEnumerationOracle:
    def test_exactness_of_interval_closed_ops(self):
        # sums, differences and roots of intervals are themselves intervals
        rng = random.Random(7)
        for _ in range(300):
            a = random_interval(rng)
            b = random_interval(rng)
            sa, sb = as_set(a), as_set(b)
            assert as_set(add(a, b, OpCounters())) == exact_set("add", sa, sb)
            assert as_set(sub(a, b, OpCounters())) == exact_set("sub", sa, sb)
            for n in (1, 2, 3, 4):
                assert (as_set(root(a, n, OpCounters()))
                        == exact_set("root", sa, n=n))

    def test_closure_minimality(self):
        # mult/div/exp return the smallest interval containing the exact set
        rng = random.Random(8)
        for _ in range(400):
            a = random_interval(rng)
            b = random_interval(rng)
            sa, sb = as_set(a), as_set(b)
            m = mult(a, b, OpCounters())
            es = exact_set("mult", sa, sb)
            assert m == (min(es), max(es))
            q = div(a, b, OpCounters())
            eq = exact_set("div", sa, sb)
            if eq is None:
                assert q == ALL
            elif not eq:
                assert q is None
            else:
                assert q == (min(eq), max(eq))
            for n in (1, 2, 3):
                ee = exact_set("exp", sa, n=n)
                assert exp(a, n, OpCounters()) == (min(ee), max(ee))

    def test_weak_contains_strong(self):
        rng = random.Random(9)
        for _ in range(500):
            a = random_interval(rng)
            b = random_interval(rng)
            assert issubset(div(a, b, OpCounters()),
                            div_weak(a, b, OpCounters()))

    def test_weak_equals_strong_on_singletons(self):
        for x in UNIVERSE:
            for y in UNIVERSE:
                assert (div((x, x), (y, y), OpCounters())
                        == div_weak((x, x), (y, y), OpCounters()))

    def test_root_exp_inversion(self):
        rng = random.Random(10)
        for _ in range(200):
            a = random_interval(rng)
            for n in (1, 2, 3, 4):
                parts = root(exp(a, n, OpCounters()), n, OpCounters())
                for x in iter_values(a):
                    assert any(contains(p, x) for p in parts)

    def test_division_with_infinite_bounds(self):
        # bounds in [-9..9] or infinite: a solution y of u*y in a, y in b
        # exists within UNIVERSE whenever one exists at all
        rng = random.Random(13)
        window = range(-30, 31)

        def draw():
            lo, hi = (None if rng.random() < 0.3 else rng.randint(-9, 9)
                      for _ in range(2))
            if lo is not None and hi is not None and lo > hi:
                lo, hi = hi, lo
            return (lo, hi)

        for _ in range(2000):
            a = draw()
            b = draw()
            strong = div(a, b, OpCounters())
            weak = div_weak(a, b, OpCounters())
            ys = [y for y in UNIVERSE if contains(b, y)]
            for u in window:
                if any(contains(a, u * y) for y in ys):
                    assert contains(strong, u) and contains(weak, u), (a, b, u)
            assert issubset(strong, weak), (a, b)
            if a[0] is None or a[1] is None or contains(a, 0):
                assert strong == weak, (a, b)

    def test_halfline_division_matches_enumeration(self):
        rng = random.Random(11)
        lim = 60
        for _ in range(300):
            h = rng.randint(LO, HI)
            b = random_interval(rng)
            sb = as_set(b)
            got = div_weak((None, h), b, OpCounters())
            # a half-line numerator is never snapped
            assert div((None, h), b, OpCounters()) == got
            want = {u for u in range(-lim, lim + 1)
                    for y in sb if u * y <= h}
            if not want:
                assert got is None
                continue
            # always sound: the exact quotient is inside the returned hull
            assert all(contains(got, u) for u in want)
            # half-bounded results attain their finite bound exactly
            if got == ALL:
                assert max(want) >= lim // 2 and min(want) <= -lim // 2
            elif got[0] is None:
                assert got[1] in want and got[1] + 1 not in want
            else:
                assert got[0] in want and got[0] - 1 not in want

    def test_monotonicity(self):
        rng = random.Random(12)
        for _ in range(400):
            a = random_interval(rng)
            b = random_interval(rng)
            a2 = (a[0] - rng.randint(0, 2), a[1] + rng.randint(0, 2))
            b2 = (b[0] - rng.randint(0, 2), b[1] + rng.randint(0, 2))
            assert issubset(add(a, b, OpCounters()), add(a2, b2, OpCounters()))
            assert issubset(sub(a, b, OpCounters()), sub(a2, b2, OpCounters()))
            assert issubset(mult(a, b, OpCounters()),
                            mult(a2, b2, OpCounters()))
            assert issubset(div(a, b, OpCounters()), div(a2, b2, OpCounters()))
            assert issubset(div_weak(a, b, OpCounters()),
                            div_weak(a2, b2, OpCounters()))
            for n in (2, 3):
                assert issubset(exp(a, n, OpCounters()),
                                exp(a2, n, OpCounters()))
                small = root(a, n, OpCounters())
                big = root(a2, n, OpCounters())
                for p in small:
                    assert any(issubset(p, q) for q in big)
