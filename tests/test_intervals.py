import random

from intprop.intervals import (
    ALL,
    OpCounters,
    add,
    ceil_root,
    contains,
    div,
    div_halfline,
    div_scalar,
    div_weak,
    exp,
    floor_root,
    hull,
    interior,
    intersect,
    issubset,
    iter_values,
    kind,
    mk,
    mult,
    root,
    scale,
    span,
    sub,
)

B = (None, None)


def iv(lo, hi):
    return (lo, hi)


class TestBasics:
    def test_mk_normalizes_empty(self):
        assert mk(3, 2) is None
        assert mk(2, 2) == (2, 2)
        assert mk(None, 5) == (None, 5)

    def test_kind(self):
        assert kind(None) == "empty"
        assert kind((1, 2)) == "bounded"
        assert kind((1, None)) == "left_bounded"
        assert kind((None, 2)) == "right_bounded"
        assert kind(ALL) == "unbounded"

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
        assert interior(iv(-2, 1)) == (-1, 0)
        assert interior(iv(3, 3)) is None
        assert interior(iv(0, 5)) == (1, 4)
        assert interior((None, 5)) == (None, 4)
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
        assert add(iv(2, 4), iv(3, 8)) == (5, 12)
        assert add(None, iv(1, 2)) is None
        assert add((None, 2), iv(1, 3)) == (None, 5)

    def test_sub(self):
        assert sub(iv(3, 7), iv(1, 8)) == (-5, 6)
        assert sub(iv(0, 0), (1, None)) == (None, -1)

    def test_scale(self):
        assert scale(iv(1, 81), 10) == (10, 810)
        assert scale(iv(3, 5), -1) == (-5, -3)
        assert scale(iv(2, 4), 0) == (0, 0)
        assert scale((1, None), 3) == (3, None)
        assert scale((1, None), -2) == (None, -2)


class TestMult:
    def test_paper_values(self):
        assert mult(iv(3, 3), iv(1, 2)) == (3, 6)
        assert mult(iv(-2, 1), iv(-3, 10)) == (-20, 10)
        assert mult(iv(16, 16), iv(10, 10)) == (160, 160)

    def test_unbounded(self):
        assert mult((0, None), iv(-3, -2)) == (None, 0)
        assert mult((0, None), iv(0, 0)) == (0, 0)
        assert mult((1, None), iv(0, 1)) == (0, None)
        assert mult(ALL, iv(0, 5)) == ALL
        assert mult(ALL, iv(0, 0)) == (0, 0)
        assert mult((1, None), (1, None)) == (1, None)


class TestExpRoot:
    def test_exp(self):
        assert exp(iv(1, 2), 2) == (1, 4)
        assert exp(iv(-2, 3), 3) == (-8, 27)
        assert exp(iv(-3, 2), 2) == (0, 9)
        assert exp((1, None), 3) == (1, None)
        assert exp(ALL, 2) == (0, None)
        assert exp((None, -2), 2) == (4, None)

    def test_root(self):
        assert root(iv(-30, 100), 3) == ((-3, 4),)
        assert root(iv(-100, 9), 2) == ((-3, 3),)
        assert root(iv(1, 9), 2) == ((-3, -1), (1, 3))
        assert root(iv(-10, -1), 2) == ()
        assert root(iv(2, 3), 3) == ()
        assert root(iv(2, 3), 2) == ()
        assert root((4, None), 2) == ((None, -2), (2, None))
        assert root((None, 8), 3) == ((None, 2),)
        assert root(iv(0, 9), 2) == ((-3, 3),)

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
        assert div(iv(-1, 100), iv(-2, 8)) == ALL            # 0 in both
        assert div(iv(10, 100), iv(0, 0)) is None            # zero divisor only
        assert div(iv(-100, -10), iv(-2, 5)) == (-100, 100)  # den straddles 0
        assert div(iv(155, 161), iv(9, 11)) == (16, 16)      # divisor snapping
        assert div(iv(1, 100), iv(-7, 0)) == (-100, -1)      # strip 0 endpoint
        assert div(iv(3, 5), iv(-1, 2)) == (-5, 5)
        assert div(iv(-3, 5), iv(-1, 2)) == ALL

    def test_no_divisor_gives_empty(self):
        assert div(iv(3, 5), iv(7, 9)) is None
        assert div(iv(3, 5), iv(7, 7)) is None

    def test_unbounded(self):
        assert div(iv(10, 100), (2, None)) == (1, 50)
        assert div((10, None), iv(2, 3)) == (4, None)
        assert div((None, -5), iv(3, 3)) == (None, -2)
        assert div((1, None), iv(-1, 2)) == ALL
        assert div(ALL, iv(3, 3)) == ALL

    def test_weak_division(self):
        assert div_weak(iv(155, 161), iv(9, 11)) == (15, 17)
        assert div_weak(iv(8, 10), iv(-3, 10)) == (-10, 10)
        assert div_weak(iv(6, 6), iv(3, 3)) == (2, 2)
        # zero endpoint branch of the weak rule
        assert div_weak(iv(155, 161), iv(0, 11)) == (15, 161)
        assert div_weak(iv(-8, 10), iv(0, 11)) == ALL

    def test_div_scalar(self):
        assert div_scalar(iv(222, 1022), 100) == (3, 10)
        assert div_scalar(iv(7, 7), 2) is None
        assert div_scalar(iv(3, 8), -2) == (-4, -2)
        assert div_scalar(iv(3, 8), 1) == (3, 8)
        assert div_scalar(iv(3, 8), -1) == (-8, -3)
        assert div_scalar(iv(-2, 5), 0) == ALL
        assert div_scalar(iv(2, 5), 0) is None
        assert div_scalar((None, 45), 1) == (None, 45)

    def test_div_halfline(self):
        assert div_halfline((None, 45), iv(1, 100)) == (None, 45)
        assert div_halfline((None, 45), iv(-2, 3)) == ALL
        assert div_halfline((None, -10), iv(-1, -1)) == (10, None)
        assert div_halfline((None, 43), iv(1, 27)) == (None, 43)
        assert div_halfline((None, -10), iv(3, None)) == (None, -1)
        assert div_halfline((5, None), iv(2, 3)) == (2, None)
        assert div_halfline(ALL, iv(2, 3)) == ALL
        assert div_halfline((None, -1), iv(0, 0)) is None
        # a bounded numerator gets the weak quotient
        assert div_halfline(iv(155, 161), iv(9, 11)) == (15, 17)


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
        div_halfline((None, 8), iv(2, 2), c)
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
            assert as_set(add(a, b)) == exact_set("add", sa, sb)
            assert as_set(sub(a, b)) == exact_set("sub", sa, sb)
            for n in (1, 2, 3, 4):
                assert as_set(root(a, n)) == exact_set("root", sa, n=n)

    def test_closure_minimality(self):
        # mult/div/exp return the smallest interval containing the exact set
        rng = random.Random(8)
        for _ in range(400):
            a = random_interval(rng)
            b = random_interval(rng)
            sa, sb = as_set(a), as_set(b)
            m = mult(a, b)
            es = exact_set("mult", sa, sb)
            assert m == (min(es), max(es))
            q = div(a, b)
            eq = exact_set("div", sa, sb)
            if eq is None:
                assert q == ALL
            elif not eq:
                assert q is None
            else:
                assert q == (min(eq), max(eq))
            for n in (1, 2, 3):
                ee = exact_set("exp", sa, n=n)
                assert exp(a, n) == (min(ee), max(ee))

    def test_weak_contains_strong(self):
        rng = random.Random(9)
        for _ in range(500):
            a = random_interval(rng)
            b = random_interval(rng)
            assert issubset(div(a, b), div_weak(a, b))

    def test_weak_equals_strong_on_singletons(self):
        for x in UNIVERSE:
            for y in UNIVERSE:
                assert div((x, x), (y, y)) == div_weak((x, x), (y, y))

    def test_root_exp_inversion(self):
        rng = random.Random(10)
        for _ in range(200):
            a = random_interval(rng)
            for n in (1, 2, 3, 4):
                parts = root(exp(a, n), n)
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
            strong = div(a, b)
            weak = div_weak(a, b)
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
            got = div_halfline((None, h), b)
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
            assert issubset(add(a, b), add(a2, b2))
            assert issubset(sub(a, b), sub(a2, b2))
            assert issubset(mult(a, b), mult(a2, b2))
            assert issubset(div(a, b), div(a2, b2))
            assert issubset(div_weak(a, b), div_weak(a2, b2))
            for n in (2, 3):
                assert issubset(exp(a, n), exp(a2, n))
                small = root(a, n)
                big = root(a2, n)
                for p in small:
                    assert any(issubset(p, q) for q in big)
