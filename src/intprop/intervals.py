"""Arbitrary-precision integer interval arithmetic.

An interval value is either ``None`` (the empty set) or a pair ``(lo, hi)``
of bounds, where ``lo`` is an ``int`` or ``None`` for minus infinity and
``hi`` is an ``int`` or ``None`` for plus infinity.  Non-empty pairs always
satisfy ``lo <= hi``; constructors normalize crossed bounds to ``None`` so
the empty set has a single representation.

Multiplication, division and exponentiation of interval sets need not yield
intervals, so those operations return the smallest enclosing interval (the
closure is all of Z, i.e. ``(None, None)``, when the set is unbounded on
both sides).  Root extraction is exact and may return a union of up to two
intervals; it is deliberately not closed into one interval because the gap
around zero is what makes even-power propagation useful.

Division is one case analysis on 0 in the operands; :func:`div` (exact)
snaps the denominator's bounds to divisors of the numerator before the
endpoint formula, :func:`div_weak` does not.

Every arithmetic operation optionally takes an :class:`OpCounters` sink and
bumps exactly one category; intersection and interior are not counted.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Tuple

Bound = Optional[int]
Interval = Optional[Tuple[Bound, Bound]]

ALL: Interval = (None, None)
EMPTY: Interval = None

_INF = math.inf


class OpCounters:
    """Tally of interval operations by category, one instance per solver."""

    CATEGORIES = ("root", "exp", "div", "multI", "multF", "sum", "q_div", "q_sum")

    __slots__ = CATEGORIES

    def __init__(self) -> None:
        for name in self.CATEGORIES:
            setattr(self, name, 0)

    def total(self) -> int:
        return sum(getattr(self, name) for name in self.CATEGORIES)

    def as_dict(self) -> dict:
        d = {name: getattr(self, name) for name in self.CATEGORIES}
        d["total"] = self.total()
        return d

    def __repr__(self) -> str:
        parts = ", ".join("%s=%d" % (k, getattr(self, k)) for k in self.CATEGORIES)
        return "OpCounters(%s)" % parts


def mk(lo: Bound, hi: Bound) -> Interval:
    """Build an interval, normalizing crossed finite bounds to empty."""
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


def contains(a: Interval, x: int) -> bool:
    if a is None:
        return False
    lo, hi = a
    return (lo is None or lo <= x) and (hi is None or x <= hi)


def contains_zero(a: Interval) -> bool:
    if a is None:
        return False
    lo, hi = a
    return (lo is None or lo <= 0) and (hi is None or hi >= 0)


def kind(a: Interval) -> str:
    """One of 'empty', 'bounded', 'left_bounded', 'right_bounded', 'unbounded'."""
    if a is None:
        return "empty"
    lo, hi = a
    if lo is None and hi is None:
        return "unbounded"
    if lo is None:
        return "right_bounded"
    if hi is None:
        return "left_bounded"
    return "bounded"


def iter_values(a: Interval) -> Iterable[int]:
    """Iterate the members of a bounded interval (test/oracle helper)."""
    if a is None:
        return
    lo, hi = a
    if lo is None or hi is None:
        raise ValueError("cannot enumerate an unbounded interval")
    yield from range(lo, hi + 1)


# ---------------------------------------------------------------------------
# lattice operations (uncounted)

def intersect(a: Interval, b: Interval) -> Interval:
    if a is None or b is None:
        return None
    a0, a1 = a
    b0, b1 = b
    lo = b0 if a0 is None else (a0 if b0 is None or a0 >= b0 else b0)
    hi = b1 if a1 is None else (a1 if b1 is None or a1 <= b1 else b1)
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


def span(a: Interval, b: Interval) -> Interval:
    """Smallest interval containing both arguments."""
    if a is None:
        return b
    if b is None:
        return a
    a0, a1 = a
    b0, b1 = b
    lo = None if a0 is None or b0 is None else (a0 if a0 <= b0 else b0)
    hi = None if a1 is None or b1 is None else (a1 if a1 >= b1 else b1)
    return (lo, hi)


def issubset(a: Interval, b: Interval) -> bool:
    if a is None:
        return True
    if b is None:
        return False
    a0, a1 = a
    b0, b1 = b
    lo_ok = b0 is None or (a0 is not None and a0 >= b0)
    hi_ok = b1 is None or (a1 is not None and a1 <= b1)
    return lo_ok and hi_ok


def hull(values: Iterable[int]) -> Interval:
    """Smallest interval containing a finite set of integers."""
    vs = list(values)
    if not vs:
        return None
    return (min(vs), max(vs))


def interior(a: Interval) -> Interval:
    """Strip one unit from each finite bound."""
    if a is None:
        return None
    lo, hi = a
    return mk(None if lo is None else lo + 1, None if hi is None else hi - 1)


def negate(a: Interval) -> Interval:
    if a is None:
        return None
    lo, hi = a
    return (None if hi is None else -hi, None if lo is None else -lo)


# ---------------------------------------------------------------------------
# counted arithmetic

def add(a: Interval, b: Interval, ctr: Optional[OpCounters] = None) -> Interval:
    if ctr is not None:
        ctr.sum += 1
    if a is None or b is None:
        return None
    a0, a1 = a
    b0, b1 = b
    return (None if a0 is None or b0 is None else a0 + b0,
            None if a1 is None or b1 is None else a1 + b1)


def sub(a: Interval, b: Interval, ctr: Optional[OpCounters] = None) -> Interval:
    if ctr is not None:
        ctr.sum += 1
    if a is None or b is None:
        return None
    a0, a1 = a
    b0, b1 = b
    return (None if a0 is None or b1 is None else a0 - b1,
            None if a1 is None or b0 is None else a1 - b0)


def scale(a: Interval, k: int, ctr: Optional[OpCounters] = None) -> Interval:
    """Multiply by an integer factor; exact (the image is an interval)."""
    if ctr is not None:
        ctr.multF += 1
    if a is None:
        return None
    if k == 0:
        return (0, 0)
    a0, a1 = a
    if k > 0:
        return (None if a0 is None else a0 * k, None if a1 is None else a1 * k)
    return (None if a1 is None else a1 * k, None if a0 is None else a0 * k)


def _xmul(x, y):
    # endpoint product with infinity absorption; inf * 0 is 0 because a
    # bounded factor of zero pins that corner of the product set
    if x == 0 or y == 0:
        return 0
    if isinstance(x, float) or isinstance(y, float):
        return _INF if (x > 0) == (y > 0) else -_INF
    return x * y


def mult(a: Interval, b: Interval, ctr: Optional[OpCounters] = None) -> Interval:
    """Closure of the set product of two intervals."""
    if ctr is not None:
        ctr.multI += 1
    if a is None or b is None:
        return None
    a0, a1 = a
    b0, b1 = b
    if a0 is not None and a1 is not None and b0 is not None and b1 is not None:
        p = a0 * b0
        q = a0 * b1
        r = a1 * b0
        s = a1 * b1
        return (min(p, q, r, s), max(p, q, r, s))
    return mult_bounds(a0, a1, b0, b1)


def mult_bounds(a0, a1, b0, b1):
    """Uncounted closure of [a0..a1] * [b0..b1], ``None`` bounds infinite.

    Exact for ``int`` and ``fractions.Fraction`` bounds alike.
    """
    xa0 = -_INF if a0 is None else a0
    xa1 = _INF if a1 is None else a1
    xb0 = -_INF if b0 is None else b0
    xb1 = _INF if b1 is None else b1
    cands = (_xmul(xa0, xb0), _xmul(xa0, xb1), _xmul(xa1, xb0), _xmul(xa1, xb1))
    lo = min(cands)
    hi = max(cands)
    return (None if lo == -_INF else lo, None if hi == _INF else hi)


def exp(a: Interval, n: int, ctr: Optional[OpCounters] = None) -> Interval:
    """Closure of {x**n | x in a} for n >= 1."""
    if ctr is not None:
        ctr.exp += 1
    if a is None:
        return None
    a0, a1 = a
    if n % 2 == 1:
        return (None if a0 is None else a0 ** n, None if a1 is None else a1 ** n)
    if a0 is not None and a0 >= 0:
        return (a0 ** n, None if a1 is None else a1 ** n)
    if a1 is not None and a1 <= 0:
        return (a1 ** n, None if a0 is None else a0 ** n)
    if a0 is None or a1 is None:
        return (0, None)
    return (0, max(a0 ** n, a1 ** n))


# --- integer n-th roots, exact on arbitrary precision ----------------------

def _iroot(x: int, n: int) -> int:
    # floor n-th root of x >= 0 via integer Newton, no floating point
    if x < 2:
        return x
    if n == 2:
        return math.isqrt(x)
    t = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        nt = ((n - 1) * t + x // t ** (n - 1)) // n
        if nt >= t:
            break
        t = nt
    while t ** n > x:
        t -= 1
    return t


def floor_root(x: int, n: int) -> int:
    """Largest t with t**n <= x (n odd for negative x)."""
    if n == 1:
        return x
    if x >= 0:
        return _iroot(x, n)
    r = _iroot(-x, n)
    return -r if r ** n == -x else -r - 1


def ceil_root(x: int, n: int) -> int:
    """Smallest t with t**n >= x (n odd for negative x)."""
    if n == 1:
        return x
    if x >= 0:
        r = _iroot(x, n)
        return r if r ** n == x else r + 1
    return -_iroot(-x, n)


def root(a: Interval, n: int, ctr: Optional[OpCounters] = None) -> Tuple[Interval, ...]:
    """Exact set {x | x**n in a} as a union of at most two intervals.

    Returns a tuple of disjoint, ascending, non-adjacent parts; empty tuple
    for the empty set.  Not interval-closed on purpose.
    """
    if ctr is not None:
        ctr.root += 1
    if a is None:
        return ()
    a0, a1 = a
    if n % 2 == 1:
        iv = mk(None if a0 is None else ceil_root(a0, n),
                None if a1 is None else floor_root(a1, n))
        return () if iv is None else (iv,)
    if a1 is not None and a1 < 0:
        return ()
    rhi = None if a1 is None else floor_root(a1, n)
    ap = 0 if a0 is None or a0 < 0 else a0
    rlo = ceil_root(ap, n)
    if rlo == 0:
        return ((None if rhi is None else -rhi, rhi),)
    if rhi is not None and rlo > rhi:
        return ()
    return ((None if rhi is None else -rhi, -rlo), (rlo, rhi))


# --- division ---------------------------------------------------------------

def _fdivx(x, y):
    # floor(x / y) where x, y may be +-inf floats; y != 0
    if isinstance(x, float):
        return _INF if (x > 0) == (y > 0) else -_INF
    if isinstance(y, float):
        if x == 0:
            return 0
        return 0 if (x > 0) == (y > 0) else -1
    return x // y


def _endpoint_div(a0, a1, c, d) -> Interval:
    # [ceil(min A) .. floor(max A)] over A = {a0/c, a0/d, a1/c, a1/d}
    if a0 is not None and a1 is not None and c is not None and d is not None:
        p = -((-a0) // c)
        q = -((-a0) // d)
        r = -((-a1) // c)
        s = -((-a1) // d)
        lo = min(p, q, r, s)
        p = a0 // c
        q = a0 // d
        r = a1 // c
        s = a1 // d
        hi = max(p, q, r, s)
        return None if lo > hi else (lo, hi)
    xa0 = -_INF if a0 is None else a0
    xa1 = _INF if a1 is None else a1
    xc = -_INF if c is None else c
    xd = _INF if d is None else d
    # ceil(x / y) == -floor(-x / y)
    lo = -max(_fdivx(-xa0, xc), _fdivx(-xa0, xd), _fdivx(-xa1, xc), _fdivx(-xa1, xd))
    hi = max(_fdivx(xa0, xc), _fdivx(xa0, xd), _fdivx(xa1, xc), _fdivx(xa1, xd))
    return mk(None if lo == -_INF else lo, None if hi == _INF else hi)


def _divides_some(m: int, a0: int, a1: int) -> bool:
    # does some element of non-empty [a0..a1] have m > 0 as a divisor
    return m * (a1 // m) >= a0


def _scan_divisors(c: int, d: int, a0: int, a1: int):
    # least/greatest element of [c..d] dividing some member of [a0..a1];
    # 0 is never in [c..d] here
    lo = None
    y = c
    while y <= d:
        if _divides_some(-y if y < 0 else y, a0, a1):
            lo = y
            break
        y += 1
    if lo is None:
        return None
    y = d
    while y >= lo:
        if _divides_some(-y if y < 0 else y, a0, a1):
            return (lo, y)
        y -= 1
    return (lo, lo)


def _quotient(a, b, exact: bool) -> Interval:
    # the one case analysis behind div and div_weak (see div)
    if a is None or b is None:
        return None
    a0, a1 = a
    b0, b1 = b
    if (b0 is None or b0 <= 0) and (b1 is None or b1 >= 0):
        if (a0 is None or a0 <= 0) and (a1 is None or a1 >= 0):
            return ALL
        if b0 == 0 and b1 == 0:
            return None
        if b0 != 0 and b1 != 0:
            if a0 is None or a1 is None:
                return ALL
            e = max(-a0 if a0 < 0 else a0, -a1 if a1 < 0 else a1)
            return (-e, e)
        # one bound of the denominator is exactly 0: strip it
        if b0 == 0:
            b0 = 1
        else:
            b1 = -1
    if exact and a0 is not None and a1 is not None and (a0 > 0 or a1 < 0):
        # snap the denominator bounds to values dividing some numerator
        # member; such a value is at most max |numerator| in magnitude
        e = max(-a0 if a0 < 0 else a0, -a1 if a1 < 0 else a1)
        if b0 is None or b0 < -e:
            b0 = -e
        if b1 is None or b1 > e:
            b1 = e
        cd = _scan_divisors(b0, b1, a0, a1)
        if cd is None:
            return None
        b0, b1 = cd
    return _endpoint_div(a0, a1, b0, b1)


def div(a: Interval, b: Interval, ctr: Optional[OpCounters] = None) -> Interval:
    """Closure of the set quotient {u | u*y = x for some x in a, y in b}.

    One case analysis on 0 in the operands: 0 in both gives Z; a zero
    singleton denominator with a zero-free numerator gives empty; a
    denominator straddling 0 gives the symmetric interval bounded by
    max |numerator| (Z when the numerator is unbounded); a zero endpoint of
    the denominator is stripped.  What is left is a zero-free denominator,
    and the endpoint formula applies after snapping its bounds to values
    that divide some member of the numerator.
    """
    if ctr is not None:
        ctr.div += 1
    return _quotient(a, b, True)


def div_weak(a: Interval, b: Interval, ctr: Optional[OpCounters] = None) -> Interval:
    """Endpoint-formula quotient: a superset of :func:`div`, cheaper.

    The same case analysis as :func:`div` without the snapping step, so
    bounds may be off by the rounding of the endpoint fractions.  The two
    differ only on a bounded numerator without 0: every non-zero value
    divides some member of an unbounded numerator or one containing 0, so
    there snapping changes nothing.  They also coincide on singletons.
    """
    if ctr is not None:
        ctr.div += 1
    return _quotient(a, b, False)


def div_scalar(a: Interval, k: int, ctr: Optional[OpCounters] = None) -> Interval:
    """Exact quotient by a one-point set {k}; always an interval.

    Division by a unit is carried out (and counted) as scaling.
    """
    if a is None:
        return None
    if k == 1 or k == -1:
        if ctr is not None:
            ctr.multF += 1
        return a if k == 1 else negate(a)
    if ctr is not None:
        ctr.div += 1
    if k == 0:
        return ALL if contains_zero(a) else None
    a0, a1 = a
    if k > 0:
        lo = None if a0 is None else -((-a0) // k)
        hi = None if a1 is None else a1 // k
    else:
        lo = None if a1 is None else -((-a1) // k)
        hi = None if a0 is None else a0 // k
    return mk(lo, hi)


# A half-line numerator is never snapped, so div and div_weak agree on it
# and half-lines need no routine of their own.  The name is kept only
# because perfbench/layertrace.py wraps it by name; delete it once that
# list drops it.
div_halfline = div_weak
