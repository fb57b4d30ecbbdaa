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
endpoint formula, :func:`div_weak` does not, and :func:`div_scalar` is
that quotient with a singleton denominator {k}.

The endpoint formulas of :func:`mult` and of the quotient are classified
by sign, after the tables of Hickey, Ju & van Emden, "Interval arithmetic:
from principles to implementation" (JACM 2001).  Each operand is
non-negative, non-positive or straddles 0; every pair of classes names the
corners that bound the result, so a product takes two multiplications
(four only when both factors straddle 0) and a quotient by a zero-free
denominator two floor divisions.  The tables read an infinite (``None``)
bound as the infinity its position implies, so each kernel has one path,
in integers only.  :func:`exp` and :func:`root` split on sign in the same
way.  These tables are written only here: ``rules.MultRule`` and
``rules.eval_monomial`` inline the finite non-negative row alone and call
these kernels for every other case.

Every arithmetic operation takes an :class:`OpCounters` sink and bumps
exactly one category, also for an empty operand; the lattice operations
(intersection, span, negation) are not counted.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

Bound = Optional[int]
Interval = Optional[Tuple[Bound, Bound]]

ALL: Interval = (None, None)
EMPTY: Interval = None


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


def negate(a: Interval) -> Interval:
    if a is None:
        return None
    lo, hi = a
    return (None if hi is None else -hi, None if lo is None else -lo)


# ---------------------------------------------------------------------------
# counted arithmetic

def add(a: Interval, b: Interval, ctr: OpCounters) -> Interval:
    ctr.sum += 1
    if a is None or b is None:
        return None
    a0, a1 = a
    b0, b1 = b
    return (None if a0 is None or b0 is None else a0 + b0,
            None if a1 is None or b1 is None else a1 + b1)


def sub(a: Interval, b: Interval, ctr: OpCounters) -> Interval:
    ctr.sum += 1
    if a is None or b is None:
        return None
    a0, a1 = a
    b0, b1 = b
    return (None if a0 is None or b1 is None else a0 - b1,
            None if a1 is None or b0 is None else a1 - b0)


def scale(a: Interval, k: int, ctr: OpCounters) -> Interval:
    """Multiply by an integer factor; exact (the image is an interval)."""
    ctr.multF += 1
    if a is None:
        return None
    if k == 0:
        return (0, 0)
    a0, a1 = a
    if k > 0:
        return (None if a0 is None else a0 * k, None if a1 is None else a1 * k)
    return (None if a1 is None else a1 * k, None if a0 is None else a0 * k)


def _times(x: Bound, y: Bound) -> Bound:
    # a corner product; an infinite (None) factor makes it the infinity of
    # the corner's position, as no table row pairs an infinity with 0
    return None if x is None or y is None else x * y


def mult(a: Interval, b: Interval, ctr: OpCounters) -> Interval:
    """Closure of the set product of two intervals.

    With {0} set aside, each operand is classified by sign (non-negative,
    non-positive, straddling 0), and each of the nine class pairs takes the
    endpoint products of Hickey, Ju & van Emden's multiplication table: two
    products, except when both straddle 0, where the lower bound is the
    lesser of the two negative corners and the upper bound the greater of
    the two positive ones.  An infinite (``None``) bound is read as the
    infinity its position implies: no row multiplies it by 0, so a corner
    with an infinite factor is infinite.
    """
    ctr.multI += 1
    if a is None or b is None:
        return None
    if a == (0, 0) or b == (0, 0):
        return (0, 0)
    a0, a1 = a
    b0, b1 = b
    if a0 is not None and a0 >= 0:
        if b0 is not None and b0 >= 0:
            return (a0 * b0, _times(a1, b1))
        if b1 is not None and b1 <= 0:
            return (_times(a1, b0), a0 * b1)
        return (_times(a1, b0), _times(a1, b1))
    if a1 is not None and a1 <= 0:
        if b0 is not None and b0 >= 0:
            return (_times(a0, b1), a1 * b0)
        if b1 is not None and b1 <= 0:
            return (a1 * b1, _times(a0, b0))
        return (_times(a0, b1), _times(a0, b0))
    if b0 is not None and b0 >= 0:
        return (_times(a0, b1), _times(a1, b1))
    if b1 is not None and b1 <= 0:
        return (_times(a1, b0), _times(a0, b0))
    p = _times(a0, b1)
    q = _times(a1, b0)
    r = _times(a0, b0)
    s = _times(a1, b1)
    return (None if p is None or q is None else (p if p < q else q),
            None if r is None or s is None else (r if r > s else s))


def exp(a: Interval, n: int, ctr: OpCounters) -> Interval:
    """Closure of {x**n | x in a} for n >= 1."""
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
    # floor n-th root of x >= 0 by integer Newton iteration, exact at any size
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


def root(a: Interval, n: int, ctr: OpCounters) -> Tuple[Interval, ...]:
    """Exact set {x | x**n in a} as a union of at most two intervals.

    Returns a tuple of disjoint, ascending, non-adjacent parts; empty tuple
    for the empty set.  Not interval-closed on purpose.
    """
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

def _endpoint_div(a0, a1, c, d) -> Interval:
    # [ceil(min A) .. floor(max A)] over A = {a0/c, a0/d, a1/c, a1/d}, for
    # a zero-free [c..d].  As in q_div, the sign of the denominator and of
    # each numerator bound pick the one quotient that bounds the result,
    # one row per case below.  An infinite (None) numerator bound stays
    # infinite, and over an infinite far end of the denominator the
    # quotient rounds to 1, 0 or -1 by the sign of the numerator bound.
    if c is not None and c > 0:
        lo = (None if a0 is None else
              -((-a0) // c) if a0 < 0 else
              -((-a0) // d) if d is not None else
              1 if a0 else 0)
        hi = (None if a1 is None else
              a1 // c if a1 >= 0 else
              a1 // d if d is not None else
              -1)
    else:                       # d < 0
        lo = (None if a1 is None else
              -((-a1) // d) if a1 > 0 else
              -((-a1) // c) if c is not None else
              1 if a1 else 0)
        hi = (None if a0 is None else
              a0 // d if a0 < 0 else
              a0 // c if c is not None else
              -1 if a0 else 0)
    if lo is not None and hi is not None and lo > hi:
        return None
    return (lo, hi)


# the most blocks one divisor scan visits; past it the scan gives up and
# returns the bound it started from, so div falls back to div_weak's result
_MAX_BLOCKS = 10 ** 5


def _least_divisor(m: int, hi: int, a0: int, a1: int):
    # least value of [m..hi] dividing some member of [a0..a1], or None;
    # everything positive.  On a block of values y where k = a1 // y is
    # constant, y divides a member exactly when y * k >= a0, i.e. when
    # y >= ceil(a0 / k): one step per block.
    start, blocks = m, 0
    while m <= hi:
        if blocks == _MAX_BLOCKS:
            return start
        blocks += 1
        k = a1 // m
        if k == 0:
            return None
        t = -(-a0 // k)
        if t <= m:
            return m
        end = a1 // k
        if t <= end:
            return t if t <= hi else None
        m = end + 1
    return None


def _greatest_divisor(lo: int, m: int, a0: int, a1: int):
    # greatest value of [lo..m] dividing some member of [a0..a1], or None;
    # everything positive.  Within a block of constant k = a1 // y the
    # divisors are the block's upper part, so only its top is tested.
    if m > a1:
        m = a1
    start, blocks = m, 0
    while m >= lo:
        if blocks == _MAX_BLOCKS:
            return start
        blocks += 1
        k = a1 // m
        if m * k >= a0:
            return m
        m = a1 // (k + 1)
    return None


def _scan_divisors(c: int, d: int, a0: int, a1: int):
    """Least and greatest y in [c..d] whose magnitude divides some member
    of the zero-free [a0..a1]; ``None`` when there is none.

    [c..d] is empty or lies on one side of 0.  Negating the numerator
    range, or the denominator range, keeps the set of such magnitudes, so
    both reduce to positive ranges.  There a block of values y sharing
    ``a1 // y`` is decided in one step, so each end takes
    O(sqrt(max |numerator|)) steps, not O(d - c), and at most
    ``_MAX_BLOCKS``: an end that reaches the cap keeps its bound.
    """
    if a1 < 0:
        a0, a1 = -a1, -a0
    if c > 0:
        lo = _least_divisor(c, d, a0, a1)
        if lo is None:
            return None
        return (lo, _greatest_divisor(lo, d, a0, a1))
    lo = _least_divisor(-d, -c, a0, a1)
    if lo is None:
        return None
    return (-_greatest_divisor(lo, -c, a0, a1), -lo)


def _quotient(a, b, exact: bool) -> Interval:
    # the one case analysis behind div, div_weak and div_scalar (see div)
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


def div(a: Interval, b: Interval, ctr: OpCounters) -> Interval:
    """Closure of the set quotient {u | u*y = x for some x in a, y in b}.

    One case analysis on 0 in the operands: 0 in both gives Z; a zero
    singleton denominator with a zero-free numerator gives empty; a
    denominator straddling 0 gives the symmetric interval bounded by
    max |numerator| (Z when the numerator is unbounded); a zero endpoint of
    the denominator is stripped.  What is left is a zero-free denominator,
    and the endpoint formula applies after snapping its bounds to values
    that divide some member of the numerator.  With every bound finite,
    the sign classes of the numerator (non-negative, non-positive or
    straddling 0) and of the denominator (positive or negative) pick the
    two corners of the least and the greatest quotient (Hickey, Ju & van
    Emden's division table), which are rounded inwards.  A snap that would
    take more than ``_MAX_BLOCKS`` steps (possible past numerators of about
    10**9) keeps the bound it started from, which gives
    :func:`div_weak`'s superset there.
    """
    ctr.div += 1
    return _quotient(a, b, True)


def div_weak(a: Interval, b: Interval, ctr: OpCounters) -> Interval:
    """Endpoint-formula quotient: a superset of :func:`div`, cheaper.

    The same case analysis as :func:`div` without the snapping step, so
    bounds may be off by the rounding of the endpoint fractions.  The two
    differ only on a bounded numerator without 0: every non-zero value
    divides some member of an unbounded numerator or one containing 0, so
    there snapping changes nothing.  They also coincide on singletons.
    """
    ctr.div += 1
    return _quotient(a, b, False)


def div_scalar(a: Interval, k: int, ctr: OpCounters) -> Interval:
    """Exact quotient by the one-point set {k}: :func:`div_weak` of a
    singleton denominator, where the endpoint formula is exact.

    Division by a unit is carried out (and counted) as scaling.
    """
    if k == 1 or k == -1:
        ctr.multF += 1
        return a if k == 1 else negate(a)
    ctr.div += 1
    # _quotient, not div_weak: a tracer that wraps both public names must
    # see one call
    return _quotient(a, (k, k), False)


# A half-line numerator is never snapped, so div and div_weak agree on it
# and half-lines need no routine of their own.  The name is kept only
# because perfbench/layertrace.py wraps it by name; delete it once that
# list drops it.
div_halfline = div_weak
