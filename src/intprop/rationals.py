"""Exact rational interval arithmetic for the simplified-fraction rules.

A rational interval is ``None`` (empty) or a pair ``(lo, hi)`` of bounds.
A bound is ``None`` for an infinity, or an integer pair ``(n, d)`` with
``d > 0`` standing for n/d.  Pairs are never reduced: the rules sum a few
quotients of integer intervals and round the sum once, so a gcd per
operation would cost more than the growth of the integers it saves.

:func:`q_div` takes two integer intervals, as evaluated monomials are, and
returns a rational interval; :func:`q_add` adds rational intervals.  Both
require an :class:`~intprop.intervals.OpCounters` and bump one category
(``q_div`` or ``q_sum``).  :func:`q_of` makes an integer interval
rational; :func:`q_to_interval` rounds back to integers with floor
division, also for a half-line.

The denominator of :func:`q_div` never holds 0: the simplified-fraction
rules divide only by monomials over variables whose domains exclude 0, so
the quotient set is always an interval.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .intervals import Interval, OpCounters, mk

QBound = Optional[Tuple[int, int]]
QInterval = Optional[Tuple[QBound, QBound]]

_ZERO = (0, 1)


def q_of(a: Interval) -> QInterval:
    """An integer interval as a rational one (uncounted)."""
    if a is None:
        return None
    lo, hi = a
    return (None if lo is None else (lo, 1), None if hi is None else (hi, 1))


def q_add(a: QInterval, b: QInterval, ctr: OpCounters) -> QInterval:
    """Sum of two rational intervals, counted as ``q_sum``."""
    ctr.q_sum += 1
    if a is None or b is None:
        return None
    return (_add_bounds(a[0], b[0]), _add_bounds(a[1], b[1]))


def _add_bounds(x: QBound, y: QBound) -> QBound:
    if x is None or y is None:
        return None
    n, d = x
    m, e = y
    if d == e:
        return (n + m, d)
    return (n * e + m * d, d * e)


def q_div(a: Interval, b: Interval, ctr: OpCounters) -> QInterval:
    """Smallest real interval containing {x/y | x in a, y in b}.

    ``a`` and ``b`` are integer intervals, and ``b`` does not hold 0.  A
    negative denominator is flipped to a positive one; there the sign of
    each numerator bound picks the denominator bound that makes it
    extreme, so each result bound is one quotient.
    """
    ctr.q_div += 1
    if a is None or b is None:
        return None
    a0, a1 = a
    b0, b1 = b
    if b1 is not None and b1 < 0:
        # x / y == (-x) / (-y): make the denominator positive
        a0, a1 = (None if a1 is None else -a1), (None if a0 is None else -a0)
        b0, b1 = -b1, (None if b0 is None else -b0)
    if a0 is None:
        lo = None
    elif a0 < 0:
        lo = (a0, b0)
    else:
        lo = _ZERO if b1 is None else (a0, b1)
    if a1 is None:
        hi = None
    elif a1 >= 0:
        hi = (a1, b0)
    else:
        hi = _ZERO if b1 is None else (a1, b1)
    return (lo, hi)


def q_to_interval(a: QInterval) -> Interval:
    """Integers inside a rational interval."""
    if a is None:
        return None
    lo, hi = a
    return mk(None if lo is None else -(-lo[0] // lo[1]),
              None if hi is None else hi[0] // hi[1])
