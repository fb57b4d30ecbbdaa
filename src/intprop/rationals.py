"""Exact rational interval arithmetic for the simplified-fraction rules.

A rational interval is ``None`` (empty) or a pair ``(lo, hi)`` where each
bound is an ``int``/``fractions.Fraction`` or ``None`` for the infinities.
Bounds stay exact: ``Fraction`` normalizes eagerly (gcd at construction),
which keeps numerators and denominators small across long sums.

Division follows extended real-interval division; when the exact quotient
set is a union of two rays, the enclosing interval (all of R) is returned,
since callers immediately take a one-sided bound anyway.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Tuple, Union

from .intervals import (Interval, OpCounters, add, contains_zero, mk,
                        mult_bounds)

QBound = Optional[Union[int, Fraction]]
QInterval = Optional[Tuple[QBound, QBound]]

Q_ALL: QInterval = (None, None)


def q_add(a: QInterval, b: QInterval, ctr: Optional[OpCounters] = None) -> QInterval:
    """:func:`intervals.add` over rational bounds, counted as ``q_sum``."""
    if ctr is not None:
        ctr.q_sum += 1
    return add(a, b)


def q_div(a: QInterval, b: QInterval, ctr: Optional[OpCounters] = None) -> QInterval:
    """Smallest real interval containing {u | u*y = x, x in a, y in b}."""
    if ctr is not None:
        ctr.q_div += 1
    if a is None or b is None:
        return None
    a0, a1 = a
    b0, b1 = b
    if not contains_zero(b):
        if b0 is not None and b0 > 0:
            recip = (0 if b1 is None else Fraction(1, 1) / b1,
                     Fraction(1, 1) / b0)
        else:
            recip = (Fraction(1, 1) / b1,
                     0 if b0 is None else Fraction(1, 1) / b0)
        return mult_bounds(a0, a1, *recip)
    if contains_zero(a):
        return Q_ALL
    if b0 == 0 and b1 == 0:
        return None
    if (b0 is None or b0 < 0) and (b1 is None or b1 > 0):
        return Q_ALL
    num_pos = a0 is not None and a0 > 0
    if b0 == 0:  # den = [0 .. b1], b1 > 0
        if num_pos:
            return (0 if b1 is None else Fraction(a0) / b1, None)
        return (None, 0 if b1 is None else Fraction(a1) / b1)
    # den = [b0 .. 0], b0 < 0
    if num_pos:
        return (None, 0 if b0 is None else Fraction(a0) / b0)
    return (0 if b0 is None else Fraction(a1) / b0, None)


def q_to_halfline(a: QInterval, side: str) -> Interval:
    """Integer half-line of all values <= (or >=) some member of ``a``.

    ``side`` is ``"le"`` or ``"ge"``; an infinite relevant bound gives Z.
    """
    if a is None:
        return None
    lo, hi = a
    if side == "le":
        return (None, None) if hi is None else (None, math.floor(hi))
    if side == "ge":
        return (None, None) if lo is None else (math.ceil(lo), None)
    raise ValueError("side must be 'le' or 'ge'")


def q_to_interval(a: QInterval) -> Interval:
    """Integers inside a rational interval."""
    if a is None:
        return None
    lo, hi = a
    return mk(None if lo is None else math.ceil(lo),
              None if hi is None else math.floor(hi))
