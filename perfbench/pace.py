"""A fixed slice of plain-Python work that gauges the host's current speed.

The host's CPU runs at speeds up to about 1.75 times apart, and a speed
can hold for seconds or for minutes.  A benchmark run of half a minute
can fall wholly inside a slow stretch, so a time as read off the clock
says as much about the host as about the program.  ``reference()`` times
a fixed piece of work that does not use ``intprop``, right next to every
timed operation; ``scaled()`` turns an operation's time into seconds at
the speed where that work takes ``NOMINAL_S``.  A change to ``intprop``
moves the operation's time and not the reference, so it shows in full.

The reference mixes three kinds of work in equal parts, because each
alone follows the host's speed unevenly: integer arithmetic in a loop,
tuples, dicts and big-integer arithmetic, and method calls on small
objects with slots.  Timed on 21 to 24 passes of each workload on the
host described in ``README.md``, the pass time varied by 8% to 15% (its
standard deviation over its mean); divided by the reference it varied
by 2% to 3%.
"""

from __future__ import annotations

from time import perf_counter

# seconds of the reference at the speed the scaled times are quoted at;
# about its time when the host described in README.md runs fast
NOMINAL_S = 1.0e-3

_BIG = 10 ** 25 + 7
_MOD = 10 ** 30


def _pair(a, b):
    return (a[0] * b[0], a[1] + b[1]) if a[0] < b[1] else (b[0], a[1])


class _Box:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def meet(self, other):
        lo = self.lo if self.lo > other.lo else other.lo
        hi = self.hi if self.hi < other.hi else other.hi
        return _Box(lo, hi) if lo <= hi else None


_BOXES = [_Box(i, i + 50) for i in range(32)]


def reference():
    """Seconds the fixed slice of work takes now (1 to 2 ms)."""
    t0 = perf_counter()
    s = 0
    for i in range(6000):
        s += i * i
    d = {}
    big = _BIG
    for i in range(600):
        d[i & 63] = _pair((i, i + 3), (i * big % 97, -i))
        big = (big * 31 + d.get((i * 7) & 63, (0, 0))[0]) % _MOD
    kept = []
    for i in range(600):
        m = _BOXES[i & 31].meet(_BOXES[(i * 5) & 31])
        if m is not None:
            kept.append(m)
        if len(kept) > 16:
            kept.pop(0)
    return perf_counter() - t0


def scaled(seconds, reference_s):
    """``seconds`` measured while the reference took ``reference_s``."""
    return seconds * NOMINAL_S / reference_s
