"""Set-level oracles on intervals for the tests: membership, inclusion,
enumeration and the hull of a finite set.  Intervals are as in
``intprop.intervals``: ``None`` is empty, a ``None`` bound is infinite."""


def contains(a, x):
    if a is None:
        return False
    lo, hi = a
    return (lo is None or lo <= x) and (hi is None or x <= hi)


def issubset(a, b):
    if a is None:
        return True
    if b is None:
        return False
    a0, a1 = a
    b0, b1 = b
    lo_ok = b0 is None or (a0 is not None and a0 >= b0)
    hi_ok = b1 is None or (a1 is not None and a1 <= b1)
    return lo_ok and hi_ok


def iter_values(a):
    """The members of a bounded interval, in increasing order."""
    if a is None:
        return
    lo, hi = a
    if lo is None or hi is None:
        raise ValueError("cannot enumerate an unbounded interval")
    yield from range(lo, hi + 1)


def hull(values):
    """Smallest interval containing a finite set of integers."""
    vs = list(values)
    if not vs:
        return None
    return (min(vs), max(vs))
