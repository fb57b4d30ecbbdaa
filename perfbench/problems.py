"""Problem texts for the paper's five benchmarks, on sub-boxes, with oracles.

Each problem has a text generator, which writes a model in the solver's
input language, and a brute-force oracle that knows the answer without the
solver: the full solution set as tuples of the declared variables in
declaration order, or the optimum for ``opt``.  The oracles import nothing
from ``intprop``.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations


# --- cubes: n in [lo..hi] that are sums of four different cubes -------------

def cubes_text(lo: int, hi: int) -> str:
    return """
        var n in [%d..%d];
        var x1 in Z; var x2 in Z; var x3 in Z; var x4 in Z;
        constraint 1 <= x1;
        constraint x1 <= x2 - 1;
        constraint x2 <= x3 - 1;
        constraint x3 <= x4 - 1;
        constraint x4 <= n;
        constraint x1^3 + x2^3 + x3^3 + x4^3 = n;
        solve all;
    """ % (lo, hi)


def cubes_oracle(lo: int, hi: int) -> set:
    top = 1
    while (top + 1) ** 3 <= hi:
        top += 1
    out = set()
    for xs in combinations(range(1, top + 1), 4):
        n = sum(x ** 3 for x in xs)
        if lo <= n <= hi and xs[3] <= n:
            out.add((n,) + xs)
    return out


# --- opt: maximize 2xy - z subject to x^3 + y^2 = z^3 ----------------------

def opt_text(limit: int) -> str:
    return """
        var x in [1..%d]; var y in [1..%d]; var z in [1..%d];
        constraint x^3 + y^2 = z^3;
        maximize 2*x*y - z;
    """ % (limit, limit, limit)


def opt_oracle(limit: int):
    """Best objective value, or None when no point satisfies the equation."""
    best = None
    for x in range(1, limit + 1):
        for z in range(x + 1, limit + 1):
            r = z ** 3 - x ** 3
            y = math.isqrt(r)
            if y * y == r and 1 <= y <= limit:
                val = 2 * x * y - z
                if best is None or val > best:
                    best = val
    return best


def opt_value(limit: int, assignment) -> int:
    """Objective of a claimed optimum; raises ValueError if it is not a
    solution of the model."""
    x, y, z = assignment
    if not all(1 <= v <= limit for v in (x, y, z)):
        raise ValueError("assignment %r is out of bounds" % (assignment,))
    if x ** 3 + y ** 2 != z ** 3:
        raise ValueError("assignment %r violates x^3 + y^2 = z^3"
                         % (assignment,))
    return 2 * x * y - z


# --- sumprod: n integers in [1..n], sorted, with the sum and product of 1..n -

def sumprod_text(n: int) -> str:
    xs = ["x%d" % i for i in range(1, n + 1)]
    cs = ["c%d" % i for i in range(1, n + 1)]
    decls = "\n".join("var %s in [1..%d];" % (x, n) for x in xs)
    decls += "\n" + "\n".join("var %s in [%d..%d];" % (c, i, i)
                              for i, c in enumerate(cs, start=1))
    lines = [
        "constraint %s = %s;" % (" + ".join(xs), " + ".join(cs)),
        "constraint %s = %s;" % (" * ".join(xs), " * ".join(cs)),
    ]
    for a, b in zip(xs, xs[1:]):
        lines.append("constraint %s <= %s;" % (a, b))
    return decls + "\n" + "\n".join(lines) + "\nsolve all;\n"


def sumprod_oracle(n: int) -> set:
    target_sum = n * (n + 1) // 2
    target_prod = math.factorial(n)
    consts = tuple(range(1, n + 1))
    out = set()

    def extend(prefix, low, s, p):
        k = len(prefix)
        if k == n:
            if s == target_sum and p == target_prod:
                out.add(tuple(prefix) + consts)
            return
        left = n - k
        for v in range(low, n + 1):
            # the rest is non-decreasing from v, so it adds at least left*v
            if s + left * v > target_sum:
                break
            if s + left * n < target_sum or target_prod % (p * v):
                continue
            prefix.append(v)
            extend(prefix, v, s + v, p * v)
            prefix.pop()

    extend([], 1, 0, 1)
    return out


# --- kyoto: KYOTO + KYOTO + KYOTO = TOKYO in every base in [b0..b1] ----------

def kyoto_text(b0: int, b1: int) -> str:
    d = b1 - 1
    decls = ("var K in [1..%d]; var Y in [0..%d]; var O in [0..%d]; "
             "var T in [1..%d]; var B in [%d..%d];" % (d, d, d, d, b0, b1))
    lines = ["constraint %s <= B - 1;" % v for v in "KYOT"]
    for a, b in combinations("KYOT", 2):
        lines.append("constraint %s != %s;" % (a, b))
    lines.append(
        "constraint 3*(K*B^4 + Y*B^3 + O*B^2 + T*B + O)"
        " = T*B^4 + O*B^3 + K*B^2 + Y*B + O;")
    return decls + "\n" + "\n".join(lines) + "\nsolve all;\n"


def kyoto_oracle(b0: int, b1: int) -> set:
    out = set()
    for b in range(b0, b1 + 1):
        # the equation is linear in O: O*(3b^2 + 2 - b^3) = rest, and the
        # factor is nonzero for every integer b
        factor = 3 * b * b + 2 - b ** 3
        for k in range(1, b):
            for y in range(b):
                for t in range(1, b):
                    rest = (t * b ** 4 + k * b * b + y * b
                            - 3 * k * b ** 4 - 3 * y * b ** 3 - 3 * t * b)
                    if rest % factor:
                        continue
                    o = rest // factor
                    if 0 <= o < b and len({k, y, o, t}) == 4:
                        out.add((k, y, o, t, b))
    return out


# --- fractions: A/BC + D/EF + G/HI = 1 over distinct digits 1..9 -------------

LETTERS = "ABCDEFGHI"


def fractions_text(fixed) -> str:
    """``fixed`` is a sequence of (letter, digit) pairs pinned by domain."""
    pins = dict(fixed)
    decls = "\n".join("var %s in [%d..%d];" % ((c,) + ((pins[c],) * 2
                                                       if c in pins
                                                       else (1, 9)))
                      for c in LETTERS)
    two = {"BC": "(10*B + C)", "EF": "(10*E + F)", "HI": "(10*H + I)"}
    lines = [
        "constraint A*%(EF)s*%(HI)s + D*%(BC)s*%(HI)s + G*%(BC)s*%(EF)s"
        " = %(BC)s*%(EF)s*%(HI)s;" % two,
        "constraint A*%(EF)s >= D*%(BC)s;" % two,
        "constraint D*%(HI)s >= G*%(EF)s;" % two,
        "constraint 3*A >= %(BC)s;" % two,
        "constraint 3*G <= %(HI)s;" % two,
    ]
    for a, b in combinations(LETTERS, 2):
        lines.append("constraint %s != %s;" % (a, b))
    return decls + "\n" + "\n".join(lines) + "\nsolve all;\n"


def fractions_oracle(fixed) -> set:
    pins = dict(fixed)
    free = [c for c in LETTERS if c not in pins]
    digits = [d for d in range(1, 10) if d not in pins.values()]
    if len(set(pins.values())) != len(pins):
        return set()
    out = set()
    for perm in permutations(digits, len(free)):
        v = dict(pins)
        v.update(zip(free, perm))
        a, b, c, d, e, f, g, h, i = (v[x] for x in LETTERS)
        bc, ef, hi = 10 * b + c, 10 * e + f, 10 * h + i
        if (a * ef * hi + d * bc * hi + g * bc * ef == bc * ef * hi
                and a * ef >= d * bc and d * hi >= g * ef
                and 3 * a >= bc and 3 * g <= hi):
            out.add((a, b, c, d, e, f, g, h, i))
    return out


TEXTS = {
    "cubes": cubes_text,
    "opt": opt_text,
    "sumprod": sumprod_text,
    "kyoto": kyoto_text,
    "fractions": fractions_text,
}

ORACLES = {
    "cubes": cubes_oracle,
    "opt": opt_oracle,
    "sumprod": sumprod_oracle,
    "kyoto": kyoto_oracle,
    "fractions": fractions_oracle,
}
