"""Built-in benchmark problems.

Each builder returns a CSP through the regular problem-text parser, so the
models double as documentation of the input format.  Sizes are
parameterizable to allow scaled-down runs; the defaults match the full
instances.

* ``cubes``   - numbers up to n that are sums of four different cubes.
* ``opt``     - maximize 2*x*y - z subject to x^3 + y^2 = z^3.
* ``fractions`` - distinct nonzero digits with A/BC + D/EF + G/HI = 1,
  ordering and redundant constraints multiplied out by the denominators.
* ``kyoto``   - the alphametic KYOTO + KYOTO + KYOTO = TOKYO, solved in
  every base up to a limit.
* ``sumprod`` - n integers in [1..n] with the same sum and product as
  1..n; the constants are carried as fixed variables so propagation
  evaluates both sides exactly (the product exceeds 2**32 from n = 13 on).
"""

from __future__ import annotations

from itertools import combinations

from .model import CSP, parse


def cubes(n: int = 100000) -> CSP:
    return parse("""
        var n in [1..%d];
        var x1 in Z; var x2 in Z; var x3 in Z; var x4 in Z;
        constraint 1 <= x1;
        constraint x1 <= x2 - 1;
        constraint x2 <= x3 - 1;
        constraint x3 <= x4 - 1;
        constraint x4 <= n;
        constraint x1^3 + x2^3 + x3^3 + x4^3 = n;
        solve all;
    """ % n)


def opt(n: int = 100000) -> CSP:
    return parse("""
        var x in [1..%d]; var y in [1..%d]; var z in [1..%d];
        constraint x^3 + y^2 = z^3;
        maximize 2*x*y - z;
    """ % (n, n, n))


_FRACTION_LETTERS = "ABCDEFGHI"


def fractions() -> CSP:
    decls = "\n".join("var %s in [1..9];" % c for c in _FRACTION_LETTERS)
    two = {"BC": "(10*B + C)", "EF": "(10*E + F)", "HI": "(10*H + I)"}
    lines = [
        # A/BC + D/EF + G/HI = 1, multiplied by BC*EF*HI
        "constraint A*%(EF)s*%(HI)s + D*%(BC)s*%(HI)s + G*%(BC)s*%(EF)s"
        " = %(BC)s*%(EF)s*%(HI)s;" % two,
        # symmetry-breaking order A/BC >= D/EF >= G/HI
        "constraint A*%(EF)s >= D*%(BC)s;" % two,
        "constraint D*%(HI)s >= G*%(EF)s;" % two,
        # redundant: 3*A/BC >= 1 and 3*G/HI <= 1
        "constraint 3*A >= %(BC)s;" % two,
        "constraint 3*G <= %(HI)s;" % two,
    ]
    for a, b in combinations(_FRACTION_LETTERS, 2):
        lines.append("constraint %s != %s;" % (a, b))
    return parse(decls + "\n" + "\n".join(lines) + "\nsolve all;")


def kyoto(n: int = 100) -> CSP:
    d = n - 1
    decls = ("var K in [1..%d]; var Y in [0..%d]; var O in [0..%d]; "
             "var T in [1..%d]; var B in [2..%d];"
             % (d, d, d, d, n))
    lines = [
        "constraint K <= B - 1;",
        "constraint Y <= B - 1;",
        "constraint O <= B - 1;",
        "constraint T <= B - 1;",
    ]
    for a, b in combinations("KYOT", 2):
        lines.append("constraint %s != %s;" % (a, b))
    lines.append(
        "constraint 3*(K*B^4 + Y*B^3 + O*B^2 + T*B + O)"
        " = T*B^4 + O*B^3 + K*B^2 + Y*B + O;")
    return parse(decls + "\n" + "\n".join(lines) + "\nsolve all;")


def sumprod(n: int = 14) -> CSP:
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
    return parse(decls + "\n" + "\n".join(lines) + "\nsolve all;")


BENCHMARKS = {
    "cubes": cubes,
    "opt": opt,
    "fractions": fractions,
    "kyoto": kyoto,
    "sumprod": sumprod,
}


def build_benchmark(name: str, n: int = None) -> CSP:
    """Instantiate a named benchmark; ``n`` scales all but ``fractions``."""
    if name not in BENCHMARKS:
        raise KeyError("unknown benchmark %r (have: %s)"
                       % (name, ", ".join(sorted(BENCHMARKS))))
    if n is None:
        return BENCHMARKS[name]()
    if name == "fractions":
        raise ValueError("fractions takes no size")
    return BENCHMARKS[name](n)
