"""Domain reduction rules over integer-interval stores.

A store is a list mapping variable id to interval; a rule is an immutable
descriptor with a ``reads`` tuple (variables its update depends on), a
``writes`` variable, and an ``apply(store, counters)`` method.  ``apply``
returns ``-1`` when the store is unchanged, otherwise the written variable
id; a write of ``None`` (the empty interval) into the store signals failure
and the caller must stop propagating.

Rule families:

* linear equality/inequality over distinct variables,
* polynomial equality/inequality acting on one variable occurrence of a
  general constraint, with an optional simplified-fraction mode that
  divides out common variable powers and evaluates the residue in exact
  rational arithmetic,
* the three multiplication rules for ``x*y = z`` (with a weak-division
  option), exponentiation/root extraction for ``x = y**n``,
* bound-trimming disequality rules.

Updates always intersect with the current domain, so every rule is a
contraction, and monotone interval operations make the common fixpoint
independent of the application order.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from . import intervals as iv
from .intervals import Interval, OpCounters
from .model import (
    Add,
    Div,
    Expr,
    Lit,
    Mul,
    MultAtom,
    Neg,
    PolynomialConstraint,
    Pow,
    PowerAtom,
    PowerProduct,
    Root,
    Sub,
    TrivialConstraint,
    Var,
)
from .rationals import q_add, q_div, q_to_halfline, q_to_interval

UNCHANGED = -1

DomainStore = List[Interval]


def eval_monomial(coeff: int, pp: PowerProduct, store: DomainStore,
                  ctr: Optional[OpCounters]) -> Interval:
    """Interval of a monomial: powers, pairwise products, coefficient."""
    if not pp:
        return (coeff, coeff)
    try:
        # all-bounded fast path; None bounds raise TypeError below
        v, e = pp[0]
        f0, f1 = store[v]
        if e > 1:
            if e % 2 == 1 or f0 >= 0:
                f0, f1 = f0 ** e, f1 ** e
            elif f1 <= 0:
                f0, f1 = f1 ** e, f0 ** e
            else:
                f0, f1 = 0, max(f0 ** e, f1 ** e)
        n_mult = 0
        n_exp = 1 if pp[0][1] > 1 else 0
        for v, e in pp[1:]:
            g0, g1 = store[v]
            if e > 1:
                n_exp += 1
                if e % 2 == 1 or g0 >= 0:
                    g0, g1 = g0 ** e, g1 ** e
                elif g1 <= 0:
                    g0, g1 = g1 ** e, g0 ** e
                else:
                    g0, g1 = 0, max(g0 ** e, g1 ** e)
            p = f0 * g0
            q = f0 * g1
            r = f1 * g0
            s = f1 * g1
            if q < p:
                p, q = q, p
            if s < r:
                r, s = s, r
            f0 = p if p < r else r
            f1 = q if q > s else s
            n_mult += 1
        if coeff > 0:
            out = (f0 * coeff, f1 * coeff)
        elif coeff == 0:
            out = (0, 0)
        else:
            out = (f1 * coeff, f0 * coeff)
        if ctr is not None:
            ctr.exp += n_exp
            ctr.multI += n_mult
            ctr.multF += 1
        return out
    except TypeError:
        pass
    v, e = pp[0]
    f = store[v] if e == 1 else iv.exp(store[v], e, ctr)
    for v, e in pp[1:]:
        g = store[v] if e == 1 else iv.exp(store[v], e, ctr)
        f = iv.mult(f, g, ctr)
    return iv.scale(f, coeff, ctr)


def eval_int(e: Expr, store: DomainStore,
             ctr: Optional[OpCounters] = None) -> Interval:
    """Interval evaluation of an extended expression.

    Each operator maps to the closure of the matching integer-set
    operation; root unions are closed into one interval here because an
    expression value must be a single interval.
    """
    if isinstance(e, Var):
        return store[e.id]
    if isinstance(e, Lit):
        return (e.value, e.value)
    if isinstance(e, Neg):
        return iv.scale(eval_int(e.arg, store, ctr), -1, ctr)
    if isinstance(e, Add):
        return iv.add(eval_int(e.left, store, ctr),
                      eval_int(e.right, store, ctr), ctr)
    if isinstance(e, Sub):
        return iv.sub(eval_int(e.left, store, ctr),
                      eval_int(e.right, store, ctr), ctr)
    if isinstance(e, Mul):
        return iv.mult(eval_int(e.left, store, ctr),
                       eval_int(e.right, store, ctr), ctr)
    if isinstance(e, Pow):
        return iv.exp(eval_int(e.arg, store, ctr), e.n, ctr)
    if isinstance(e, Div):
        return iv.div(eval_int(e.left, store, ctr),
                      eval_int(e.right, store, ctr), ctr)
    if isinstance(e, Root):
        parts = iv.root(eval_int(e.arg, store, ctr), e.n, ctr)
        out = None
        for p in parts:
            out = iv.span(out, p)
        return out
    raise TypeError("cannot evaluate %r" % type(e).__name__)


class Rule:
    """Base descriptor; subclasses fill reads/writes and apply."""

    __slots__ = ("reads", "writes")

    variant = "?"

    def apply(self, store: DomainStore, ctr: Optional[OpCounters]) -> int:
        raise NotImplementedError

    def _finish(self, store, dv, nd, vj):
        if nd == dv:
            return UNCHANGED
        store[vj] = nd
        return vj

    def __repr__(self):
        return "%s(writes=x%d, reads=%s)" % (
            self.variant, self.writes, ",".join("x%d" % r for r in self.reads))


class LinearEqRule(Rule):
    """Isolate one variable of `sum a_i*x_i = b` and divide the residue."""

    __slots__ = ("others", "aj", "vj", "b")

    variant = "LinearEq"

    def __init__(self, coeffs: Sequence[Tuple[int, int]], b: int, j: int):
        self.others = tuple(av for i, av in enumerate(coeffs) if i != j)
        self.aj, self.vj = coeffs[j]
        self.b = b
        self.writes = self.vj
        self.reads = tuple(v for _, v in self.others)

    def apply(self, store, ctr):
        others = self.others
        try:
            lo = hi = self.b
            for a, v in others:
                d0, d1 = store[v]
                if a > 0:
                    lo -= d1 * a
                    hi -= d0 * a
                else:
                    lo -= d0 * a
                    hi -= d1 * a
            acc = (lo, hi)
            if ctr is not None:
                n = len(others)
                ctr.multF += n
                ctr.sum += n
        except TypeError:
            acc = (self.b, self.b)
            for a, v in others:
                acc = iv.sub(acc, iv.scale(store[v], a, ctr), ctr)
        q = iv.div_scalar(acc, self.aj, ctr)
        dv = store[self.vj]
        return self._finish(store, dv, iv.intersect(dv, q), self.vj)


class LinearIneqRule(Rule):
    """Isolate one variable of `sum a_i*x_i <= b` via half-line division."""

    __slots__ = ("others", "aj", "vj", "b")

    variant = "LinearIneq"

    __init__ = LinearEqRule.__init__

    def apply(self, store, ctr):
        others = self.others
        try:
            # only the upper end of the residue matters for <=
            hi = self.b
            for a, v in others:
                d = store[v]
                hi -= (d[0] if a > 0 else d[1]) * a
            if ctr is not None:
                n = len(others)
                ctr.multF += n
                ctr.sum += n
        except TypeError:
            acc = (self.b, self.b)
            for a, v in others:
                acc = iv.sub(acc, iv.scale(store[v], a, ctr), ctr)
            hi = acc[1]
        q = iv.div_scalar((None, hi), self.aj, ctr)
        dv = store[self.vj]
        return self._finish(store, dv, iv.intersect(dv, q), self.vj)


def _simplified_groups(monomials, l, b, s_coeff, s_pp):
    """Group the terms of the constraint, each divided by the pivot
    monomial and reduced, by their leftover denominator.

    Returns a list of ``(den_coeff > 0, den_pp, terms)`` where each term is
    a reduced numerator monomial; term order follows the constraint.
    """
    s_exp = dict(s_pp)
    groups: dict = {}

    def push(c_num, pp_num, negate):
        g = math.gcd(abs(c_num), abs(s_coeff))
        p = c_num // g
        q = s_coeff // g
        if q < 0:
            p, q = -p, -q
        if negate:
            p = -p
        num_pp = []
        den = dict(s_exp)
        for v, e in pp_num:
            se = den.get(v, 0)
            common = e if e < se else se
            if e > common:
                num_pp.append((v, e - common))
            if se > common:
                den[v] = se - common
            elif v in den:
                del den[v]
        den_pp = tuple(sorted(den.items()))
        key = (q, den_pp)
        groups.setdefault(key, []).append((p, tuple(num_pp)))

    if b != 0:
        push(b, (), False)
    for i, (c, pp) in enumerate(monomials):
        if i != l:
            push(c, pp, True)
    return [(q, den_pp, tuple(terms))
            for (q, den_pp), terms in groups.items()]


class PolyRule(Rule):
    """One variable occurrence of a polynomial constraint.

    The pivot monomial is split into the isolated power ``x_j ** n_p`` and
    the divisor monomial ``s``; the residue of the other monomials is
    divided by ``s`` and root-extracted.  Equality divides an interval,
    inequality the half-line below its upper bound; both use the rule's
    division, which never snaps the denominator for a half-line (weak and
    strong division agree there).  In simplified-fraction mode
    common variable powers between the terms and ``s`` are cancelled
    symbolically and the residue is summed in rational arithmetic, which
    needs every divisor variable's domain to exclude zero (otherwise the
    plain path runs).
    """

    __slots__ = ("residual", "s_coeff", "s_pp", "n_p", "vj", "b", "op",
                 "divfn", "optimized", "groups", "s_vars")

    variant = "Poly"

    def __init__(self, constraint: PolynomialConstraint, l: int, vj: int,
                 division: str = "weak", optimized: bool = False):
        mons = constraint.monomials
        self.residual = tuple(m for i, m in enumerate(mons) if i != l)
        c, pp = mons[l]
        self.n_p = dict(pp)[vj]
        self.s_coeff = c
        self.s_pp = tuple((v, e) for v, e in pp if v != vj)
        self.vj = vj
        self.b = constraint.rhs
        self.op = constraint.op
        self.divfn = iv.div_weak if division == "weak" else iv.div
        self.writes = vj
        reads = set(v for _, rpp in self.residual for v, _ in rpp)
        reads.update(v for v, _ in self.s_pp)
        if self.n_p % 2 == 0:
            reads.add(vj)       # even-root parts clip against own domain
        self.reads = tuple(sorted(reads))
        self.s_vars = tuple(v for v, _ in self.s_pp)
        share = any(v in set(self.s_vars)
                    for _, rpp in self.residual for v, _ in rpp)
        self.optimized = optimized and bool(self.s_pp) and share
        self.groups = (_simplified_groups(mons, l, self.b, c, self.s_pp)
                       if self.optimized else None)

    def apply(self, store, ctr):
        if self.optimized:
            for v in self.s_vars:
                d = store[v]
                if not ((d[0] is not None and d[0] > 0)
                        or (d[1] is not None and d[1] < 0)):
                    break
            else:
                return self._apply_fractions(store, ctr)
        acc = (self.b, self.b)
        for c, pp in self.residual:
            acc = iv.sub(acc, eval_monomial(c, pp, store, ctr), ctr)
        if self.op == "le":
            acc = (None, acc[1])
        if self.s_pp:
            siv = eval_monomial(self.s_coeff, self.s_pp, store, ctr)
            q = self.divfn(acc, siv, ctr)
        else:
            q = iv.div_scalar(acc, self.s_coeff, ctr)
        return self._root_and_intersect(store, q, ctr)

    def _apply_fractions(self, store, ctr):
        qsum = None
        for den_c, den_pp, terms in self.groups:
            num = None
            for c, pp in terms:
                t = eval_monomial(c, pp, store, ctr)
                num = t if num is None else iv.add(num, t, ctr)
            if den_pp or den_c != 1:
                den = eval_monomial(den_c, den_pp, store, ctr)
                qt = q_div(num, den, ctr)
            else:
                qt = num
            qsum = qt if qsum is None else q_add(qsum, qt, ctr)
        if qsum is None:
            qsum = (0, 0)
        if self.op == "le":
            positive = self.s_coeff > 0
            for v, e in self.s_pp:
                if e % 2 == 1 and store[v][1] is not None and store[v][1] < 0:
                    positive = not positive
            q = q_to_halfline(qsum, "le" if positive else "ge")
        else:
            q = q_to_interval(qsum)
        return self._root_and_intersect(store, q, ctr)

    def _root_and_intersect(self, store, q, ctr):
        vj = self.vj
        dv = store[vj]
        if self.n_p == 1:
            nd = iv.intersect(dv, q)
        else:
            nd = None
            for part in iv.root(q, self.n_p, ctr):
                p = iv.intersect(dv, part)
                if p is not None:
                    nd = iv.span(nd, p)
        return self._finish(store, dv, nd, vj)


class MultRule(Rule):
    """One of the three reduction directions of `x*y = z`."""

    __slots__ = ("kind", "x", "y", "z", "divfn")

    def __init__(self, kind: int, x: int, y: int, z: int,
                 division: str = "weak"):
        self.kind = kind
        self.x = x
        self.y = y
        self.z = z
        self.divfn = iv.div_weak if division == "weak" else iv.div
        if kind == 1:
            self.writes, self.reads = z, (x, y)
        elif kind == 2:
            self.writes, self.reads = x, (y, z)
        else:
            self.writes, self.reads = y, (x, z)

    @property
    def variant(self):
        w = "w" if self.divfn is iv.div_weak and self.kind != 1 else ""
        return "Mult%d%s" % (self.kind, w)

    def apply(self, store, ctr):
        k = self.kind
        if k == 1:
            q = iv.mult(store[self.x], store[self.y], ctr)
        elif k == 2:
            q = self.divfn(store[self.z], store[self.y], ctr)
        else:
            q = self.divfn(store[self.z], store[self.x], ctr)
        w = self.writes
        dv = store[w]
        return self._finish(store, dv, iv.intersect(dv, q), w)


class ExpoRule(Rule):
    """Forward direction of `x = y**n`: bound x by the power of y."""

    __slots__ = ("x", "y", "n")

    variant = "Expo"

    def __init__(self, x: int, y: int, n: int):
        self.x = x
        self.y = y
        self.n = n
        self.writes = x
        self.reads = (y,)

    def apply(self, store, ctr):
        dv = store[self.x]
        nd = iv.intersect(dv, iv.exp(store[self.y], self.n, ctr))
        return self._finish(store, dv, nd, self.x)


class RootXRule(Rule):
    """Backward direction of `x = y**n`: intersect y with the n-th root."""

    __slots__ = ("x", "y", "n")

    variant = "RootX"

    def __init__(self, x: int, y: int, n: int):
        self.x = x
        self.y = y
        self.n = n
        self.writes = y
        self.reads = (x, y) if n % 2 == 0 else (x,)

    def apply(self, store, ctr):
        dv = store[self.y]
        nd = None
        for part in iv.root(store[self.x], self.n, ctr):
            p = iv.intersect(dv, part)
            if p is not None:
                nd = iv.span(nd, p)
        return self._finish(store, dv, nd, self.y)


class DiseqVarVarRule(Rule):
    """`x - y != shift`: trim a bound of the target when the other side is
    fixed at it; fail when both are fixed and equal."""

    __slots__ = ("target", "other", "shift")

    variant = "Diseq"

    def __init__(self, target: int, other: int, shift: int):
        # shift is the forbidden (target - other) difference
        self.target = target
        self.other = other
        self.shift = shift
        self.writes = target
        self.reads = (target, other) if target != other else (target,)

    def apply(self, store, ctr):
        do = store[self.other]
        if do[0] is None or do[0] != do[1]:
            return UNCHANGED
        forbid = do[0] + self.shift
        dv = store[self.target]
        if dv == (forbid, forbid):
            store[self.target] = None
            return self.target
        if dv[0] == forbid:
            nd = (forbid + 1, dv[1])
        elif dv[1] == forbid:
            nd = (dv[0], forbid - 1)
        else:
            return UNCHANGED
        store[self.target] = nd
        return self.target


class DiseqVarConstRule(Rule):
    """`x != c`: trim the bound equal to c, fail on the singleton c."""

    __slots__ = ("x", "c")

    variant = "Diseq"

    def __init__(self, x: int, c: int):
        self.x = x
        self.c = c
        self.writes = x
        self.reads = (x,)

    def apply(self, store, ctr):
        c = self.c
        dv = store[self.x]
        if dv == (c, c):
            store[self.x] = None
            return self.x
        if dv[0] == c:
            nd = (c + 1, dv[1])
        elif dv[1] == c:
            nd = (dv[0], c - 1)
        else:
            return UNCHANGED
        store[self.x] = nd
        return self.x


class DiseqCheckRule(Rule):
    """General disequality, decided only once all variables are fixed."""

    __slots__ = ("monomials", "b")

    variant = "Diseq"

    def __init__(self, constraint: PolynomialConstraint):
        self.monomials = constraint.monomials
        self.b = constraint.rhs
        vs = tuple(sorted(constraint.vars()))
        self.reads = vs
        self.writes = vs[0]

    def apply(self, store, ctr):
        total = 0
        for c, pp in self.monomials:
            t = c
            for v, e in pp:
                d = store[v]
                if d[0] is None or d[0] != d[1]:
                    return UNCHANGED
                t *= d[0] ** e
            total += t
        if total == self.b:
            store[self.writes] = None
            return self.writes
        return UNCHANGED


def _diseq_rules(c: PolynomialConstraint) -> List[Rule]:
    mons = c.monomials
    if all(len(pp) == 1 and pp[0][1] == 1 for _, pp in mons):
        if len(mons) == 1:
            a, x = mons[0][0], mons[0][1][0][0]
            if c.rhs % a:
                return []          # never equal: trivially satisfied
            return [DiseqVarConstRule(x, c.rhs // a)]
        if len(mons) == 2 and mons[0][0] == -mons[1][0]:
            a = mons[0][0]
            x, y = mons[0][1][0][0], mons[1][1][0][0]
            if c.rhs % a:
                return []
            shift = c.rhs // a
            return [DiseqVarVarRule(x, y, shift),
                    DiseqVarVarRule(y, x, -shift)]
    return [DiseqCheckRule(c)]


def build_rules(constraints, division: str = "weak",
                optimized: bool = False) -> List[Rule]:
    """One reduction rule per variable occurrence of every constraint.

    Multiplication atoms get their three directions (two when squaring a
    variable by itself), power atoms the forward/backward pair, linear
    constraints one isolation per variable, and general polynomial
    constraints one rule per occurrence of a variable in a monomial.
    """
    rules: List[Rule] = []
    for c in constraints:
        if isinstance(c, TrivialConstraint):
            continue
        if isinstance(c, MultAtom):
            rules.append(MultRule(1, c.x, c.y, c.z, division))
            rules.append(MultRule(2, c.x, c.y, c.z, division))
            if c.y != c.x:
                rules.append(MultRule(3, c.x, c.y, c.z, division))
            continue
        if isinstance(c, PowerAtom):
            rules.append(ExpoRule(c.x, c.y, c.n))
            rules.append(RootXRule(c.x, c.y, c.n))
            continue
        if c.op == "ne":
            rules.extend(_diseq_rules(c))
            continue
        if c.is_linear():
            coeffs = [(cf, pp[0][0]) for cf, pp in c.monomials]
            cls = LinearEqRule if c.op == "eq" else LinearIneqRule
            for j in range(len(coeffs)):
                rules.append(cls(coeffs, c.rhs, j))
            continue
        for l, (_, pp) in enumerate(c.monomials):
            for v, _ in pp:
                rules.append(PolyRule(c, l, v, division, optimized))
    return rules


def readers_index(rules: Sequence[Rule], nvars: int) -> List[List[int]]:
    """For each variable, the rules whose update depends on it."""
    readers: List[List[int]] = [[] for _ in range(nvars)]
    for i, r in enumerate(rules):
        for v in r.reads:
            readers[v].append(i)
    return readers


def is_bounds_consistent(store: DomainStore, x: int, y: int, z: int) -> bool:
    """Real-relaxation endpoint support check for `x*y = z`.

    Every bound of each domain must extend to a real solution with the
    other two variables inside their domains' real hulls.  Decided exactly
    with integer endpoint products.
    """
    lx, hx = store[x]
    ly, hy = store[y]
    lz, hz = store[z]

    def x_ok(a):
        p, q = a * ly, a * hy
        if p > q:
            p, q = q, p
        return p <= hz and lz <= q

    def y_ok(b):
        p, q = b * lx, b * hx
        if p > q:
            p, q = q, p
        return p <= hz and lz <= q

    ps = (lx * ly, lx * hy, hx * ly, hx * hy)
    lo, hi = min(ps), max(ps)

    return (x_ok(lx) and x_ok(hx) and y_ok(ly) and y_ok(hy)
            and lo <= lz <= hi and lo <= hz <= hi)
