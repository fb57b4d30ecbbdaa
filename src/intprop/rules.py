"""Domain reduction rules over integer-interval stores.

A store is a list mapping variable id to interval; a rule is a descriptor
with a ``reads`` tuple (variables its update depends on), a ``writes``
variable, and an ``apply(store, counters, snaps)`` method.  ``counters``
is a required :class:`~intprop.intervals.OpCounters`, which ``apply`` and
:func:`eval_monomial` bump for every interval operation.  ``apply`` returns
``-1`` when the store is unchanged, otherwise the written variable id; a
write of ``None`` (the empty interval) into the store signals failure and
the caller must stop propagating, and no rule is applied to a store with
an empty domain.

Rules are immutable.  ``snaps`` is a ``dict`` that the caller owns, one
per run: the rules of one general polynomial constraint share a snapshot
of its monomials' intervals and residues, and those of one linear
equality of at least :data:`LONG_SUM` terms a snapshot of one rule's
residue, each kept in ``snaps`` under an immutable object of the
constraint.  A snapshot is validated by the constraint's domains alone,
and any of the rules may fill it in or replace it.  The result of
``apply`` depends only on the store's domains, and its op counts only on
those and on the snapshots of earlier applications with the same
``snaps``.

Rule families:

* linear equality/inequality over distinct variables,
* polynomial equality/inequality acting on one variable occurrence of a
  general constraint, with an optional simplified-fraction mode that
  divides out common variable powers and evaluates the residue in exact
  rational arithmetic,
* the three multiplication rules for ``x*y = z``, exponentiation/root
  extraction for ``x = y**n``,
* bound-trimming disequality rules, and a general disequality check that
  waits until every variable it reads is fixed and then evaluates the
  constraint exactly with :func:`~intprop.model.check_assignment`.

The rules that divide by an interval (``PolyRule`` and ``MultRule`` of
kinds 2 and 3) take the name of a division, ``"weak"`` or ``"strong"``,
and look its kernel up in :data:`DIVISIONS`, the one map from a name to
``intervals.div_weak`` or ``intervals.div``; another name raises.

Each narrowing step is written once and shared: :func:`_narrow`
intersects the written domain with a result, or with the parts of its
``n``-th root (``PolyRule`` and ``RootXRule``), and reports a domain
unchanged when both bounds it keeps are the domain's own objects;
:func:`_exclude` trims a forbidden value off a bound (both bound-trimming
disequality rules); and :func:`_residue` sums a linear residue in interval
arithmetic (both linear rules).  ``_narrow`` and ``_exclude`` take the
variable to narrow rather than the rule: the interpreter cannot specialize
an attribute load in code that rules of many classes share.

The ``apply`` of the linear rules and of ``MultRule``, the most frequent
rules of a full decomposition, is the generic reference and reads as the
paper's proof rules do: the residue by :func:`_residue` divided by
``intervals.div_scalar``, or the rule's ``intervals`` kernel, then
``_narrow``.  :mod:`~intprop.kernels` generates one specialized copy per
shape of rule, which computes in integers, counts by constants and returns
the generic ``apply`` on an infinite bound; ``engine.Solver`` applies the
copies.  Two hand-fused paths remain.  A rule of a long equality takes its
residue from the shared snapshot, then divides and narrows in place,
counting what ``intervals.div_scalar`` would.  :func:`eval_monomial`
inlines only the non-negative rows of ``intervals.exp`` and
``intervals.mult``, for factors that are finite and non-negative; these
rows are the only ones the benchmark workloads reach, and every other sign
class has its one implementation in :mod:`~intprop.intervals`.

Updates always intersect with the current domain, so every rule is a
contraction, and monotone interval operations make the common fixpoint
independent of the application order.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from typing import List, Sequence, Tuple

from . import intervals as iv
from .intervals import Interval, OpCounters
from .model import (
    MultAtom,
    PolynomialConstraint,
    PowerAtom,
    PowerProduct,
    TrivialConstraint,
    check_assignment,
)
from .rationals import q_add, q_div, q_of, q_to_interval

UNCHANGED = -1

# the least number of terms of a linear equality whose rules share one
# residue snapshot; on shorter sums the per-rule sum costs less than the
# snapshot's upkeep
LONG_SUM = 6

# the interval kernel of each division, by name
DIVISIONS = {"weak": iv.div_weak, "strong": iv.div}


def check_division(division: str) -> None:
    """Raise ``ValueError`` unless :data:`DIVISIONS` names ``division``."""
    if division not in DIVISIONS:
        raise ValueError("division must be 'weak' or 'strong'")


DomainStore = List[Interval]


def eval_monomial(coeff: int, pp: PowerProduct, store: DomainStore,
                  ctr: OpCounters) -> Interval:
    """Interval of a monomial: powers, pairwise products, coefficient.

    While every factor is finite and non-negative, the powers and products
    are the non-negative rows of :func:`~intprop.intervals.exp`'s and
    :func:`~intprop.intervals.mult`'s tables, taken inline with the same op
    counts.  Any other store goes through those kernels and
    :func:`~intprop.intervals.scale`.
    """
    if not pp:
        return (coeff, coeff)
    try:
        # the coefficient first; an infinite (None) bound raises TypeError
        # before any count
        f0 = f1 = coeff
        n_exp = 0
        for v, e in pp:
            g0, g1 = store[v]
            if g0 < 0:
                break
            if e > 1:
                n_exp += 1
                g0, g1 = g0 ** e, g1 ** e
            f0 *= g0
            f1 *= g1
        else:
            ctr.exp += n_exp
            ctr.multI += len(pp) - 1
            ctr.multF += 1
            return (f0, f1) if coeff > 0 else (f1, f0)
    except TypeError:
        pass
    v, e = pp[0]
    f = store[v] if e == 1 else iv.exp(store[v], e, ctr)
    for v, e in pp[1:]:
        g = store[v] if e == 1 else iv.exp(store[v], e, ctr)
        f = iv.mult(f, g, ctr)
    return iv.scale(f, coeff, ctr)


def _narrow(store, w, q, n=1, ctr=None):
    """Narrow ``w`` to its values whose ``n``-th power lies in ``q``: its
    domain's intersection with ``q``, or the hull of its intersections
    with the parts of the ``n``-th root of ``q``."""
    dv = store[w]
    if n == 1:
        if q is None:
            store[w] = None
            return w
        # iv.intersect inline; a bound kept from ``dv`` is the same object
        d0, d1 = dv
        lo, hi = q
        if lo is None or (d0 is not None and d0 >= lo):
            lo = d0
        if hi is None or (d1 is not None and d1 <= hi):
            hi = d1
        if lo is d0 and hi is d1:
            return UNCHANGED
        if lo is not None and hi is not None and lo > hi:
            store[w] = None
        else:
            store[w] = (lo, hi)
        return w
    nd = None
    for part in iv.root(q, n, ctr):
        p = iv.intersect(dv, part)
        if p is not None:
            nd = iv.span(nd, p)
    if nd == dv:
        return UNCHANGED
    store[w] = nd
    return w


class Rule:
    """Base descriptor; subclasses fill reads/writes and apply."""

    __slots__ = ("reads", "writes")

    variant = "?"

    def apply(self, store: DomainStore, ctr: OpCounters, snaps: dict) -> int:
        raise NotImplementedError

    def __repr__(self):
        return "%s(writes=x%d, reads=%s)" % (
            self.variant, self.writes, ",".join("x%d" % r for r in self.reads))


class LinearEqRule(Rule):
    """Isolate one variable of `sum a_i*x_i = b` and divide the residue.

    ``shared`` is ``None`` (the residue is summed from the other terms on
    every application) or the ``operator.itemgetter`` of the constraint's
    variables, which :func:`build_rules` passes to every rule of an
    equality of at least :data:`LONG_SUM` terms.  It reads the
    constraint's domains off a store and keys the constraint's snapshot in
    ``snaps``: the list ``[domains, a_j, j, lo, hi, tlo, thi]``, the
    domains it holds values for, the term ``a_j*x_j`` of the rule whose
    residue ``b - sum_{i != j} a_i*x_i`` is ``[lo, hi]``, and the total
    ``b - sum a_i*x_i`` as ``[tlo, thi]``, ``None`` until a rule computes
    it.  On a store with those domains a rule takes its residue from the
    snapshot in O(1); otherwise it sums the residue and publishes a fresh
    snapshot.  Every bound a snapshot covers is finite, so taking a term
    out of the residue or adding one back is exact.
    """

    __slots__ = ("others", "aj", "b", "shared")

    variant = "LinearEq"

    def __init__(self, coeffs: Sequence[Tuple[int, int]], b: int, j: int,
                 shared: operator.itemgetter = None):
        coeffs = tuple(coeffs)
        self.others = coeffs[:j] + coeffs[j + 1:]
        self.aj, self.writes = coeffs[j]
        self.b = b
        self.reads = tuple([v for _, v in self.others])
        self.shared = shared

    def apply(self, store, ctr, snaps):
        aj = self.aj
        w = self.writes
        shared = self.shared
        if shared is None:
            return _narrow(store, w, iv.div_scalar(_residue(self, store, ctr),
                                                   aj, ctr))
        # the residue from the snapshot, if it is for this store's domains
        # (a constraint with none yet compares as a miss), or summed
        snap = snaps.get(shared, (None,))
        domains = shared(store)
        if snap[0] != domains:
            try:
                lo = hi = self.b
                for a, v in self.others:
                    d0, d1 = store[v]
                    if a > 0:
                        lo -= d1 * a
                        hi -= d0 * a
                    else:
                        lo -= d0 * a
                        hi -= d1 * a
            except TypeError:
                return _narrow(store, w, iv.div_scalar(
                    _residue(self, store, ctr), aj, ctr))
            # a miss: the residue is published below
            n = len(self.others)
            snap = None
        else:
            # the total b - sum of every term, once per snapshot: the
            # snapshot's residue minus its term a_j*x_j
            n = 1
            tlo = snap[5]
            if tlo is None:
                a = snap[1]
                d0, d1 = store[snap[2]]
                if a > 0:
                    tlo = snap[5] = snap[3] - d1 * a
                    thi = snap[6] = snap[4] - d0 * a
                else:
                    tlo = snap[5] = snap[3] - d0 * a
                    thi = snap[6] = snap[4] - d1 * a
                n = 2
            else:
                thi = snap[6]
            # plus this rule's own term
            d0, d1 = store[w]
            if aj > 0:
                lo = tlo + d1 * aj
                hi = thi + d0 * aj
            else:
                lo = tlo + d0 * aj
                hi = thi + d1 * aj
        rlo = lo
        rhi = hi
        # n terms scaled and added; iv.div_scalar and _narrow inline, with
        # the same op counts
        ctr.sum += n
        if aj == 1 or aj == -1:
            ctr.multF += n + 1
        else:
            ctr.multF += n
            ctr.div += 1
        if aj > 0:
            if aj != 1:
                lo = -((-lo) // aj)
                hi //= aj
        elif aj == -1:
            lo, hi = -hi, -lo
        else:
            lo, hi = -((-hi) // aj), lo // aj
        d0, d1 = store[w]
        if d0 is not None and d0 >= lo:
            lo = d0
        if d1 is not None and d1 <= hi:
            hi = d1
        if lo is d0 and hi is d1:
            if snap is None:
                # every bound is finite: the other terms summed, and the
                # written domain kept both of its own
                snaps[shared] = [domains, aj, w, rlo, rhi, None, None]
            return UNCHANGED
        if lo > hi:
            store[w] = None
            return w
        store[w] = (lo, hi)
        # the residue does not read x_j, so it holds after the write
        snaps[shared] = [shared(store), aj, w, rlo, rhi, None, None]
        return w


class LinearIneqRule(LinearEqRule):
    """Isolate one variable of `sum a_i*x_i <= b` via half-line division."""

    __slots__ = ()

    variant = "LinearIneq"

    def apply(self, store, ctr, snaps):
        # only the upper end of the residue matters for <=
        return _narrow(store, self.writes, iv.div_scalar(
            (None, _residue(self, store, ctr)[1]), self.aj, ctr))


def _residue(rule, store, ctr):
    """``b`` minus the other terms of a linear rule, in interval
    arithmetic."""
    acc = (rule.b, rule.b)
    for a, v in rule.others:
        acc = iv.sub(acc, iv.scale(store[v], a, ctr), ctr)
    return acc


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


class _Residuals:
    """The residues of one polynomial constraint, shared by all its
    :class:`PolyRule` objects.

    Its snapshot, kept in ``snaps`` under the ``_Residuals`` itself, is
    ``(domains, cells)``: the domains of the constraint's variables that
    the cells hold values for, and the list ``[total, first, acc_0 ..
    acc_k-1, m_0 .. m_k-1]``, each entry ``None`` until computed.  ``m_i``
    is the ``i``-th monomial's interval, ``acc_l`` the residue ``b`` minus
    every monomial but the ``l``-th, ``total`` ``b`` minus all of them,
    and ``first`` the ``l`` of the first residue summed.  A residue is
    kept as ``(lo, nlo, hi, nhi)``: ``b`` minus the finite upper bounds,
    the number of infinite ones, ``b`` minus the finite lower bounds, the
    number of infinite ones.  Bounds are exact integers, so taking a
    monomial out of a residue or adding one back is exact: it moves one
    bound or one count.

    The cells are reused only on a store with equal domains; otherwise
    fresh ones are published with one dict write.  Every monomial is
    evaluated at most once per snapshot, and only for a rule that does not
    pivot on it.  The first residue is summed from the other monomials.
    With three or more monomials, ``total`` is then the first residue
    minus its own monomial, and every further residue is ``total`` plus
    one monomial.  So no rule application evaluates a monomial or adds an
    interval that the per-rule sum ``b - m_1 - ... - m_k`` would not.
    """

    __slots__ = ("b", "counts", "vars", "domains_of", "terms", "blank")

    def __init__(self, constraint: PolynomialConstraint):
        mons = constraint.monomials
        k = len(mons)
        self.b = constraint.rhs
        # the number of monomials each variable occurs in
        self.counts = counts = Counter(v for _, pp in mons for v, _ in pp)
        self.vars = tuple(sorted(counts))
        self.domains_of = operator.itemgetter(*self.vars)
        # (cell of m_i, coefficient, power product) for each monomial
        self.terms = tuple((2 + k + i, c, pp)
                           for i, (c, pp) in enumerate(mons))
        self.blank = [None] * (2 + 2 * k)

    def residue(self, l: int, store: DomainStore, ctr: OpCounters,
                snaps: dict) -> Interval:
        """``b`` minus every monomial but the ``l``-th, on ``store``."""
        domains = self.domains_of(store)
        snap = snaps.get(self)
        if snap is None or snap[0] != domains:
            snap = snaps[self] = (domains, self.blank.copy())
        cells = snap[1]
        acc = cells[2 + l]
        if acc is None:
            if cells[1] is not None and len(self.terms) > 2:
                acc = self._from_total(cells, l, store, ctr)
            else:
                acc = self._sum_others(cells, l, store, ctr)
                if cells[1] is None:
                    cells[1] = l
            cells[2 + l] = acc
        lo, nlo, hi, nhi = acc
        return (None if nlo else lo, None if nhi else hi)

    def _sum_others(self, cells, l, store, ctr):
        # b minus the other monomials, evaluating those not yet known;
        # the counts of infinite bounds only when there are any
        terms = self.terms
        skip = terms[l][0]
        lo = hi = self.b
        for j, c, pp in terms:
            if j != skip:
                m = cells[j]
                if m is None:
                    m = cells[j] = eval_monomial(c, pp, store, ctr)
                try:
                    lo -= m[1]
                    hi -= m[0]
                except TypeError:
                    lo = None
        ctr.sum += len(terms) - 1
        if lo is not None:
            return (lo, 0, hi, 0)
        acc = (self.b, 0, self.b, 0)
        for j, _, _ in terms:
            if j != skip:
                acc = _shift(acc, cells[j], -1)
        return acc

    def _from_total(self, cells, l, store, ctr):
        # total plus m_l: two additions for the second residue, one after,
        # where b minus the other monomials takes k - 1 >= 2
        total = cells[0]
        if total is None:
            f = cells[1]
            j, c, pp = self.terms[f]
            m = cells[j]
            if m is None:
                m = cells[j] = eval_monomial(c, pp, store, ctr)
            total = cells[0] = _shift(cells[2 + f], m, -1)
            ctr.sum += 1
        ctr.sum += 1
        # the first residue and its own monomial cover all of them
        return _shift(total, cells[self.terms[l][0]], 1)


def _shift(acc, m, sign):
    """The residue ``acc`` plus ``sign`` (1 or -1) times the interval
    ``m``."""
    lo, nlo, hi, nhi = acc
    if m[1] is None:
        nlo -= sign
    else:
        lo += sign * m[1]
    if m[0] is None:
        nhi -= sign
    else:
        hi += sign * m[0]
    return (lo, nlo, hi, nhi)


class PolyRule(Rule):
    """One variable occurrence of a polynomial constraint.

    The pivot monomial ``m_l`` is split into the isolated power
    ``x_j ** n_p`` and the divisor monomial ``s``; the residue ``b`` minus
    the other monomials is divided by ``s`` and root-extracted.  The
    residue comes from the :class:`_Residuals` that all rules of the
    constraint share; on a store with its snapshot's domains, in
    O(1).  Equality divides an interval, inequality the half-line below
    its upper bound; both use the rule's division, which never snaps the
    denominator for a half-line (weak and strong division agree there).
    In simplified-fraction mode common variable powers between the terms
    and ``s`` are cancelled symbolically, and the residue is summed in
    rational arithmetic and rounded once, to an interval or, for an
    inequality, a half-line.  That mode runs only while every divisor
    variable's domain excludes zero (otherwise the plain path runs), so
    every denominator it passes to :func:`~intprop.rationals.q_div` is
    zero-free, as ``q_div`` requires.

    ``shared`` is the constraint's :class:`_Residuals`, which
    :func:`build_rules` passes to every rule of the constraint.
    """

    __slots__ = ("shared", "l", "s_coeff", "s_pp", "n_p", "op",
                 "divfn", "optimized", "groups", "s_vars")

    variant = "Poly"

    def __init__(self, constraint: PolynomialConstraint, l: int, vj: int,
                 division: str = "weak", optimized: bool = False, *,
                 shared: _Residuals):
        mons = constraint.monomials
        self.shared = shared
        self.l = l
        c, pp = mons[l]
        self.n_p = dict(pp)[vj]
        self.s_coeff = c
        self.s_pp = tuple([(v, e) for v, e in pp if v != vj])
        self.op = constraint.op
        self.divfn = DIVISIONS[division]
        self.writes = vj
        # every variable of the constraint, but x_j when it occurs in the
        # pivot monomial only and the root is odd (even-root parts clip
        # against its own domain)
        counts = shared.counts
        self.reads = shared.vars
        if counts[vj] == 1 and self.n_p % 2 == 1:
            self.reads = tuple([v for v in self.reads if v != vj])
        self.s_vars = tuple([v for v, _ in self.s_pp])
        # a divisor variable that another monomial shares
        self.optimized = optimized and any(counts[v] > 1
                                           for v in self.s_vars)
        self.groups = (_simplified_groups(mons, l, constraint.rhs, c,
                                          self.s_pp)
                       if self.optimized else None)

    def apply(self, store, ctr, snaps):
        if self.optimized:
            for v in self.s_vars:
                d = store[v]
                if not ((d[0] is not None and d[0] > 0)
                        or (d[1] is not None and d[1] < 0)):
                    break
            else:
                return self._apply_fractions(store, ctr)
        acc = self.shared.residue(self.l, store, ctr, snaps)
        if self.op == "le":
            acc = (None, acc[1])
        if self.s_pp:
            siv = eval_monomial(self.s_coeff, self.s_pp, store, ctr)
            q = self.divfn(acc, siv, ctr)
        else:
            q = iv.div_scalar(acc, self.s_coeff, ctr)
        return _narrow(store, self.writes, q, self.n_p, ctr)

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
                qt = q_of(num)
            qsum = qt if qsum is None else q_add(qsum, qt, ctr)
        if self.op == "le":
            positive = self.s_coeff > 0
            for v, e in self.s_pp:
                if e % 2 == 1 and store[v][1] is not None and store[v][1] < 0:
                    positive = not positive
            # s * x_j**n_p <= residue: x_j**n_p is at most the quotient
            # when s > 0, at least it when s < 0
            qsum = (None, qsum[1]) if positive else (qsum[0], None)
        return _narrow(store, self.writes, q_to_interval(qsum), self.n_p,
                       ctr)


class MultRule(Rule):
    """One of the three reduction directions of `x*y = z`: kind 1 bounds z
    by ``x*y``, kind 2 x by ``z/y``, kind 3 y by ``z/x``.  The kernel
    ``fn`` and its operands ``a``, ``b`` are fixed when the rule is built.
    """

    __slots__ = ("kind", "fn", "a", "b")

    def __init__(self, kind: int, x: int, y: int, z: int,
                 division: str = "weak"):
        self.kind = kind
        if kind == 1:
            self.fn, self.a, self.b, self.writes = iv.mult, x, y, z
            self.reads = (x, y)
        else:
            self.fn = DIVISIONS[division]
            self.a, self.b, self.writes = (z, y, x) if kind == 2 else (z, x, y)
            self.reads = (self.b, z)

    @property
    def variant(self):
        w = "w" if self.fn is iv.div_weak else ""
        return "Mult%d%s" % (self.kind, w)

    def apply(self, store, ctr, snaps):
        return _narrow(store, self.writes,
                       self.fn(store[self.a], store[self.b], ctr))


class ExpoRule(Rule):
    """Forward direction of `x = y**n`: bound x by the power of y."""

    __slots__ = ("y", "n")

    variant = "Expo"

    def __init__(self, x: int, y: int, n: int):
        self.y = y
        self.n = n
        self.writes = x
        self.reads = (y,)

    def apply(self, store, ctr, snaps):
        return _narrow(store, self.writes, iv.exp(store[self.y], self.n, ctr))


class RootXRule(Rule):
    """Backward direction of `x = y**n`: intersect y with the n-th root."""

    __slots__ = ("x", "n")

    variant = "RootX"

    def __init__(self, x: int, y: int, n: int):
        self.x = x
        self.n = n
        self.writes = y
        self.reads = (x, y) if n % 2 == 0 else (x,)

    def apply(self, store, ctr, snaps):
        return _narrow(store, self.writes, store[self.x], self.n, ctr)


class DiseqVarVarRule(Rule):
    """`x - y != shift`: trim a bound of the target when the other side is
    fixed at it; fail when both are fixed and equal."""

    __slots__ = ("other", "shift")

    variant = "Diseq"

    def __init__(self, target: int, other: int, shift: int):
        # shift is the forbidden (target - other) difference
        self.other = other
        self.shift = shift
        self.writes = target
        self.reads = (target, other)

    def apply(self, store, ctr, snaps):
        do = store[self.other]
        if do[0] is None or do[0] != do[1]:
            return UNCHANGED
        return _exclude(store, self.writes, do[0] + self.shift)


class DiseqVarConstRule(Rule):
    """`x != c`: trim the bound equal to c, fail on the singleton c."""

    __slots__ = ("c",)

    variant = "Diseq"

    def __init__(self, x: int, c: int):
        self.c = c
        self.writes = x
        self.reads = (x,)

    def apply(self, store, ctr, snaps):
        return _exclude(store, self.writes, self.c)


def _exclude(store, x, c):
    """Trim ``c`` off the bounds of ``x``'s domain: a bound equal to ``c``
    moves one step inwards, and the singleton ``c`` becomes empty."""
    dv = store[x]
    if dv[0] == c:
        nd = None if dv[1] == c else (c + 1, dv[1])
    elif dv[1] == c:
        nd = (dv[0], c - 1)
    else:
        return UNCHANGED
    store[x] = nd
    return x


class DiseqCheckRule(Rule):
    """General disequality, decided by :func:`check_assignment` once every
    variable it reads is fixed."""

    __slots__ = ("constraint",)

    variant = "Diseq"

    def __init__(self, constraint: PolynomialConstraint):
        self.constraint = constraint
        vs = tuple(sorted(constraint.vars()))
        self.reads = vs
        self.writes = vs[0]

    def apply(self, store, ctr, snaps):
        values = {}
        for v in self.reads:
            d = store[v]
            if d[0] is None or d[0] != d[1]:
                return UNCHANGED
            values[v] = d[0]
        if check_assignment(self.constraint, values):
            return UNCHANGED
        store[self.writes] = None
        return self.writes


def _diseq_rules(c: PolynomialConstraint) -> List[Rule]:
    mons = c.monomials
    if c.is_linear():
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
    ``division`` names the quotient kernel of the ``MultRule`` and
    ``PolyRule`` objects in :data:`DIVISIONS`; any other name raises
    ``ValueError``.
    """
    check_division(division)
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
            coeffs = tuple([(cf, pp[0][0]) for cf, pp in c.monomials])
            cls = LinearEqRule if c.op == "eq" else LinearIneqRule
            shared = (operator.itemgetter(*(v for _, v in coeffs))
                      if c.op == "eq" and len(coeffs) >= LONG_SUM else None)
            for j in range(len(coeffs)):
                rules.append(cls(coeffs, c.rhs, j, shared))
            continue
        shared = _Residuals(c)
        for l, (_, pp) in enumerate(c.monomials):
            for v, _ in pp:
                rules.append(PolyRule(c, l, v, division, optimized,
                                      shared=shared))
    return rules


def readers_index(rules: Sequence[Rule], nvars: int) -> List[List[int]]:
    """For each variable, the rules whose update depends on it."""
    readers: List[List[int]] = [[] for _ in range(nvars)]
    for i, r in enumerate(rules):
        for v in r.reads:
            readers[v].append(i)
    return readers
