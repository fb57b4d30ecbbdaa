"""The sign-classified kernels against the sign-blind ones they replaced.

``mult`` and ``intervals._endpoint_div`` pick the corners that bound
their result from the sign classes of the operands, and read an infinite
(``None``) bound in the same table.  The oracles below are the kernels as
they were before: every corner product, every floor quotient, then a min
and a max, with infinite bounds as ``math.inf`` floats and infinity
absorption (``_xmul``, ``_fdivx``).  The kernels must give the same
result on the grid of bounds in [-6..6] or infinite, on random
big-integer bounds, finite or not, and on every pair of sign classes.  ``div_scalar``, the quotient
by a singleton {k}, must give what its own ceil/floor per sign of k gave,
with the same operation counts.  ``rules.eval_monomial``, which inlines
only the non-negative rows of ``exp`` and ``mult``, must also give the
same operation counts.

The linear rules divide their residue and narrow in place when every
bound is finite, ``MultRule`` when every bound is finite and
non-negative, and ``rules._narrow`` intersects inline; their oracle is
the generic path, the kernel and then an intersection.  The rules of a
long linear equality take their residue from a snapshot they share; their
oracle is the per-rule sum, the same rule built without one.
"""

import math
import operator
import random

import pytest

from intprop import intervals, rules
from intprop.intervals import OpCounters, div, div_weak, mult

_INF = math.inf


def _xmul(x, y):
    # endpoint product with infinity absorption; inf * 0 is 0 because a
    # bounded factor of zero pins that corner of the product set
    if x == 0 or y == 0:
        return 0
    if isinstance(x, float) or isinstance(y, float):
        return _INF if (x > 0) == (y > 0) else -_INF
    return x * y


def _fdivx(x, y):
    # floor(x / y) where x, y may be +-inf floats; y != 0
    if isinstance(x, float):
        return _INF if (x > 0) == (y > 0) else -_INF
    if isinstance(y, float):
        if x == 0:
            return 0
        return 0 if (x > 0) == (y > 0) else -1
    return x // y


def mult_oracle(a, b):
    if a is None or b is None:
        return None
    a0, a1 = a
    b0, b1 = b
    if a0 is not None and a1 is not None and b0 is not None and b1 is not None:
        p, q, r, s = a0 * b0, a0 * b1, a1 * b0, a1 * b1
        return (min(p, q, r, s), max(p, q, r, s))
    xa0 = -_INF if a0 is None else a0
    xa1 = _INF if a1 is None else a1
    xb0 = -_INF if b0 is None else b0
    xb1 = _INF if b1 is None else b1
    cands = [_xmul(x, y) for x in (xa0, xa1) for y in (xb0, xb1)]
    lo, hi = min(cands), max(cands)
    return (None if lo == -_INF else lo, None if hi == _INF else hi)


def endpoint_div_oracle(a0, a1, c, d):
    # ceil of the least and floor of the greatest of all four quotients
    xa0 = -_INF if a0 is None else a0
    xa1 = _INF if a1 is None else a1
    xc = -_INF if c is None else c
    xd = _INF if d is None else d
    lo = -max(_fdivx(-x, y) for x in (xa0, xa1) for y in (xc, xd))
    hi = max(_fdivx(x, y) for x in (xa0, xa1) for y in (xc, xd))
    return intervals.mk(None if lo == -_INF else lo,
                        None if hi == _INF else hi)


def div_scalar_oracle(a, k, ctr):
    # div_scalar as it was before it called the shared quotient: its own
    # ceil/floor per sign of k
    if k == 1 or k == -1:
        ctr.multF += 1
        return a if k == 1 else intervals.negate(a)
    ctr.div += 1
    if a is None:
        return None
    a0, a1 = a
    if k == 0:
        holds_zero = (a0 is None or a0 <= 0) and (a1 is None or a1 >= 0)
        return intervals.ALL if holds_zero else None
    if k > 0:
        lo = None if a0 is None else -((-a0) // k)
        hi = None if a1 is None else a1 // k
    else:
        lo = None if a1 is None else -((-a1) // k)
        hi = None if a0 is None else a0 // k
    return intervals.mk(lo, hi)


def eval_monomial_oracle(coeff, pp, store, ctr):
    # the bounded loop takes all four corner products of every factor
    if not pp:
        return (coeff, coeff)
    try:
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
        ctr.exp += n_exp
        ctr.multI += n_mult
        ctr.multF += 1
        return out
    except TypeError:
        pass
    v, e = pp[0]
    f = store[v] if e == 1 else intervals.exp(store[v], e, ctr)
    for v, e in pp[1:]:
        g = store[v] if e == 1 else intervals.exp(store[v], e, ctr)
        f = mult_oracle(f, g)
        ctr.multI += 1
    return intervals.scale(f, coeff, ctr)


GRID = [None] + list(range(-6, 7))
GRID_IVS = [(lo, hi) for lo in GRID for hi in GRID
            if lo is None or hi is None or lo <= hi] + [None]

# one interval of each sign class: non-negative, non-positive, straddling
CLASSES = ("nonneg", "nonpos", "straddle")


def draw_class(rng, cls, mag):
    x, y = sorted((rng.randint(0, mag), rng.randint(0, mag)))
    if cls == "nonneg":
        return (x, y)
    if cls == "nonpos":
        return (-y, -x)
    return (-rng.randint(1, mag), rng.randint(1, mag))


def sign_class(a):
    lo, hi = a
    if lo is not None and lo >= 0:
        return "nonneg"
    return "nonpos" if hi is not None and hi <= 0 else "straddle"


def unbound_outer(rng, a, p):
    # a with each bound that leaves its sign class made infinite with
    # probability p: the upper of a non-negative interval, the lower of a
    # non-positive one, either of one straddling 0
    lo, hi = a
    cls = sign_class(a)
    if cls != "nonneg" and rng.random() < p:
        lo = None
    if cls != "nonpos" and rng.random() < p:
        hi = None
    return (lo, hi)


def big_interval(rng):
    lo, hi = sorted(rng.randint(-10 ** rng.randint(0, 30),
                                10 ** rng.randint(0, 30)) for _ in range(2))
    r = rng.random()
    if r < 0.05:
        lo = None
    elif r < 0.1:
        hi = None
    return (lo, hi)


def with_oracle_endpoint_div(monkeypatch, op, pairs):
    monkeypatch.setattr(intervals, "_endpoint_div", endpoint_div_oracle)
    try:
        return [op(a, b, OpCounters()) for a, b in pairs]
    finally:
        monkeypatch.undo()


class TestGrid:
    PAIRS = [(a, b) for a in GRID_IVS for b in GRID_IVS]

    def test_grid_size(self):
        assert len(self.PAIRS) == 14161

    def test_mult(self):
        for a, b in self.PAIRS:
            assert mult(a, b, OpCounters()) == mult_oracle(a, b), (a, b)

    def test_div_and_div_weak(self, monkeypatch):
        for op in (div, div_weak):
            got = [op(a, b, OpCounters()) for a, b in self.PAIRS]
            assert got == with_oracle_endpoint_div(monkeypatch, op, self.PAIRS)


class TestRandomBigIntegers:
    N = 100_000

    def test_mult_and_div_weak(self, monkeypatch):
        rng = random.Random(2001)
        pairs = [(big_interval(rng), big_interval(rng)) for _ in range(self.N)]
        for a, b in pairs:
            assert mult(a, b, OpCounters()) == mult_oracle(a, b), (a, b)
        got = [div_weak(a, b, OpCounters()) for a, b in pairs]
        assert got == with_oracle_endpoint_div(monkeypatch, div_weak, pairs)

    def test_endpoint_div_on_zero_free_denominators(self):
        # the formula strong division applies after its snap, and weak
        # division on any zero-free denominator, also one with an infinite
        # far end
        rng = random.Random(2002)
        seen = set()
        for _ in range(self.N):
            a0, a1 = big_interval(rng)
            c, d = sorted(rng.randint(1, 10 ** rng.randint(0, 30))
                          for _ in range(2))
            if rng.random() < 0.1:
                d = None
            if rng.random() < 0.5:
                c, d = (None if d is None else -d), -c
            assert (intervals._endpoint_div(a0, a1, c, d)
                    == endpoint_div_oracle(a0, a1, c, d)), (a0, a1, c, d)
            seen.add((c is None, d is None, a0 is None or a1 is None))
        assert seen == {(c, d, a) for c, d in ((False, False), (True, False),
                                               (False, True))
                        for a in (False, True)}


class TestSignClassPairs:
    def test_every_pair_of_classes(self, monkeypatch):
        rng = random.Random(2003)
        seen = set()
        for ca in CLASSES:
            for cb in CLASSES:
                for mag in (3, 10 ** 4, 10 ** 30):
                    pairs = [(draw_class(rng, ca, mag),
                              draw_class(rng, cb, mag)) for _ in range(300)]
                    for a, b in pairs:
                        assert (mult(a, b, OpCounters())
                                == mult_oracle(a, b)), (a, b)
                        seen.add((sign_class(a), sign_class(b)))
                    ops = (div_weak,) if mag > 10 ** 4 else (div_weak, div)
                    for op in ops:
                        got = [op(a, b, OpCounters()) for a, b in pairs]
                        assert got == with_oracle_endpoint_div(
                            monkeypatch, op, pairs), (op, ca, cb, mag)
        assert len(seen) == 9

    def test_both_denominator_signs_of_the_endpoint_formula(self):
        rng = random.Random(2004)
        seen = set()
        for ca in CLASSES:
            for neg in (False, True):
                for _ in range(2000):
                    a0, a1 = unbound_outer(
                        rng, draw_class(rng, ca, 10 ** rng.randint(1, 30)),
                        0.25)
                    c, d = unbound_outer(
                        rng, draw_class(rng, "nonneg", 10 ** rng.randint(1, 30)),
                        0.25)
                    c, d = c + 1, None if d is None else d + 1
                    if neg:
                        c, d = (None if d is None else -d), -c
                    assert (intervals._endpoint_div(a0, a1, c, d)
                            == endpoint_div_oracle(a0, a1, c, d)), \
                        (a0, a1, c, d)
                    seen.add((sign_class((a0, a1)), neg,
                              c is None or d is None,
                              a0 is None or a1 is None))
        # each class and denominator sign, with finite and infinite far
        # ends and numerator bounds
        assert len(seen) == 24


class TestDivScalar:
    def check(self, a, k):
        got_ctr, want_ctr = OpCounters(), OpCounters()
        got = intervals.div_scalar(a, k, got_ctr)
        assert got == div_scalar_oracle(a, k, want_ctr), (a, k)
        assert got_ctr.as_dict() == want_ctr.as_dict(), (a, k)

    def test_grid(self):
        # every interval with bounds in [-6..6] or infinite, and the empty
        # one, by 0, the units and both signs
        for a in GRID_IVS:
            for k in range(-4, 5):
                self.check(a, k)

    def test_random_big_integers(self):
        rng = random.Random(2006)
        for _ in range(20000):
            k = rng.randint(1, 10 ** rng.randint(0, 30))
            self.check(big_interval(rng), k if rng.random() < 0.5 else -k)


class TestEvalMonomial:
    def test_random_monomials_on_mixed_sign_stores(self):
        rng = random.Random(2005)
        nvars = 6
        for _ in range(20000):
            store = []
            for _ in range(nvars):
                r = rng.random()
                if r < 0.1:
                    store.append(big_interval(rng))
                else:
                    cls = CLASSES[0] if r < 0.6 else rng.choice(CLASSES)
                    mag = rng.choice((2, 9, 10 ** 12))
                    store.append(draw_class(rng, cls, mag))
            vs = sorted(rng.sample(range(nvars), rng.randint(0, 4)))
            pp = tuple((v, rng.choice((1, 1, 2, 3))) for v in vs)
            coeff = rng.choice((-3, -1, 0, 1, 2, 7))
            got_ctr, want_ctr = OpCounters(), OpCounters()
            got = rules.eval_monomial(coeff, pp, store, got_ctr)
            want = eval_monomial_oracle(coeff, pp, store, want_ctr)
            assert got == want, (coeff, pp, store)
            assert got_ctr.as_dict() == want_ctr.as_dict(), (coeff, pp, store)

    def test_every_small_monomial(self, monkeypatch):
        # one or two factors over every interval with bounds in [-3..3] or
        # infinite: the inline path serves exactly the finite non-negative
        # stores, and counts nothing before it gives one up
        ivs = [d for d in SMALL_IVS if d is not None]
        called = []
        for name in ("exp", "mult", "scale"):
            def spy(*args, _fn=getattr(intervals, name)):
                called.append(True)
                return _fn(*args)
            monkeypatch.setattr(intervals, name, spy)
        exps = (1, 2, 3)
        pps = ([((0, e),) for e in exps]
               + [((0, e), (1, f)) for e in exps for f in exps])
        for coeff in (-2, 1, 3):
            for pp in pps:
                for d0 in ivs:
                    for d1 in (ivs if len(pp) == 2 else [(0, 0)]):
                        store = [d0, d1]
                        got_ctr, want_ctr = OpCounters(), OpCounters()
                        del called[:]
                        got = rules.eval_monomial(coeff, pp, store, got_ctr)
                        inlined = all(x is not None and x >= 0
                                      for d in store[:len(pp)] for x in d)
                        case = (coeff, pp, store)
                        assert bool(called) != inlined, case
                        want = eval_monomial_oracle(coeff, pp, store,
                                                    want_ctr)
                        assert got == want, case
                        assert got_ctr.as_dict() == want_ctr.as_dict(), case


def linear_oracle(rule, store, ctr):
    # the generic path: the residue in interval arithmetic, divided by
    # div_scalar and intersected with the written domain
    acc = (rule.b, rule.b)
    for a, v in rule.others:
        acc = intervals.sub(acc, intervals.scale(store[v], a, ctr), ctr)
    if isinstance(rule, rules.LinearIneqRule):
        acc = (None, acc[1])
    w = rule.writes
    nd = intervals.intersect(store[w],
                             intervals.div_scalar(acc, rule.aj, ctr))
    if nd == store[w]:
        return rules.UNCHANGED
    store[w] = nd
    return w


def shifted(ivs, offset):
    return [None if d is None else
            tuple(None if x is None else x + offset for x in d)
            for d in ivs]


# a shift of 10**20 puts every bound outside the interpreter's cache of
# small ints, where a bound kept from the domain is the same object and an
# equal bound computed afresh is not; the small grid keeps that case fast
SMALL_IVS = [d for d in GRID_IVS
             if d is None or all(x is None or -3 <= x <= 3 for x in d)]
LINEAR_GRIDS = ((0, GRID_IVS), (10 ** 20, SMALL_IVS))
GRID_IDS = ("grid", "big")


class TestLinearRules:
    @pytest.mark.parametrize("offset, ivs", LINEAR_GRIDS, ids=GRID_IDS)
    @pytest.mark.parametrize("cls", (rules.LinearEqRule,
                                     rules.LinearIneqRule))
    def test_every_domain_pair(self, cls, offset, ivs):
        doms = [d for d in shifted(ivs, offset) if d is not None]
        outcomes = set()
        for aj in (-3, -2, -1, 1, 2, 3):
            for a, b in ((1, -5), (-2, 7)):
                # aj*x + a*y against b, shifted with the domains
                rule = cls([(aj, 0), (a, 1)], b + (aj + a) * offset, 0)
                for dx in doms:
                    for dy in doms:
                        got_ctr, want_ctr = OpCounters(), OpCounters()
                        got_store, want_store = [dx, dy], [dx, dy]
                        got = rule.apply(got_store, got_ctr, {})
                        want = linear_oracle(rule, want_store, want_ctr)
                        case = (aj, a, b, dx, dy)
                        assert got == want, case
                        assert got_store == want_store, case
                        assert got_ctr.as_dict() == want_ctr.as_dict(), case
                        outcomes.add("unchanged" if want < 0 else
                                     "emptied" if want_store[0] is None
                                     else "narrowed")
        assert outcomes == {"unchanged", "emptied", "narrowed"}

    @pytest.mark.parametrize("offset, ivs", LINEAR_GRIDS, ids=GRID_IDS)
    def test_narrow_is_intersect(self, offset, ivs):
        ivs = shifted(ivs, offset)
        for dom in ivs:
            if dom is None:
                continue
            for q in ivs:
                want = intervals.intersect(dom, q)
                store = [dom]
                got = rules._narrow(store, 0, q)
                assert store == [want], (dom, q)
                assert got == (rules.UNCHANGED if want == dom else 0), (dom, q)


class TestSharedLinearResidue:
    """Every rule of one long equality, applied in a random sequence over
    two stores that are also written, restored and copied between the
    applications, against the same rule summing its own residue.  Both
    stores share one snapshot dict, as a snapshot is validated by the
    constraint's domains alone."""

    @staticmethod
    def domain(rng, c):
        # mostly narrow finite bounds around c, some infinite ones
        r = rng.random()
        return (None if r < 0.04 else c - rng.choice((0, 0, 1, 3)),
                None if 0.04 <= r < 0.08 else c + rng.choice((0, 0, 1, 3)))

    @staticmethod
    def check_snapshot(snap, coeffs, b):
        # the snapshot covers finite bounds only, and on the domains it
        # was published for holds its rule's residue and, once computed,
        # the total
        if snap is None:
            return
        domains, _, j, lo, hi, tlo, thi = snap
        assert all(None not in d for d in domains), domains
        for skip, got in ((j, (lo, hi)), (None, (tlo, thi))):
            want = (b, b)
            for a, v in coeffs:
                if v != skip:
                    want = intervals.sub(
                        want, intervals.scale(domains[v], a, OpCounters()),
                        OpCounters())
            assert got in (want, (None, None)), (coeffs, b, domains, skip)

    @pytest.mark.parametrize("offset", (0, 10 ** 20), ids=GRID_IDS)
    def test_random_sequences_match_the_per_rule_sum(self, offset):
        rng = random.Random(23 + offset)
        outcomes = set()
        actions = set()
        fewer = 0
        for _ in range(40):
            k = rng.randint(rules.LONG_SUM, 14)
            coeffs = [(rng.choice((-3, -2, -1, 1, 2, 3)), v)
                      for v in range(k)]
            # domains around a point near the solutions, so that the rules
            # narrow and the residue's exact bounds matter
            centres = [rng.randint(-6, 6) + offset for _ in range(k)]
            b = sum(a * c for (a, _), c in zip(coeffs, centres))
            b += rng.choice((0, 0, 1, -2, rng.randint(-3 * k, 3 * k)))
            shared = operator.itemgetter(*range(k))
            snaps = {}
            pairs = [(rules.LinearEqRule(coeffs, b, j, shared),
                      rules.LinearEqRule(coeffs, b, j)) for j in range(k)]
            stores = [[self.domain(rng, c) for c in centres]
                      for _ in range(2)]
            saved = [list(s) for s in stores]
            for _ in range(100):
                store = rng.choice(stores)
                action = rng.random()
                if None in store or action < 0.08:
                    # restore the whole store in place
                    store[:] = rng.choice(saved)
                    actions.add("restore")
                    continue
                if action < 0.16:
                    # another write: a fresh domain, or the same values as
                    # new objects
                    v = rng.randrange(k)
                    if rng.random() < 0.5:
                        store[v] = self.domain(rng, centres[v])
                    else:
                        store[v] = tuple(None if x is None else int(str(x))
                                         for x in store[v])
                    actions.add("write")
                    continue
                if action < 0.2:
                    saved.append(list(store))
                    continue
                # one rule, or a sweep of all of them as propagation makes
                for rule, oracle in (pairs if action < 0.3
                                     else [rng.choice(pairs)]):
                    if None in store:
                        break
                    want_store = list(store)
                    got_ctr, want_ctr = OpCounters(), OpCounters()
                    want = oracle.apply(want_store, want_ctr, {})
                    got = rule.apply(store, got_ctr, snaps)
                    case = (coeffs, b, rule.writes, want_store)
                    assert got == want, case
                    assert store == want_store, case
                    got_ops, want_ops = got_ctr.as_dict(), want_ctr.as_dict()
                    assert all(got_ops[c] <= want_ops[c]
                               for c in got_ops), case
                    fewer += got_ops["sum"] < want_ops["sum"]
                    outcomes.add("unchanged" if want < 0 else "emptied"
                                 if store[want] is None else "narrowed")
                    self.check_snapshot(snaps.get(shared), coeffs, b)
        assert outcomes == {"unchanged", "emptied", "narrowed"}
        assert actions == {"restore", "write"}
        # the shared snapshot served a good share of the applications
        assert fewer > 1000


def mult_oracle_rule(rule, fn, store, ctr):
    # the generic path: the rule's kernel, then _narrow
    return rules._narrow(store, rule.writes,
                         fn(store[rule.a], store[rule.b], ctr))


def written_domains(q):
    # domains of the written variable that the result q leaves unchanged
    # (a fresh copy of q), narrows (Z, and q moved up by one) or empties
    if q is None:
        return [(None, None), (0, 0)]
    lo, hi = q
    fresh = tuple(None if x is None else int(str(x)) for x in q)
    up = tuple(None if x is None else x + 1 for x in q)
    out = [(None, None), fresh, up]
    if hi is not None:
        out.append((hi + 1, hi + 2))
    elif lo is not None:
        out.append((lo - 2, lo - 1))
    return out


# (kind, x, y, z): the three directions of x*y = z, and squaring, kind 2
MULT_RULES = ((1, 0, 1, 2), (2, 0, 1, 2), (3, 0, 1, 2), (2, 0, 0, 2))


class TestMultRules:
    """``MultRule.apply`` multiplies or divides and narrows in place on
    finite non-negative stores; its oracle is the kernel ``fn`` and
    ``_narrow``."""

    @pytest.mark.parametrize("offset, ivs", LINEAR_GRIDS, ids=GRID_IDS)
    @pytest.mark.parametrize("division", ("weak", "strong"))
    @pytest.mark.parametrize("kind, x, y, z", MULT_RULES,
                             ids=("mult", "div_y", "div_x", "square"))
    def test_every_domain_pair(self, kind, x, y, z, division, offset, ivs):
        rule = rules.MultRule(kind, x, y, z, division)
        fn = rule.fn
        spied = []

        def spy(a, b, ctr):
            spied.append(True)
            return fn(a, b, ctr)

        rule.fn = spy
        # the first operand moves with the offset, the second keeps every
        # sign class (a squaring rule's operands are both the written x)
        firsts = [d for d in shifted(ivs, offset) if d is not None]
        seconds = [d for d in ivs if d is not None]
        outcomes = set()
        for da in firsts:
            for db in seconds:
                q = fn(da, db, OpCounters())
                for dw in ([db] if x == y else written_domains(q)):
                    store = [(None, None)] * 3
                    store[rule.a] = da
                    store[rule.b] = db
                    store[rule.writes] = dw
                    want_store = list(store)
                    got_ctr, want_ctr = OpCounters(), OpCounters()
                    del spied[:]
                    got = rule.apply(store, got_ctr, {})
                    want = mult_oracle_rule(rule, fn, want_store, want_ctr)
                    case = (da, db, dw)
                    assert got == want, case
                    assert store == want_store, case
                    assert got_ctr.as_dict() == want_ctr.as_dict(), case
                    # the kernel is skipped exactly on the inlined row:
                    # every bound finite and both operands non-negative,
                    # and for a quotient weak division by a positive
                    # denominator; it is called on every other store
                    inlined = (None not in da + db and da[0] >= 0
                               and (db[0] >= 0 if kind == 1 else
                                    division == "weak" and db[0] > 0))
                    assert bool(spied) != inlined, case
                    outcomes.add("unchanged" if want < 0 else
                                 "emptied" if store[want] is None
                                 else "narrowed")
        assert outcomes == {"unchanged", "emptied", "narrowed"}
