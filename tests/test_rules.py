import random

from intprop import intervals as iv
from intprop.intervals import OpCounters
from intprop.model import (
    Add,
    Lit,
    Mul,
    MultAtom,
    PolynomialConstraint,
    PowerAtom,
    Var,
    normalize,
    parse,
)
from intprop.rules import (
    LONG_SUM,
    UNCHANGED,
    DiseqVarVarRule,
    LinearEqRule,
    LinearIneqRule,
    MultRule,
    ExpoRule,
    RootXRule,
    PolyRule,
    _Residuals,
    build_rules,
    eval_monomial,
)


def constraint_of(text, domains):
    decls = "\n".join("var %s in [%d..%d];" % (name, lo, hi)
                      for name, (lo, hi) in domains)
    csp = parse(decls + "\n" + text)
    return csp, csp.constraints[-1]


class TestLinearRules:
    def test_equality_reduction(self):
        # 100u - 10v = 212 over [1..81]^2, isolate u
        rule = LinearEqRule(((100, 0), (-10, 1)), 212, 0)
        store = [(1, 81), (1, 81)]
        assert rule.apply(store, OpCounters(), {}) == 0
        assert store[0] == (3, 10)

    def test_equality_fixpoint_reaches_empty(self):
        rules = [LinearEqRule(((100, 0), (-10, 1)), 212, 0),
                 LinearEqRule(((100, 0), (-10, 1)), 212, 1)]
        store = [(1, 81), (1, 81)]
        for _ in range(30):
            changed = False
            for r in rules:
                w = r.apply(store, OpCounters(), {})
                if w >= 0:
                    changed = True
                if store[0] is None or store[1] is None:
                    return
            if not changed:
                break
        assert False, "expected the iteration to empty a domain"

    def test_singleton_assignment(self):
        rule = LinearEqRule(((1, 0),), 5, 0)
        store = [(0, 9)]
        assert rule.apply(store, OpCounters(), {}) == 0
        assert store[0] == (5, 5)

    def test_parity_failure(self):
        rule = LinearEqRule(((2, 0),), 7, 0)
        store = [(0, 9)]
        assert rule.apply(store, OpCounters(), {}) == 0
        assert store[0] is None

    def test_inequality_shift(self):
        # x1 <= x2 - 1  ==  x1 - x2 <= -1
        rule = LinearIneqRule(((1, 0), (-1, 1)), -1, 0)
        store = [(1, 10 ** 5), (1, 10 ** 5)]
        assert rule.apply(store, OpCounters(), {}) == 0
        assert store[0] == (1, 99999)

    def test_inequality_on_aux(self):
        # u - x <= 40 with u in [1..10^8], x in [1..100]
        rule = LinearIneqRule(((1, 0), (-1, 1)), 40, 0)
        store = [(1, 10 ** 8), (1, 100)]
        assert rule.apply(store, OpCounters(), {}) == 0
        assert store[0] == (1, 140)

    def test_inequality_failure(self):
        rule = LinearIneqRule(((-1, 0),), -5, 0)
        store = [(0, 3)]
        assert rule.apply(store, OpCounters(), {}) == 0
        assert store[0] is None

    def test_only_long_equalities_share_a_residue(self):
        for k, op, shares in ((LONG_SUM, "=", True),
                              (LONG_SUM - 1, "=", False),
                              (LONG_SUM, "<=", False)):
            names = ["x%d" % i for i in range(k)]
            _, c = constraint_of(
                "constraint %s %s 2;" % (" + ".join(names), op),
                [(name, (0, 1)) for name in names])
            rules = build_rules([c])
            assert len(rules) == k
            assert len({id(r.shared) for r in rules}) == 1
            assert (rules[0].shared is not None) == shares, (k, op)
            if shares:
                # the shared object reads the constraint's domains off a
                # store, in the constraint's variable order
                store = [(i, i + 1) for i in range(k)]
                assert rules[0].shared(store) == tuple(store)

    def test_unbounded_residue(self):
        # x <= y with y unbounded above leaves x alone
        rule = LinearIneqRule(((1, 0), (-1, 1)), 0, 0)
        store = [(1, 10), (1, None)]
        assert rule.apply(store, OpCounters(), {}) == UNCHANGED


class TestPolyRules:
    def test_even_root_lifts_lower_bound(self):
        csp, c = constraint_of("constraint x^2 - y = 0;",
                               [("x", (0, 10)), ("y", (25, 100))])
        rule = PolyRule(c, 0, 0, shared=_Residuals(c))
        store = list(csp.domains)
        assert rule.apply(store, OpCounters(), {}) == 0
        assert store[0] == (5, 10)

    def test_two_product_constraint_makes_no_progress(self):
        csp, c = constraint_of("constraint 100*x*y - 10*y*z = 212;",
                               [("x", (1, 9)), ("y", (1, 9)), ("z", (1, 9))])
        store = list(csp.domains)
        for l, v in ((0, 0), (0, 1), (1, 1), (1, 2)):
            rule = PolyRule(c, l, v, shared=_Residuals(c))
            assert rule.apply(store, OpCounters(), {}) == UNCHANGED

    def test_exact_division_on_singleton(self):
        csp, c = constraint_of("constraint x*y = 6;",
                               [("x", (2, 2)), ("y", (1, 10))])
        rule = PolyRule(c, 0, 1, shared=_Residuals(c))
        store = list(csp.domains)
        assert rule.apply(store, OpCounters(), {}) == 1
        assert store[1] == (3, 3)

    def test_running_inequality_bounds(self):
        csp, c = constraint_of("constraint x^3*y - x <= 40;",
                               [("x", (1, 100)), ("y", (1, 100))])
        rx = PolyRule(c, 0, 0, shared=_Residuals(c))
        store = list(csp.domains)
        assert rx.apply(store, OpCounters(), {}) == 0
        assert store[0] == (1, 5)
        assert rx.apply(store, OpCounters(), {}) == 0
        assert store[0] == (1, 3)
        ry = PolyRule(c, 0, 1, shared=_Residuals(c))
        assert ry.apply(store, OpCounters(), {}) == 1
        assert store[1] == (1, 43)

    def test_optimized_inequality_is_tighter(self):
        csp, c = constraint_of("constraint x^3*y - x <= 40;",
                               [("x", (1, 100)), ("y", (1, 100))])
        store = list(csp.domains)
        rx = PolyRule(c, 0, 0, shared=_Residuals(c))
        rx.apply(store, OpCounters(), {})   # x <= 5
        ry = PolyRule(c, 0, 1, optimized=True, shared=_Residuals(c))
        assert ry.optimized
        assert ry.apply(store, OpCounters(), {}) == 1
        assert store[1] == (1, 41)

    def test_optimized_falls_back_when_zero_in_divisor(self):
        csp, c = constraint_of("constraint x^3*y - x <= 40;",
                               [("x", (-2, 100)), ("y", (1, 100))])
        store = list(csp.domains)
        ry = PolyRule(c, 0, 1, optimized=True, shared=_Residuals(c))
        plain = PolyRule(c, 0, 1, shared=_Residuals(c))
        store2 = list(csp.domains)
        assert (ry.apply(store, OpCounters(), {})
                == plain.apply(store2, OpCounters(), {}))
        assert store == store2

    def test_optimized_equality_reduces_two_product_example(self):
        csp, c = constraint_of("constraint 100*x*y - 10*y*z = 212;",
                               [("x", (1, 9)), ("y", (1, 9)), ("z", (1, 9))])
        rule = PolyRule(c, 0, 0, optimized=True, shared=_Residuals(c))
        store = list(csp.domains)
        assert rule.apply(store, OpCounters(), {}) == 0
        assert store[0] == (1, 3)

    def test_optimized_not_used_without_shared_variables(self):
        # product constraint of distinct variables: simplification is a no-op
        csp, c = constraint_of("constraint x*y - z = 0;",
                               [("x", (1, 9)), ("y", (1, 9)), ("z", (1, 81))])
        rule = PolyRule(c, 0, 0, optimized=True, shared=_Residuals(c))
        assert not rule.optimized


def plain_path_oracle(c, l, vj, division, store, ctr=None):
    """The plain path of a polynomial rule with the residue summed per
    rule: subtract every other monomial from the bound one by one, divide
    by the divisor monomial, root-extract and intersect.  Returns what
    ``apply`` returns and updates ``store`` the same way."""
    coeff, pp = c.monomials[l]
    n_p = dict(pp)[vj]
    s_pp = tuple((v, e) for v, e in pp if v != vj)
    acc = (c.rhs, c.rhs)
    for i, (ci, ppi) in enumerate(c.monomials):
        if i != l:
            acc = iv.sub(acc, eval_monomial(ci, ppi, store, ctr), ctr)
    if c.op == "le" and acc is not None:
        acc = (None, acc[1])
    if s_pp:
        divfn = iv.div_weak if division == "weak" else iv.div
        q = divfn(acc, eval_monomial(coeff, s_pp, store, ctr), ctr)
    else:
        q = iv.div_scalar(acc, coeff, ctr)
    dv = store[vj]
    if n_p == 1:
        nd = iv.intersect(dv, q)
    else:
        nd = None
        for part in iv.root(q, n_p, ctr):
            p = iv.intersect(dv, part)
            if p is not None:
                nd = iv.span(nd, p)
    if nd == dv:
        return UNCHANGED
    store[vj] = nd
    return vj


def random_polynomial(rng, nvars):
    """1-5 distinct monomials over ``nvars`` variables, exponents 1-3."""
    mons = {}
    for _ in range(rng.randint(1, 5)):
        pp = {}
        for _ in range(rng.randint(1, 3)):
            v = rng.randrange(nvars)
            pp[v] = min(3, pp.get(v, 0) + rng.randint(1, 2))
        mons[tuple(sorted(pp.items()))] = rng.choice((-3, -2, -1, 1, 2, 3))
    return tuple((c, pp) for pp, c in mons.items())


def random_domain(rng):
    """Bounds in [-6..6], each infinite with probability 1/5."""
    lo, hi = sorted(rng.randint(-6, 6) for _ in range(2))
    return (None if rng.random() < 0.2 else lo,
            None if rng.random() < 0.2 else hi)


class TestSharedResidue:
    def test_matches_per_rule_residue(self):
        # The rules of one constraint share one snapshot of its monomials,
        # kept in one dict across the steps.
        # Each step applies a random rule to the running store and the
        # oracle to a copy; between steps the store is replaced, refilled
        # in place (the same list with other domains, as search restores
        # it) or one of its domains is redrawn.  No application counts an
        # operation of any kind more often than the oracle's.
        rng = random.Random(20061)
        applied = changed = cheaper = 0
        for _ in range(1500):
            nvars = rng.randint(1, 4)
            c = PolynomialConstraint(random_polynomial(rng, nvars),
                                     rng.choice(("eq", "le")),
                                     rng.randint(-12, 12))
            division = rng.choice(("weak", "strong"))
            rules = [r for r in build_rules([c], division)
                     if isinstance(r, PolyRule)]
            if not rules:
                continue
            store = [random_domain(rng) for _ in range(nvars)]
            snaps = {}
            for _ in range(12):
                rule = rules[rng.randrange(len(rules))]
                want_store = list(store)
                want_ctr, got_ctr = OpCounters(), OpCounters()
                want = plain_path_oracle(c, rule.l, rule.writes, division,
                                         want_store, want_ctr)
                got = rule.apply(store, got_ctr, snaps)
                assert (got, store) == (want, want_store), (c, rule)
                want_ops, got_ops = want_ctr.as_dict(), got_ctr.as_dict()
                assert all(got_ops[k] <= want_ops[k] for k in want_ops), (
                    c, rule, got_ops, want_ops)
                applied += 1
                changed += got != UNCHANGED
                cheaper += got_ops["total"] < want_ops["total"]
                move = rng.random()
                if want_store[rule.writes] is None or move < 0.15:
                    store[:] = [random_domain(rng) for _ in range(nvars)]
                elif move < 0.3:
                    store = [random_domain(rng) for _ in range(nvars)]
                elif move < 0.5:
                    store[rng.randrange(nvars)] = random_domain(rng)
        # a test that seldom changes a domain, or whose rules seldom find
        # a residue already summed, would check little
        assert applied > 10000 and changed > applied // 10
        assert cheaper > applied // 10


class TestMultRules:
    def test_interacting_directions_solve_the_triple(self):
        store = [(1, 20), (9, 11), (155, 161)]
        assert MultRule(2, 0, 1, 2, "strong").apply(store, OpCounters(), {}) == 0
        assert store[0] == (16, 16)
        assert MultRule(3, 0, 1, 2, "strong").apply(store, OpCounters(), {}) == 1
        assert store[1] == (10, 10)
        assert MultRule(1, 0, 1, 2, "strong").apply(store, OpCounters(), {}) == 2
        assert store[2] == (160, 160)

    def test_integer_reasoning_beats_real_relaxation(self):
        store = [(-3, 3), (-1, 1), (1, 2)]
        assert MultRule(2, 0, 1, 2, "strong").apply(store, OpCounters(), {}) == 0
        assert store[0] == (-2, 2)

    def test_weak_direction(self):
        store = [(1, 20), (9, 11), (155, 161)]
        assert MultRule(2, 0, 1, 2, "weak").apply(store, OpCounters(), {}) == 0
        assert store[0] == (15, 17)

    def test_variant_names(self):
        assert MultRule(2, 0, 1, 2, "weak").variant == "Mult2w"
        assert MultRule(2, 0, 1, 2, "strong").variant == "Mult2"
        assert MultRule(1, 0, 1, 2, "weak").variant == "Mult1"


class TestExpoRoot:
    def test_root_direction(self):
        store = [(25, 100), (0, 10)]
        assert RootXRule(0, 1, 2).apply(store, OpCounters(), {}) == 1
        assert store[1] == (5, 10)

    def test_expo_direction(self):
        store = [(-100, 100), (-2, 3)]
        assert ExpoRule(0, 1, 3).apply(store, OpCounters(), {}) == 0
        assert store[0] == (-8, 27)

    def test_root_failure(self):
        store = [(2, 3), (0, 10)]
        assert RootXRule(0, 1, 2).apply(store, OpCounters(), {}) == 1
        assert store[1] is None


class TestDiseq:
    def test_bound_trim(self):
        rule = DiseqVarVarRule(1, 0, 0)
        store = [(3, 3), (3, 7)]
        assert rule.apply(store, OpCounters(), {}) == 1
        assert store[1] == (4, 7)

    def test_failure_on_equal_singletons(self):
        rule = DiseqVarVarRule(1, 0, 0)
        store = [(3, 3), (3, 3)]
        assert rule.apply(store, OpCounters(), {}) == 1
        assert store[1] is None

    def test_no_singleton_no_change(self):
        rule = DiseqVarVarRule(0, 1, 0)
        store = [(1, 5), (2, 9)]
        assert rule.apply(store, OpCounters(), {}) == UNCHANGED

    def test_trivially_true_disequalities_get_no_rule(self):
        c = normalize(Mul(Lit(2), Var(0)), "!=", Lit(7))
        assert build_rules([c]) == []

    def test_general_disequality_checks_fixed_points_only(self):
        c = normalize(Add(Mul(Var(0), Var(1)), Var(0)), "!=", Lit(6))
        (rule,) = build_rules([c])
        store = [(2, 2), (1, 5)]
        assert rule.apply(store, OpCounters(), {}) == UNCHANGED
        store = [(2, 2), (2, 2)]
        assert rule.apply(store, OpCounters(), {}) == 0
        assert store[0] is None


class TestBuildRules:
    def test_occurrence_counts(self):
        csp, c = constraint_of("constraint x^3*y - x <= 40;",
                               [("x", (1, 100)), ("y", (1, 100))])
        assert len(build_rules([c])) == 3
        assert len(build_rules([MultAtom(0, 1, 2)])) == 3
        assert len(build_rules([MultAtom(0, 0, 2)])) == 2   # squaring
        assert len(build_rules([PowerAtom(0, 1, 3)])) == 2

    def test_partial_rule_list_matches_hand_numbering(self):
        # partial decomposition of x^3*y - x <= 40 gives the five rules
        # 1. u = x^3*y   2. -> x   3. -> y   4. u - x <= 40   5. -> x
        from intprop.decompose import decompose

        csp = parse("""
            var x in [1..100]; var y in [1..100];
            constraint x^3*y - x <= 40;
        """)
        dec = decompose(csp, "pu")
        rules = dec.rules
        assert len(rules) == 5
        u = 2
        assert [r.writes for r in rules] == [u, 0, 1, u, 0]
        assert sorted(rules[0].reads) == [0, 1]
        assert sorted(rules[1].reads) == [1, u]
        assert sorted(rules[2].reads) == [0, u]
        assert sorted(rules[3].reads) == [0]
        assert sorted(rules[4].reads) == [u]
