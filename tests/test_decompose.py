import importlib
import itertools
import random

import pytest

from intprop.bench import build_benchmark
from intprop.decompose import VARIANTS, decompose
from intprop.model import (
    CSP,
    Add,
    Lit,
    Mul,
    MultAtom,
    PolynomialConstraint,
    PowerAtom,
    TrivialConstraint,
    Var,
    check_assignment,
    normalize,
    parse,
)
from intprop.rules import (
    DiseqVarVarRule,
    LinearEqRule,
    LinearIneqRule,
    MultRule,
    ExpoRule,
    RootXRule,
)
from intprop.search import Infeasible, maximize, solve_all

# the module, which the package's ``decompose`` function shadows
decompose_module = importlib.import_module("intprop.decompose")


def definitions(dec):
    """The auxiliaries' definition constraints, which come first."""
    return dec.constraints[:len(dec.names) - dec.n_user]


def user_constraints(dec):
    """The rewritten user constraints, after the definitions."""
    return dec.constraints[len(dec.names) - dec.n_user:]


def names_of(dec, ids):
    return [dec.names[i] for i in ids]


def defines(u, pp):
    """The definition ``u = pp`` of a partial decomposition."""
    return PolynomialConstraint(((1, ((u, 1),)), (-1, pp)), "eq", 0)


def product(k):
    """``x0 * ... * x(k-1) = 2`` over [1..2]: its full decomposition tests
    (k - 1) * (2k - 1) pairs of sub-terms."""
    return parse("".join("var x%d in [1..2]; " % i for i in range(k))
                 + "constraint %s = 2;"
                 % "*".join("x%d" % i for i in range(k)))


class TestVariantValidation:
    def test_bad_variant(self):
        csp = parse("var x in [1..2];")
        with pytest.raises(ValueError):
            decompose(csp, "xx")
        with pytest.raises(ValueError):
            decompose(csp, "du", division="fast")

    def test_the_division_is_checked_before_rewriting(self):
        # 225 factors pass the pair cap, which takes seconds to find; an
        # unknown division name is reported first, at once
        with pytest.raises(ValueError, match="division must be"):
            decompose(product(225), "fe", "Weak")


class TestPartial:
    def test_two_products_share_nothing(self):
        csp = parse("""
            var x in [1..9]; var y in [1..9]; var z in [1..9];
            constraint 100*x*y - 10*y*z = 212;
        """)
        dec = decompose(csp, "pu")
        assert definitions(dec) == [defines(3, ((0, 1), (1, 1))),
                                    defines(4, ((1, 1), (2, 1)))]
        # rewritten constraint is linear over the two auxiliaries
        main = user_constraints(dec)[0]
        assert main.is_linear()
        assert main.monomials == ((100, ((3, 1),)), (-10, ((4, 1),)))
        assert dec.domains[3] == (1, 81) and dec.domains[4] == (1, 81)

    def test_shared_product_reused_across_constraints(self):
        csp = parse("""
            var x in [1..9]; var y in [1..9];
            constraint x*y + x = 10;
            constraint x*y - y <= 3;
        """)
        dec = decompose(csp, "pu")
        assert definitions(dec) == [defines(2, ((0, 1), (1, 1)))]

    def test_po_leaves_simple_constraints_alone(self):
        csp = build_benchmark("sumprod", 6)
        dec = decompose(csp, "po")
        assert not definitions(dec) and len(dec.names) == dec.n_user

    def test_po_replaces_all_duplicated_products(self):
        csp = parse("""
            var x in [1..9]; var y in [1..9]; var z in [1..9];
            constraint 100*x*y - 10*y*z = 212;
        """)
        dec = decompose(csp, "po")
        assert len(definitions(dec)) == 2

    def test_po_keeps_unduplicated_product(self):
        csp = parse("""
            var w in [1..9]; var x in [1..9]; var y in [1..9]; var z in [1..9];
            constraint w*x + y*z + y = 5;
        """)
        dec = decompose(csp, "po")
        # only y*z takes part in a duplicate occurrence
        assert definitions(dec) == [defines(4, ((2, 1), (3, 1)))]


class TestFullHeuristics:
    def csp_for(self, pp_text):
        return parse("""
            var x in [1..3]; var y in [1..3]; var z in [1..3];
            constraint %s = 8;
        """ % pp_text)

    def test_exponentiation_variant(self):
        dec = decompose(self.csp_for("x^5*y^3*z"), "fe")
        # u1 = x^5, u2 = y^3, u3 = u1*u2, u4 = z*u3, numbered 3 to 6
        assert definitions(dec) == [PowerAtom(3, 0, 5), PowerAtom(4, 1, 3),
                                    MultAtom(3, 4, 5), MultAtom(2, 5, 6)]

    def test_squaring_variant(self):
        dec = decompose(self.csp_for("x^5*y^3*z"), "fs")
        # squares first: x^2 (3), x^4 = (x^2)^2 (4), y^2 (5); then the
        # product x^4*y^2 (6)
        assert definitions(dec)[:4] == [PowerAtom(3, 0, 2), PowerAtom(4, 3, 2),
                                        PowerAtom(5, 1, 2), MultAtom(4, 5, 6)]

    def test_multiplication_variant_squares_by_self_mult(self):
        dec = decompose(self.csp_for("x^3"), "fm")
        # x^2 (3), then x * x^2
        assert definitions(dec) == [MultAtom(0, 0, 3), MultAtom(0, 3, 4)]
        # self-multiplication contributes two rules, not three
        assert len(dec.rules) == 2 + 3 + 1

    def test_full_rules_are_atomic_only(self):
        csp = build_benchmark("kyoto", 10)
        dec = decompose(csp, "fe")
        allowed = (LinearEqRule, LinearIneqRule, MultRule, ExpoRule,
                   RootXRule, DiseqVarVarRule)
        assert all(isinstance(r, allowed) for r in dec.rules)

    def test_product_of_distinct_vars_nests_from_the_right(self):
        csp = build_benchmark("sumprod", 5)
        dec = decompose(csp, "fm")
        first, second = definitions(dec)[:2]
        assert names_of(dec, (first.x, first.y)) == ["x4", "x5"]
        assert names_of(dec, (second.x, second.y))[0] == "x3"

    def test_decomposition_cost_is_capped(self, monkeypatch):
        # a product of k distinct variables tests (k - 1) * (2k - 1) pairs
        # of sub-terms: 99,681 at 224 factors, past the cap of 10**5 at 225
        assert len(definitions(decompose(product(224), "fe"))) == 223
        with pytest.raises(ValueError, match="more than 100000 pairs"):
            decompose(product(225), "fe")
        # 741 pairs at 20 factors
        monkeypatch.setattr(decompose_module, "_MAX_PAIRS", 741)
        for variant in ("fm", "fs", "fe"):
            decompose(product(20), variant)
        monkeypatch.setattr(decompose_module, "_MAX_PAIRS", 740)
        for variant in ("fm", "fs", "fe"):
            with pytest.raises(ValueError, match="more than 740 pairs"):
                decompose(product(20), variant)

    def test_unused_auxiliaries_are_dropped(self):
        # x^2*y^2 first makes x^2 and y^2 (_u2, _u3), then takes the
        # square of x*y (_u1) as _u4; nothing reads x^2 or y^2 after that
        csp = parse("""
            var x in [1..5]; var y in [1..5];
            constraint x*y <= 6;
            constraint x^2*y^2 >= 4;
        """)
        want = {vals for vals in itertools.product(range(1, 6), repeat=2)
                if all(check_assignment(c, vals) for c in csp.constraints)}
        assert len(want) == 11
        for variant in ("fe", "fs"):
            dec = decompose(csp, variant)
            assert dec.names == ["x", "y", "_u1", "_u4"]
            assert dec.constraints[:2] == [MultAtom(0, 1, 2),
                                           PowerAtom(3, 2, 2)]
            assert dec.domains == [(1, 5), (1, 5), (1, 25), (1, 625)]
            assert [c.monomials for c in user_constraints(dec)] == [
                ((1, ((2, 1),)),), ((-1, ((3, 1),)),)]
            sols, _ = solve_all(csp, variant)
            assert sorted(sols) == sorted(want), variant


    def test_an_auxiliary_name_steps_around_a_user_name(self):
        # the first auxiliary would be _u1, which a user variable holds
        csp = parse("var _u1 in [1..3]; var x in [1..3];"
                    " constraint _u1*x = 6;")
        dec = decompose(csp, "fm")
        assert dec.names == ["_u1", "x", "_u1_"]
        assert definitions(dec) == [MultAtom(0, 1, 2)]
        assert solve_all(csp, "fm")[0] == [(2, 3), (3, 2)]


class TestAuxDomains:
    def test_product_domain(self):
        csp = parse("""
            var x in [1..9]; var y in [1..9];
            constraint x*y = 6;
        """)
        dec = decompose(csp, "pu")
        assert dec.domains[2] == (1, 81)

    def test_big_product_domain(self):
        csp = parse("""
            var x in [1..100]; var y in [1..100];
            constraint x^3*y - x <= 40;
        """)
        dec = decompose(csp, "pu")
        assert dec.domains[2] == (1, 10 ** 8)

    def test_empty_user_domain_is_infeasible(self):
        # an empty domain ends every variant before propagation
        x, y = Var(0), Var(1)
        csp = CSP(names=["x", "y"], domains=[(1, 3), None],
                  constraints=[normalize(Add(Mul(x, y), Mul(Mul(x, x), y)),
                                         "<=", Lit(9)),
                               normalize(Mul(x, y), "!=", Lit(2))])
        csp.objective = x
        for variant in VARIANTS:
            dec = decompose(csp, variant)
            assert dec.infeasible, variant
            assert all(d == (None, None) for d in dec.domains[2:]), variant
            sols, stats = solve_all(csp, variant)
            assert sols == [] and stats.complete and stats.nodes == 0, \
                variant
            with pytest.raises(Infeasible):
                maximize(csp, variant=variant)


class TestSchedule:
    def test_running_example_fragments(self):
        csp = parse("""
            var x in [1..100]; var y in [1..100];
            constraint x^3*y - x <= 40;
        """)
        dec = decompose(csp, "pu")
        # rules: 0 u=..., 1 ->x, 2 ->y, 3 u-x<=40 (writes u), 4 (writes x)
        assert dec.schedule == [3, 1, 2, 0, 4]

    def test_identity_without_auxiliaries(self):
        csp = build_benchmark("sumprod", 4)
        dec = decompose(csp, "du")
        assert dec.schedule == list(range(len(dec.rules)))

    def test_two_level_hierarchy_is_bottom_up(self):
        csp = parse("""
            var x in [1..3]; var y in [1..90];
            constraint x^4 - y = 0;
        """)
        dec = decompose(csp, "fs")
        # defs: x2 = x^2, x4 = (x2)^2, two rules each; user rules relate x4
        # and y
        assert definitions(dec) == [PowerAtom(2, 0, 2), PowerAtom(3, 2, 2)]
        fwd_x2, fwd_x4 = 0, 2
        user_rules = range(4, len(dec.rules))
        frag = dec.schedule
        # the user rule writing y reads the chain: forward phase runs
        # bottom-up before it
        writes_y = [i for i in user_rules
                    if dec.rules[i].writes == 1][0]
        assert (frag.index(fwd_x2) < frag.index(fwd_x4)
                < frag.index(writes_y))
        # the user rule writing the chain top is followed by the backward
        # rules top-down
        writes_top = [i for i in user_rules
                      if dec.rules[i].writes != 1][0]
        pos = frag.index(writes_top)
        bwd_x4, bwd_x2 = 3, 1
        assert frag.index(bwd_x4) > pos and frag.index(bwd_x2) > pos
        assert frag.index(bwd_x4) < frag.index(bwd_x2)

    def test_every_rule_appears(self):
        for name, variant in (("kyoto", "fe"), ("fractions", "fm"),
                              ("cubes", "fs"), ("sumprod", "pu")):
            n = {"kyoto": 10, "sumprod": 6}.get(name)
            dec = decompose(build_benchmark(name, n), variant)
            assert set(dec.schedule) == set(range(len(dec.rules)))


class TestPublishedCounts:
    """Variable/rule counts for the benchmark set (regression pins)."""

    EXPECT = {
        ("cubes", "du"): (5, 14), ("cubes", "po"): (5, 14),
        ("cubes", "pu"): (9, 22), ("cubes", "fe"): (9, 22),
        ("cubes", "fm"): (13, 34), ("cubes", "fs"): (13, 34),
        ("fractions", "du"): (9, 154), ("fractions", "do"): (9, 154),
        ("fractions", "pu"): (37, 210),
        ("kyoto", "du"): (5, 37), ("kyoto", "do"): (5, 37),
        ("kyoto", "pu"): (13, 53), ("kyoto", "po"): (13, 53),
        ("kyoto", "fm"): (16, 60), ("kyoto", "fs"): (16, 60),
        ("kyoto", "fe"): (16, 59),
        ("sumprod", "du"): (28, 82), ("sumprod", "po"): (28, 82),
        ("sumprod", "pu"): (30, 86),
        ("sumprod", "fm"): (54, 134), ("sumprod", "fe"): (54, 134),
    }

    def test_counts(self):
        csps = {}
        for (name, variant), want in sorted(self.EXPECT.items()):
            if name not in csps:
                csps[name] = build_benchmark(
                    name, 14 if name == "sumprod" else None)
            dec = decompose(csps[name], variant)
            assert (len(dec.names), len(dec.rules)) == want, \
                "%s/%s" % (name, variant)


class TestSolutionProjection:
    def enumerate_solutions(self, csp):
        doms = [range(d[0], d[1] + 1) for d in csp.domains]
        out = set()
        for vals in itertools.product(*doms):
            if all(check_assignment(c, vals) for c in csp.constraints):
                out.add(vals)
        return out

    def enumerate_decomposed(self, dec):
        # backtracking over the variables in index order; each constraint
        # is checked as soon as its highest-numbered variable is assigned
        if dec.infeasible or any(d is None for d in dec.domains):
            return set()
        n = len(dec.domains)
        due = [[] for _ in range(n + 1)]    # due[k]: needs the first k vars
        for c in dec.constraints:
            if isinstance(c, MultAtom):
                vs = (c.x, c.y, c.z)
            elif isinstance(c, PowerAtom):
                vs = (c.x, c.y)
            elif isinstance(c, TrivialConstraint):
                vs = ()
            else:
                vs = c.vars()
            due[max(vs, default=-1) + 1].append(c)
        vals = [0] * n
        out = set()

        def extend(k):
            if not all(check_assignment(c, vals) for c in due[k]):
                return
            if k == n:
                out.add(tuple(vals[:dec.n_user]))
                return
            lo, hi = dec.domains[k]
            for v in range(lo, hi + 1):
                vals[k] = v
                extend(k + 1)

        extend(0)
        return out

    def test_projection_preserves_solutions(self):
        rng = random.Random(11)
        for _ in range(40):
            nv = rng.randint(2, 3)
            names = ["v%d" % i for i in range(nv)]
            domains = []
            for _ in range(nv):
                a, b = sorted(rng.randint(-4, 4) for _ in range(2))
                domains.append((a, b))
            constraints = []
            for _ in range(rng.randint(1, 2)):
                e = None
                for _ in range(rng.randint(1, 3)):
                    t = Var(rng.randrange(nv))
                    if rng.random() < 0.5:
                        t = Mul(t, Var(rng.randrange(nv)))
                    if rng.random() < 0.3:
                        t = Mul(Lit(rng.randint(-3, 3)), t)
                    e = t if e is None else (t if rng.random() < 0.2
                                             else Add(e, t))
                op = rng.choice(["=", "<=", "!="])
                c = normalize(e, op, Lit(rng.randint(-6, 6)))
                constraints.append(c)
            csp = CSP(names=names, domains=domains, constraints=constraints)
            want = self.enumerate_solutions(csp)
            for variant in ("pu", "po", "fm", "fs", "fe"):
                dec = decompose(csp, variant)
                got = self.enumerate_decomposed(dec)
                assert got == want, (variant, csp.constraints)
