import itertools
import random
import sys
import time

import pytest

from intprop import model
from intprop.model import (
    CSP,
    Add,
    Lit,
    Mul,
    Neg,
    ParseError,
    PolynomialConstraint,
    Pow,
    Sub,
    TrivialConstraint,
    Var,
    check_assignment,
    check_origin,
    eval_expr,
    normalize,
    parse,
)
from intprop.search import maximize, solve_all, verify_solution


def render(c, names):
    """The canonical form as text, in the problem-file syntax."""
    sym = {"eq": "=", "le": "<=", "ne": "!="}[c.op]
    parts = []
    for i, (coeff, pp) in enumerate(c.monomials):
        body = "*".join("%s^%d" % (names[v], e) if e > 1 else names[v]
                        for v, e in pp)
        if abs(coeff) != 1:
            body = "%d*%s" % (abs(coeff), body)
        if i == 0:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return "%s %s %d" % (" ".join(parts), sym, c.rhs)


def constraint_to_exprs(c):
    """The canonical form rebuilt as expression trees."""
    total = None
    for coeff, pp in c.monomials:
        term = None
        for v, e in pp:
            f = Var(v)
            for _ in range(e - 1):
                f = Mul(f, Var(v))
            term = f if term is None else Mul(term, f)
        if abs(coeff) != 1:
            term = Mul(Lit(abs(coeff)), term)
        if coeff < 0:
            term = Neg(term)
        total = term if total is None else Add(total, term)
    sym = {"eq": "=", "le": "<=", "ne": "!="}[c.op]
    return (total, sym, Lit(c.rhs))


class TestNormalize:
    def test_collects_like_terms(self):
        # x^5*y^2*z^4 + 3x*y^3*z^5 <= 10 + 4x^4*y^6*z^2 - y^2*x^5*z^4
        x, y, z = Var(0), Var(1), Var(2)
        lhs = Add(Mul(Mul(Pow(x, 5), Pow(y, 2)), Pow(z, 4)),
                  Mul(Lit(3), Mul(Mul(x, Pow(y, 3)), Pow(z, 5))))
        rhs = Add(Lit(10),
                  Sub(Mul(Lit(4), Mul(Mul(Pow(x, 4), Pow(y, 6)), Pow(z, 2))),
                      Mul(Mul(Pow(y, 2), Pow(x, 5)), Pow(z, 4))))
        c = normalize(lhs, "<=", rhs)
        assert isinstance(c, PolynomialConstraint)
        assert c.op == "le" and c.rhs == 10
        assert c.monomials == (
            (2, ((0, 5), (1, 2), (2, 4))),
            (-4, ((0, 4), (1, 6), (2, 2))),
            (3, ((0, 1), (1, 3), (2, 5))),
        )
        assert render(c, ["x", "y", "z"]) == \
            "2*x^5*y^2*z^4 - 4*x^4*y^6*z^2 + 3*x*y^3*z^5 <= 10"

    def test_cancellation_is_trivial(self):
        c = normalize(Sub(Var(0), Var(0)), "=", Lit(0))
        assert isinstance(c, TrivialConstraint) and c.satisfied
        c = normalize(Lit(0), "=", Lit(1))
        assert isinstance(c, TrivialConstraint) and not c.satisfied

    def test_invalid_input_is_refused(self):
        with pytest.raises(ValueError, match="exponent must be >= 1"):
            Pow(Var(0), 0)
        with pytest.raises(ValueError, match="unknown comparison"):
            normalize(Var(0), "=<", Lit(1))

    def test_strict_inequality_shift(self):
        c = normalize(Add(Mul(Lit(2), Var(0)), Lit(3)), "<", Lit(10))
        assert c.op == "le" and c.rhs == 6
        assert c.monomials == ((2, ((0, 1),)),)

    def test_reversed_inequalities(self):
        c = normalize(Var(0), ">", Lit(3))
        assert c.op == "le" and c.rhs == -4
        assert c.monomials == ((-1, ((0, 1),)),)
        c = normalize(Var(0), ">=", Lit(3))
        assert c.op == "le" and c.rhs == -3

    def test_disequality_kept(self):
        c = normalize(Var(0), "!=", Var(1))
        assert c.op == "ne" and c.rhs == 0
        assert c.monomials == ((1, ((0, 1),)), (-1, ((1, 1),)))

    def test_idempotent_via_render(self):
        rng = random.Random(5)
        for _ in range(100):
            e = random_expr(rng, 3, depth=3)
            c = normalize(e, rng.choice(["<", "<=", "=", "!=", ">=", ">"]),
                          random_expr(rng, 3, depth=2))
            if isinstance(c, TrivialConstraint):
                continue
            lhs, op, rhs = constraint_to_exprs(c)
            c2 = normalize(lhs, op, rhs)
            assert c2.monomials == c.monomials
            assert (c2.op, c2.rhs) == (c.op, c.rhs)

    def test_solution_set_preserved(self):
        rng = random.Random(6)
        for _ in range(120):
            lhs = random_expr(rng, 3, depth=3)
            rhs = random_expr(rng, 3, depth=2)
            op = rng.choice(["<", "<=", "=", "!=", ">=", ">"])
            c = normalize(lhs, op, rhs)
            for vals in itertools.product(range(-5, 6), repeat=3):
                want = compare(eval_expr(lhs, vals), op, eval_expr(rhs, vals))
                assert check_assignment(c, vals) == want
                assert check_origin(c, vals) == want


def compare(a, op, b):
    return {"<": a < b, "<=": a <= b, "=": a == b, "!=": a != b,
            ">=": a >= b, ">": a > b}[op]


def random_expr(rng, nvars, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Var(rng.randrange(nvars))
        return Lit(rng.randint(-4, 4))
    k = rng.random()
    if k < 0.3:
        return Add(random_expr(rng, nvars, depth - 1),
                   random_expr(rng, nvars, depth - 1))
    if k < 0.55:
        return Sub(random_expr(rng, nvars, depth - 1),
                   random_expr(rng, nvars, depth - 1))
    if k < 0.8:
        return Mul(random_expr(rng, nvars, depth - 1),
                   random_expr(rng, nvars, depth - 1))
    if k < 0.9:
        return Neg(random_expr(rng, nvars, depth - 1))
    return Pow(Var(rng.randrange(nvars)), rng.randint(1, 3))


class TestParser:
    def test_running_example(self):
        csp = parse("""
            # two variables and one constraint
            var x in [1..100];
            var y in [1..100];
            constraint x^3*y - x <= 40;
            solve all;
        """)
        assert csp.names == ["x", "y"]
        assert csp.domains == [(1, 100), (1, 100)]
        c = csp.constraints[0]
        assert c.op == "le" and c.rhs == 40
        assert c.monomials == ((1, ((0, 3), (1, 1))), (-1, ((0, 1),)))
        assert csp.goal == "all"

    def test_unbounded_domain(self):
        csp = parse("var n in Z;")
        assert csp.domains == [(None, None)]

    def test_disequality(self):
        csp = parse("var x in [1..9]; var y in [1..9]; constraint x != y;")
        c = csp.constraints[0]
        assert c.op == "ne"
        assert c.monomials == ((1, ((0, 1),)), (-1, ((1, 1),)))
        assert c.rhs == 0

    def test_maximize_goal(self):
        csp = parse("""
            var x in [1..10]; var y in [1..10];
            constraint x + y <= 12;
            maximize 2*x*y - x;
        """)
        assert csp.goal == "maximize"
        assert csp.objective is not None
        assert eval_expr(csp.objective, [3, 4]) == 21

    def test_negative_domain_bounds(self):
        csp = parse("var x in [-5..5];")
        assert csp.domains == [(-5, 5)]

    def test_errors_carry_location(self):
        with pytest.raises(ParseError) as e:
            parse("var x in [1..5];\nconstraint x ** 2 = 1;")
        assert e.value.line == 2
        with pytest.raises(ParseError, match="duplicate variable"):
            parse("var x in [1..2]; var x in [1..3];")
        with pytest.raises(ParseError, match="exponent"):
            parse("var x in [1..2]; constraint x^0 = 1;")
        with pytest.raises(ParseError, match="unknown variable"):
            parse("constraint y = 1;")
        with pytest.raises(ParseError, match="empty domain"):
            parse("var x in [5..1];")
        with pytest.raises(ParseError, match="duplicate goal"):
            parse("var x in [1..2]; solve all; solve all;")

    def test_end_of_input_after_a_trailing_comment(self):
        # the end of input sits at len(text), past the comment, not where
        # the comment starts
        text = "var x in [1..3];\nconstraint x = 2 # no semicolon"
        with pytest.raises(ParseError, match="expected ;") as e:
            parse(text)
        assert (e.value.line, e.value.col) == (2, 32)
        with pytest.raises(ParseError, match="expected ;") as e:
            parse(text + "\n")
        assert (e.value.line, e.value.col) == (3, 1)

    def test_non_ascii_digits_are_rejected(self):
        # a superscript two, which int() rejects, and an Arabic-Indic three,
        # which int() would read as 3
        for digit in ("\u00b2", "\u0663"):
            with pytest.raises(ParseError, match="unexpected character") as e:
                parse("var x in [0..%s]; solve all;" % digit)
            assert (e.value.line, e.value.col) == (1, 14)

    def test_literal_over_4300_digits_is_a_parse_error(self):
        # the cap is the parser's own, the same under any setting of the
        # interpreter's cap on int(str) (0 lifts it, 640 is the least)
        sevens = (10 ** 4300 - 1) // 9 * 7
        settings = [None]
        if hasattr(sys, "set_int_max_str_digits"):
            settings += [0, 640]
        old = getattr(sys, "get_int_max_str_digits", lambda: None)()
        try:
            for setting in settings:
                if setting is not None:
                    sys.set_int_max_str_digits(setting)
                with pytest.raises(ParseError, match="at most 4300 digits") \
                        as e:
                    parse("var x in [0..%s]; solve all;" % ("1" * 4301))
                assert (e.value.line, e.value.col) == (1, 14)
                csp = parse("var x in [0..%s]; solve all;" % ("7" * 4300))
                assert csp.domains == [(0, sevens)]
        finally:
            if old is not None:
                sys.set_int_max_str_digits(old)

    def test_long_sum_parses_and_solves(self):
        # x + y + x + y + ... with 3000 terms nests 3000 levels deep
        terms = " + ".join("xy"[i % 2] for i in range(3000))
        csp = parse("var x in [0..2]; var y in [0..2];\n"
                    "constraint %s = 3000; solve all;" % terms)
        assert csp.constraints[0].monomials == ((1500, ((0, 1),)),
                                                (1500, ((1, 1),)))
        sols, _ = solve_all(csp)
        assert sorted(sols) == [(0, 2), (1, 1), (2, 0)]
        assert all(verify_solution(csp, s) for s in sols)
        assert not verify_solution(csp, (1, 2))

    def test_long_product_parses_solves_and_verifies(self):
        # x * x * ... * x with 3000 factors nests 3000 levels deep
        csp = parse("var x in [-3..3];\n"
                    "constraint %s = 1; solve all;" % "*".join(["x"] * 3000))
        assert csp.constraints[0].monomials == ((1, ((0, 3000),)),)
        for variant in ("du", "fe"):
            sols, _ = solve_all(csp, variant)
            assert sorted(sols) == [(-1,), (1,)]
            assert all(verify_solution(csp, s) for s in sols)
        assert not verify_solution(csp, (2,))

    @pytest.mark.parametrize("nest", [
        lambda k: "(" * k + "x" + ")" * k,
        lambda k: "-" * k + "x",
        lambda k: "-(" * (k // 2) + "x" + ")" * (k // 2),
    ])
    def test_deep_nesting_is_a_parse_error(self, nest):
        text = "var x in [-1..1];\nconstraint %s = 1;"
        with pytest.raises(ParseError, match="nest deeper than 100"):
            parse(text % nest(1200))
        with pytest.raises(ParseError, match="nest deeper than 100"):
            parse(text % nest(102))
        c = parse(text % nest(100)).constraints[0]
        assert c.monomials in (((1, ((0, 1),)),), ((-1, ((0, 1),)),))

    def test_power_of_a_monomial_expands_in_one_step(self, monkeypatch):
        products = []
        real = model._poly_mul
        monkeypatch.setattr(model, "_poly_mul",
                            lambda a, b: products.append(1) or real(a, b))
        csp = parse("var x in [0..1]; var y in [0..1];\n"
                    "constraint x^200000 = 1; constraint 2*x*(y^3) = 2;")
        assert csp.constraints[0].monomials == ((1, ((0, 200000),)),)
        assert csp.constraints[1].monomials == ((2, ((0, 1), (1, 3))),)
        assert len(products) == 2      # the two products of 2*x*y^3
        n = normalize(Add(Pow(Lit(-2), 5), Pow(Lit(0), 10 ** 9)), "=", Lit(0))
        assert n == TrivialConstraint(False)

    def test_comments_and_parens(self):
        csp = parse("""
            var a in [0..9];  # digit
            constraint (a + 1) * (a - 1) <= 3;  # difference of squares
        """)
        c = csp.constraints[0]
        assert c.monomials == ((1, ((0, 2),)),)
        assert c.rhs == 4


class TestExpansionCap:
    SUM = "(" + " + ".join("a%d" % i for i in range(10)) + ")"
    DECLS = "".join("var a%d in [0..1];\n" % i for i in range(10))

    def test_product_of_sums_is_a_parse_error(self):
        # 20 factors would expand to C(29, 9) = 10,015,005 monomials
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match=r"line 11, col 1: .* more "
                           r"than 10000 monomials"):
            parse(self.DECLS + "constraint %s <= 5;"
                  % "*".join([self.SUM] * 20))
        assert time.perf_counter() - t0 < 1.0
        # 4 factors stay under the cap
        csp = parse(self.DECLS + "constraint %s <= 5;"
                    % "*".join([self.SUM] * 4))
        assert len(csp.constraints[0].monomials) == 715

    def test_power_of_a_sum_is_rejected_before_expanding(self):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="more than 10000 monomials"):
            normalize(Pow(Add(Var(0), Var(1)), 10 ** 6), "=", Lit(0))
        assert time.perf_counter() - t0 < 1.0
        c = normalize(Pow(Add(Var(0), Var(1)), 5), "=", Lit(0))
        assert [m[0] for m in c.monomials] == [1, 5, 10, 10, 5, 1]

    def test_term_products_are_counted_per_normalize_call(self, monkeypatch):
        monkeypatch.setattr(model, "_MAX_PRODUCTS", 10)
        s = Add(Var(0), Var(1))
        # 2*2 + 3*2 = 10 products: at the budget
        normalize(Mul(Mul(s, s), s), "=", Lit(0))
        # both sides count: 4 + 4 + 4 = 12
        with pytest.raises(ValueError, match="more than 10 term products"):
            normalize(Mul(s, s), "=", Mul(s, Mul(s, s)))
        # each call has a budget of its own
        for _ in range(3):
            normalize(Mul(Mul(s, s), s), "=", Lit(0))

    def test_one_budget_per_problem_file(self, monkeypatch):
        monkeypatch.setattr(model, "_MAX_PRODUCTS", 20)
        decls = "var a in [0..1]; var b in [0..1];\n"
        body = "constraint (a+b)*(a+b)*(a+b) = 0;\n"
        # 10 products each: two constraints reach the budget, a third
        # passes it although it stays under the budget on its own
        assert len(parse(decls + body * 2).constraints) == 2
        with pytest.raises(ParseError, match=r"line 4, col 1: .* more "
                           r"than 20 term products"):
            parse(decls + body * 3)

    def test_long_expansion_is_rejected(self):
        # (1 + x + ... + x^1000) squared: 1001**2 term products, 2001
        # monomials, so only the product budget stops it
        terms = ["1", "x"] + ["x^%d" % i for i in range(2, 1001)]
        p = "(" + " + ".join(terms) + ")"
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match=r"line 2, col 1: .* more "
                           r"than 1000000 term products"):
            parse("var x in [0..1];\nconstraint %s * %s = 1;" % (p, p))
        x = Var(0)
        q = Lit(1)
        for i in range(1, 1001):
            q = Add(q, Pow(x, i))
        with pytest.raises(ValueError, match="more than 1000000 term"):
            normalize(Mul(q, q), "=", Lit(1))
        assert time.perf_counter() - t0 < 1.0

    def test_oversized_objective_is_rejected_by_maximize(self):
        csp = parse(self.DECLS + "constraint a0 <= 5;\nmaximize %s;"
                    % "*".join([self.SUM] * 20))
        with pytest.raises(ValueError, match="more than 10000 monomials"):
            maximize(csp)


class TestCSP:
    def test_add_var_and_constraint(self):
        csp = CSP(names=[], domains=[], constraints=[])
        x = csp.add_var("x", (1, 5))
        y = csp.add_var("y", (2, 2))
        csp.constraints.append(normalize(Mul(Var(x), Var(y)), "=", Lit(6)))
        assert csp.names.index("y") == y
        assert check_assignment(csp.constraints[0], [3, 2])
        assert not check_assignment(csp.constraints[0], [4, 2])
