import gc
import math
import os
import pathlib
import random
import subprocess
import sys
import threading
import time

import pytest

import intprop
from intprop.bench import build_benchmark, opt, sumprod
from intprop.decompose import VARIANTS, decompose
from intprop.model import CSP, Add, Lit, Mul, Var, normalize, parse
from intprop.search import (
    Infeasible,
    UnboundedAfterPropagation,
    maximize,
    solve_all,
    verify_solution,
)


def brute_sumprod(n):
    target_s = n * (n + 1) // 2
    target_p = math.factorial(n)
    out = []

    def rec(prefix, lo, s, p):
        k = len(prefix)
        if k == n:
            if s == target_s and p == target_p:
                out.append(tuple(prefix))
            return
        remaining = n - k
        for v in range(lo, n + 1):
            if s + v * remaining > target_s:
                break
            if p * v ** remaining > target_p:
                break
            if s + v + (remaining - 1) * n < target_s:
                continue
            rec(prefix + [v], v, s + v, p * v)

    rec([], 1, 0, 1)
    return out


class TestSolveAll:
    def test_single_solution(self):
        csp = parse("var x in [1..2]; var y in [1..2]; constraint x*y = 4;")
        for variant in VARIANTS:
            sols, stats = solve_all(csp, variant)
            assert sols == [(2, 2)]
            assert stats.solutions == 1

    def test_small_sumprod_matches_brute_force(self):
        for n in (4, 5, 6, 7, 8):
            want = brute_sumprod(n)
            sols, stats = solve_all(sumprod(n), "fe")
            got = [s[:n] for s in sols]
            assert sorted(got) == sorted(want)

    def test_infeasible_root_counts_zero_nodes(self):
        csp = parse("""
            var x in [1..9]; var y in [1..9]; var z in [1..9];
            constraint 100*x*y - 10*y*z = 212;
        """)
        sols, stats = solve_all(csp, "pu")
        assert sols == [] and stats.nodes == 0

    def test_trivially_false_constraint(self):
        csp = parse("var x in [1..5]; constraint x - x = 3;")
        sols, stats = solve_all(csp, "du")
        assert sols == [] and stats.nodes == 0

    def test_everything_fixed_is_one_node(self):
        csp = parse("var x in [4..4]; var y in [2..2]; constraint x - y = 2;")
        sols, stats = solve_all(csp, "du")
        assert sols == [(4, 2)] and stats.nodes == 1

    def test_node_accounting_binary_tree(self):
        # branching with no constraints: every leaf is a solution and the
        # tree is binary, so nodes = solutions + internal = 2*solutions - 1
        csp = parse("var x in [1..8];")
        sols, stats = solve_all(csp, "du")
        assert len(sols) == 8
        assert stats.nodes == 15

    def test_unbounded_raises(self):
        csp = parse("var x in Z; constraint x^3 - x >= 0;")
        with pytest.raises(UnboundedAfterPropagation):
            solve_all(csp, "du")

    def test_max_nodes_truncates(self):
        csp = build_benchmark("cubes", 200)
        full, full_stats = solve_all(csp, "fe")
        assert full_stats.nodes > 10
        sols, stats = solve_all(csp, "fe", max_nodes=10)
        assert not stats.complete and stats.stopped == "nodes"
        assert stats.nodes == 10
        assert len(sols) <= len(full)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_no_budget_stops_before_the_root(self, budget):
        csp = build_benchmark("cubes", 200)
        sols, stats = solve_all(csp, "fe", max_nodes=budget)
        assert sols == [] and stats.nodes == 0 and not stats.complete
        best, val, stats = maximize(opt(200), max_nodes=budget)
        assert (best, val) == (None, None)
        assert stats.nodes == 0 and not stats.complete

    def test_variants_and_modes_agree(self):
        rng = random.Random(31)
        for _ in range(12):
            doms = []
            for _ in range(3):
                a, b = sorted(rng.randint(-4, 5) for _ in range(2))
                doms.append((a, b))
            c1 = normalize(Mul(Var(0), Mul(Var(1), Var(1))), "=",
                           Mul(Lit(2), Var(2)))
            c2 = normalize(Add(Add(Var(0), Var(1)), Var(2)), "<=",
                           Lit(rng.randint(0, 8)))
            csp = CSP(names=["x", "y", "z"], domains=doms,
                      constraints=[c1, c2])
            results = set()
            for variant in VARIANTS:
                for mode in ("cycle", "scheduled"):
                    sols, _ = solve_all(csp, variant, mode=mode)
                    results.add(tuple(sorted(sols)))
            assert len(results) == 1

    def test_solutions_verified_against_originals(self):
        csp = build_benchmark("kyoto", 10)
        sols, stats = solve_all(csp, "fe")
        for s in sols:
            assert verify_solution(csp, s)


class TestSharedDecomposition:
    """Solvers built from one decomposition share only its rules, which
    are immutable; each keeps the residue snapshots of the polynomial
    constraints and of the long linear equalities to itself.  So runs on
    one decomposition, one after another, nested or concurrent, find the
    same solutions with the same work, op counters included."""

    @staticmethod
    def kyoto_du():
        # base 9 with B pinned: four solutions, one 9-monomial constraint
        csp = build_benchmark("kyoto", 9)
        csp.domains[csp.names.index("B")] = (9, 9)
        return csp, decompose(csp, "du")

    @staticmethod
    def work(stats):
        return (stats.nodes, stats.solutions, stats.drf_applications,
                stats.drf_effective, stats.counters.as_dict())

    @staticmethod
    def fixed_du():
        # every domain fixed at the solution: no rule changes a domain, so
        # the second run starts on the domains the first one ended on
        csp = parse("var x in [2..2]; var y in [3..3]; var z in [1..1];"
                    "constraint x*y + y*z + x*z = 11; solve all;")
        return csp, decompose(csp, "du")

    def test_repeated_runs_count_the_same(self):
        for csp, dec in (self.kyoto_du(), self.fixed_du()):
            first_sols, first = solve_all(csp, dec=dec)
            again_sols, again = solve_all(csp, dec=dec)
            assert first_sols
            assert again_sols == first_sols
            assert self.work(again) == self.work(first)

    def test_nested_run_leaves_the_outer_run_alone(self):
        csp, dec = self.kyoto_du()
        lone_sols, lone = solve_all(csp, dec=dec)
        inner = []

        def run_inner(sol):
            if not inner:
                inner.append(solve_all(csp, dec=dec))

        outer_sols, outer = solve_all(csp, dec=dec, on_solution=run_inner)
        assert inner and inner[0][0] == lone_sols
        assert outer_sols == lone_sols
        assert self.work(outer) == self.work(lone)

    def test_concurrent_runs_match_a_lone_run(self):
        self.run_concurrently(*self.kyoto_du())

    def test_concurrent_runs_share_a_linear_snapshot(self):
        # the 12-term sum of sumprod 6 is long enough that its rules share
        # one residue snapshot
        csp = build_benchmark("sumprod", 6)
        dec = decompose(csp, "fe")
        assert any(r.variant == "LinearEq" and r.shared is not None
                   for r in dec.rules)
        self.run_concurrently(csp, dec)

    def run_concurrently(self, csp, dec):
        # more threads than cores, switching often, all on one decomposition
        lone_sols, lone = solve_all(csp, dec=dec)
        results = []

        def run():
            for _ in range(3):
                sols, stats = solve_all(csp, dec=dec)
                results.append((sols, self.work(stats)))

        threads = [threading.Thread(target=run) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [(lone_sols, self.work(lone))] * 12

    @staticmethod
    def bindings(dec):
        # every slot value of every rule and of its shared object, by
        # identity; slots that a class inherits count too
        shared = [r.shared for r in dec.rules
                  if getattr(r, "shared", None) is not None]
        return {(id(obj), name): id(getattr(obj, name))
                for obj in dec.rules + shared
                for cls in type(obj).__mro__
                for name in getattr(cls, "__slots__", ())}

    def test_runs_rebind_no_rule_slot(self):
        kyoto, dec = self.kyoto_du()
        sumprod = build_benchmark("sumprod", 6)
        kinds = set()
        for csp, dec in ((kyoto, dec), (sumprod, decompose(sumprod, "fe")),
                         (kyoto, decompose(kyoto, "do"))):
            before = self.bindings(dec)
            for _ in range(2):
                sols, _ = solve_all(csp, dec=dec)
                assert sols
            assert self.bindings(dec) == before, dec.variant
            kinds.update(type(r.shared).__name__ for r in dec.rules
                         if getattr(r, "shared", None) is not None)
        # the polynomial residues and a long equality's itemgetter
        assert kinds == {"_Residuals", "itemgetter"}


class TestLongLinearSums:
    """The rules of a long linear equality share one residue, so a rule
    application takes a number of interval operations that does not grow
    with the number of terms."""

    @staticmethod
    def sum_and_multF(k):
        # x_1 + ... + x_k = k/2 over 0/1 variables: k applications a node
        text = "".join("var x%d in [0..1];" % i for i in range(k))
        text += "constraint %s = %d; solve all;" % (
            " + ".join("x%d" % i for i in range(k)), k // 2)
        _, stats = solve_all(parse(text), "du", max_nodes=5)
        assert stats.nodes == 5
        return stats.counters.multF + stats.counters.sum

    def test_operations_grow_linearly_with_the_terms(self):
        # 4x the terms, 4x the applications; the per-rule sum grew 16x
        assert self.sum_and_multF(1000) <= 4.5 * self.sum_and_multF(250)

    def test_a_finished_run_leaves_no_garbage_cycle(self):
        # the solver's snapshot dict refers to no rule and no rule to it,
        # so the rules, the snapshots and the domains they hold are freed
        # with the run
        csp = build_benchmark("sumprod", 6)
        gc.collect()
        gc.disable()
        try:
            solve_all(csp, "fe")
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestMaximize:
    def test_unconstrained(self):
        csp = parse("var x in [1..10];")
        best, val, stats = maximize(csp, Var(0), variant="du")
        assert best == (10,) and val == 10

    def test_running_example(self):
        csp = parse("""
            var x in [1..100]; var y in [1..100];
            constraint x^3*y - x <= 40;
            maximize y;
        """)
        for variant in ("du", "pu", "fe"):
            best, val, stats = maximize(csp, variant=variant)
            assert val == 41
            assert best == (1, 41)
            assert stats.incumbents == sorted(stats.incumbents)
            assert stats.incumbents[-1] == 41

    def test_incumbents_strictly_increase(self):
        csp = build_benchmark("opt", 50)
        best, val, stats = maximize(csp, variant="fe")
        assert all(a < b for a, b in zip(stats.incumbents,
                                         stats.incumbents[1:]))
        assert val == stats.incumbents[-1]
        x, y, z = best
        assert x ** 3 + y ** 2 == z ** 3
        assert 2 * x * y - z == val

    def test_objective_value_is_maximal_by_enumeration(self):
        csp = parse("""
            var x in [1..6]; var y in [1..6];
            constraint x*y <= 12;
            maximize 3*x + 2*y - x*y;
        """)
        want = max(3 * x + 2 * y - x * y
                   for x in range(1, 7) for y in range(1, 7) if x * y <= 12)
        for variant in ("du", "po", "fs"):
            _, val, _ = maximize(csp, variant=variant)
            assert val == want

    def test_infeasible(self):
        csp = parse("""
            var x in [1..5];
            constraint x^2 = 3;
            maximize x;
        """)
        with pytest.raises(Infeasible) as e:
            maximize(csp, variant="du")
        # the proof's statistics come with it
        stats = e.value.stats
        assert stats.complete and stats.solutions == 0
        assert stats.complete == (stats.stopped == "complete")
        assert stats.drf_applications > 0 and stats.incumbents == []

    def test_truncation_is_not_infeasibility(self):
        # opt(200) has optimum 37543; five nodes reach no incumbent
        best, val, stats = maximize(opt(200), variant="fm", max_nodes=5)
        assert (best, val) == (None, None)
        assert not stats.complete and stats.nodes == 5

    def test_unbounded_variable_other_than_the_objective_raises(self):
        csp = parse("var x in [0..5]; var y in Z; constraint x + 0*y >= 1;"
                    " maximize x;")
        with pytest.raises(UnboundedAfterPropagation) as e:
            maximize(csp, variant="du")
        assert e.value.name == "y"

    def test_truncation_keeps_the_last_incumbent(self):
        best, val, stats = maximize(opt(200), variant="fe", max_nodes=40)
        assert not stats.complete
        assert val == stats.incumbents[-1] < 37543
        x, y, z = best
        assert x ** 3 + y ** 2 == z ** 3 and 2 * x * y - z == val


class TestDeepSearch:
    """Bisecting [0..10^400] takes about 1,330 levels: the search must not
    recurse once per level."""

    N = 10 ** 400
    TEXT = ("var x in [0..%d]; var y in [0..%d]; constraint x + y = %d;"
            " maximize x - 2*y;" % (N, N, N))

    def test_solve_all_truncates_deep_search(self):
        sols, stats = solve_all(parse(self.TEXT), max_nodes=5000)
        assert stats.nodes == 5000 and not stats.complete
        assert sols and all(x + y == self.N for x, y in sols)

    def test_maximize_truncates_deep_search(self):
        best, val, stats = maximize(parse(self.TEXT), max_nodes=5000)
        assert stats.nodes == 5000 and not stats.complete
        x, y = best
        assert x + y == self.N and x - 2 * y == val == stats.incumbents[-1]


DIVERGING = """
    var x0 in Z;
    constraint -2*x0^2 + 3*x0^3 = 8;
    solve all;
"""


class TestTimeLimit:
    """A search of 10^400 solutions cannot finish: a time limit stops it
    soon after the limit, as a node budget would."""

    TEXT = TestDeepSearch.TEXT
    LIMIT = 0.3

    def test_solve_all_stops_near_the_limit(self):
        t0 = time.perf_counter()
        sols, stats = solve_all(parse(self.TEXT), time_limit=self.LIMIT)
        took = time.perf_counter() - t0
        assert not stats.complete and stats.nodes > 0
        assert stats.stopped == "time"
        assert self.LIMIT <= stats.elapsed and took < self.LIMIT + 1.0
        assert sols and all(x + y == TestDeepSearch.N for x, y in sols)

    def test_maximize_keeps_the_last_incumbent(self):
        t0 = time.perf_counter()
        best, val, stats = maximize(parse(self.TEXT), time_limit=self.LIMIT)
        assert time.perf_counter() - t0 < self.LIMIT + 1.0
        assert not stats.complete and self.LIMIT <= stats.elapsed
        x, y = best
        assert x - 2 * y == val == stats.incumbents[-1]

    def test_maximize_without_incumbent_is_not_infeasible(self):
        best, val, stats = maximize(opt(200), variant="fm", time_limit=0)
        assert (best, val) == (None, None)
        assert not stats.complete and stats.nodes == 0

    @pytest.mark.parametrize("variant", ("du", "pu", "fe"))
    def test_a_diverging_root_propagation_is_cut(self, variant):
        # no integer root: propagation raises the lower bound of x0 for
        # ever, and each sweep takes about twice as long as the last
        t0 = time.perf_counter()
        sols, stats = solve_all(parse(DIVERGING), variant=variant,
                                time_limit=0.2)
        assert time.perf_counter() - t0 < 2.0
        assert sols == [] and not stats.complete and stats.nodes == 0
        assert stats.stopped == "time"

    def test_a_search_within_the_limit_is_complete(self):
        sols, stats = solve_all(sumprod(6), time_limit=60.0)
        assert stats.complete and stats.stopped == "complete"
        assert sols == solve_all(sumprod(6))[0]
        # a NaN limit is an error, not a search without a limit
        with pytest.raises(ValueError):
            solve_all(sumprod(6), time_limit=math.nan)
        with pytest.raises(ValueError):
            maximize(opt(20), time_limit=math.nan)


class TestChecksUnderOptimize:
    def test_spurious_solution_raises_under_python_O(self):
        # the solution check must not be an assert, which -O strips
        src = pathlib.Path(intprop.__file__).resolve().parent.parent
        code = (
            "import intprop.search as s\n"
            "from intprop.model import parse\n"
            "assert False, 'asserts are on'\n"   # fails unless -O is in effect
            "s.verify_solution = lambda csp, values: False\n"
            "s.solve_all(parse('var x in [1..2];'), 'du')\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "spurious solution" in proc.stderr


class TestVerify:
    def test_cubes_witness(self):
        csp = build_benchmark("cubes")
        assert verify_solution(csp, (100, 1, 2, 3, 4))
        assert not verify_solution(csp, (99, 1, 2, 3, 4))

    def test_product_witnesses(self):
        csp = parse("var x in [1..2]; var y in [1..2]; constraint x*y = 4;")
        assert verify_solution(csp, (2, 2))
        assert not verify_solution(csp, (1, 1))


def test_integers_over_4300_digits():
    # values past the interpreter's cap on int-to-str conversion flow
    # through the API unconverted
    nines = 10 ** 4299 - 1
    csp = parse("var x in [10..10]; maximize %s*x*x;" % ("9" * 4299))
    best, value, stats = maximize(csp)
    assert best == (10,)
    assert value == nines * 100
    assert stats.incumbents == [value]
    csp = parse("var x in [9999..9999]; var y in Z;"
                "constraint y = x^2000; solve all;")
    sols, stats = solve_all(csp)
    assert sols == [(9999, 9999 ** 2000)]
    assert stats.complete
