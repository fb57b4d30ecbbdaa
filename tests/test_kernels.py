"""How ``Solver`` binds the generated kernels, and how they show up.

``Solver.__init__`` looks each rule's class ``apply`` up in
``kernels.BINDERS``: a class whose ``apply`` has been replaced keeps the
replacement, as ``perfbench/layertrace.py`` needs.  The shape cache is
process-wide, grows with the shapes a problem has and not with its size,
and threads that fill it at once count what a lone run counts.  Each
kernel is named after its shape and has its source in ``linecache``.
"""

import dis
import inspect
import linecache
import sys
import threading
import traceback

import pytest

from intprop import kernels, rules
from intprop.bench import build_benchmark
from intprop.decompose import decompose
from intprop.engine import Solver
from intprop.model import parse
from intprop.search import solve_all

# under fe: a product, a short linear equality and an inequality
TEXT = """
    var x in [1..6]; var y in [1..6]; var z in [0..80];
    constraint x*y + x = z;
    constraint x + y <= 9;
    solve all;
"""


def kernel_shapes(solver):
    # the shape of every kernel the solver applies
    by_fn = {fn: shape for shape, fn in kernels._KERNELS.items()}
    return [by_fn.get(getattr(a, "__func__", None)) for a in solver._applies]


def work(stats):
    return (stats.nodes, stats.solutions, stats.drf_applications,
            stats.drf_effective, stats.counters.as_dict())


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(kernels, "_KERNELS", {})


class TestBinding:
    def test_a_replaced_apply_wins_until_it_is_restored(self, monkeypatch):
        dec = decompose(parse(TEXT), "fe")
        calls = []
        generic = rules.LinearEqRule.apply

        def replacement(self, store, ctr, snaps):
            calls.append(self)
            return generic(self, store, ctr, snaps)

        monkeypatch.setattr(rules.LinearEqRule, "apply", replacement)
        solver = Solver(dec)
        linear_eq = [i for i, r in enumerate(dec.rules)
                     if type(r) is rules.LinearEqRule]
        assert linear_eq
        for i in linear_eq:
            assert solver._applies[i].__func__ is replacement
        solver.flag_all()
        solver.propagate()
        assert {id(r) for r in calls} == {id(dec.rules[i]) for i in linear_eq}
        # the other classes kept their kernels
        shapes = kernel_shapes(solver)
        assert any(s and s[0] == "LinearIneq" for s in shapes)
        assert any(s and s[0] == "Mult" for s in shapes)

        monkeypatch.undo()
        shapes = kernel_shapes(Solver(dec))
        assert all(shapes[i][0] == "LinearEq" for i in linear_eq)

    def test_rules_without_a_shape_keep_their_apply(self):
        dec = decompose(build_benchmark("sumprod", 6), "fe", "strong")
        solver = Solver(dec)
        for rule, shape, apply in zip(dec.rules, kernel_shapes(solver),
                                      solver._applies):
            served = (isinstance(rule, rules.MultRule) and rule.kind == 1
                      or isinstance(rule, rules.LinearEqRule)
                      and getattr(rule, "shared", None) is None
                      and len(rule.others) <= kernels.MAX_OTHERS)
            assert (shape is not None) == served, rule
            if shape is None:
                assert apply == rule.apply, rule

    def test_every_linear_equality_length_has_a_fast_path(self):
        # an equality short enough for a kernel is served by one, and a
        # longer one shares one residue: no length falls back to summing
        # its residue term by term during a search.  This holds while
        # rules.LONG_SUM - 2 <= kernels.MAX_OTHERS
        for n in range(1, rules.LONG_SUM + 3):
            names = ["x%d" % i for i in range(n)]
            text = "".join("var %s in [-9..9]; " % v for v in names)
            text += "constraint x0%s = 1;" % "".join(
                " %s %d*%s" % ("-+"[i % 2], i + 1, v)
                for i, v in enumerate(names) if i)
            dec = decompose(parse(text), "du")
            solver = Solver(dec)
            linear = [(rule, shape) for rule, shape
                      in zip(dec.rules, kernel_shapes(solver))
                      if isinstance(rule, rules.LinearEqRule)]
            assert len(linear) == n
            for rule, shape in linear:
                assert shape is not None or rule.shared is not None, n

    def test_shapes_do_not_grow_with_the_size(self, empty_cache):
        shapes = []
        for n in (300, 3000):
            kernels._KERNELS.clear()
            for variant in ("fm", "fs", "fe"):
                Solver(decompose(build_benchmark("cubes", n), variant))
            shapes.append(set(kernels._KERNELS))
        assert shapes[0] == shapes[1]
        assert len(shapes[0]) >= 5

    def test_threads_that_fill_the_cache_count_what_a_lone_run_counts(
            self, empty_cache):
        csp = build_benchmark("sumprod", 6)
        lone_sols, lone = solve_all(csp, "fe")
        kernels._KERNELS.clear()
        barrier = threading.Barrier(4)
        results = []

        def run():
            barrier.wait()
            sols, stats = solve_all(csp, "fe")
            results.append((sols, work(stats)))

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
        assert results == [(lone_sols, work(lone))] * 4
        assert kernels._KERNELS


class TestInspection:
    @staticmethod
    def kernel():
        rule = rules.LinearEqRule([(2, 0), (1, 1), (-1, 2)], 5, 0)
        return kernels.BINDERS[rules.LinearEqRule.apply](rule)

    def test_named_after_the_shape(self):
        fn = self.kernel().__func__
        assert fn.__name__ == fn.__qualname__ == "LinearEq_pn_pos"
        assert fn.__code__.co_filename == "<intprop-kernel LinearEq_pn_pos>"

    def test_getsource_returns_the_generated_source(self):
        source = inspect.getsource(self.kernel())
        assert source.startswith("def LinearEq_pn_pos(k, store, ctr, snaps):")
        assert "lo = b - h0 * a0 - l1 * a1\n" in source
        assert "ctr.sum += 2\n" in source
        compile(source, "<check>", "exec")

    def test_tracebacks_and_dis_show_the_generated_lines(self):
        kernel = self.kernel()
        # a store whose entry is not a pair fails inside the kernel
        try:
            kernel([(0, 1), "x", (0, 1)], None, {})
        except ValueError:
            text = traceback.format_exc()
        assert 'File "<intprop-kernel LinearEq_pn_pos>"' in text
        assert "l0, h0 = store[v0]" in text
        # every line the bytecode names is a generated line
        code = kernel.__code__
        lines = {line for _, line in dis.findlinestarts(code) if line}
        assert lines
        for line in lines:
            assert linecache.getline(code.co_filename, line).strip(), line
