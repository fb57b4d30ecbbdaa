#!/usr/bin/env python3
"""intprop benchmark: seeded streams of solve operations checked against oracles.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decomposed --seed 1 --seconds 35 --trace 0

The seed draws one stream of operations for the workload (see
``workloads.py``); the program receives only the generated problem texts.
An operation goes from text to a verified result through the public API:
``parse``, then ``solve_all`` or ``maximize``, which decompose the problem
and build a ``Solver``.  One process and one thread run the passes over the
whole stream in sequence, until ``--seconds`` have passed and at least two
passes are done.  Every result is compared with a brute-force oracle
computed before timing starts, and every pass must repeat the work
counters of the first.

``--trace 0`` reports the end-to-end metrics, measured with tracing off
and scaled by the reference work of ``pace.py`` timed between operations.
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics (``README.md`` lists them).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run without ``-O``: the solver checks its own solutions with
``assert``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import sys
from collections import namedtuple
from time import perf_counter

import pace
import problems
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import intprop from the checkout's sources, and nothing else."""
    init = ROOT / "src" / "intprop" / "__init__.py"
    if not init.is_file():
        die("no intprop sources at %s" % init)
    sys.path.insert(0, str(init.parent.parent))
    import intprop
    if pathlib.Path(intprop.__file__).resolve() != init.resolve():
        die("imported intprop from %s, not from the checkout"
            % intprop.__file__)


class Clock:
    """When the current operation's ``Solver`` became ready."""
    ready = None


def hook_solver_ready(engine, clock):
    init = engine.Solver.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        clock.ready = perf_counter()

    engine.Solver.__init__ = __init__


class OpRun:
    __slots__ = ("latency", "setup", "first", "outcome", "error", "work",
                 "pace")


# what an operation did, which must repeat exactly on every pass
Work = namedtuple("Work", "nodes solutions applications effective ops "
                          "complete")


def work_counters(stats):
    if stats is None:
        return None
    ops = stats.counters.as_dict()
    ops.pop("total")
    return Work(stats.nodes, stats.solutions, stats.drf_applications,
                stats.drf_effective, tuple(ops.items()), stats.complete)


def run_one(op, text, clock, model, search, max_nodes):
    run = OpRun()
    run.first = run.pace = None
    run.outcome = run.error = stats = None
    clock.ready = None
    t0 = perf_counter()

    def on_solution(values):
        if run.first is None:
            run.first = perf_counter() - t0

    try:
        csp = model.parse(text)
        if op.maximize:
            try:
                assignment, value, stats = search.maximize(
                    csp, variant=op.variant, division=op.division,
                    mode=op.schedule, max_nodes=max_nodes)
                run.outcome = (assignment, value)
            except search.Infeasible:
                run.outcome = None
        else:
            run.outcome, stats = search.solve_all(
                csp, variant=op.variant, division=op.division,
                mode=op.schedule, max_nodes=max_nodes,
                on_solution=on_solution)
    except Exception as e:      # a failed operation, not a failed pass
        run.error = "%s: %s" % (type(e).__name__, e)
    t1 = perf_counter()
    run.latency = t1 - t0
    run.setup = (t1 if clock.ready is None else clock.ready) - t0
    run.work = work_counters(stats)
    return run


def check(op, expected, run):
    """Why the operation failed, or None when it matches its oracle."""
    if run.error is not None:
        return run.error
    if run.work is not None and not run.work.complete:
        return "truncated by max_nodes"
    if op.maximize:
        if expected is None:
            return (None if run.outcome is None
                    else "solved a problem the oracle finds infeasible")
        if run.outcome is None:
            return "reported infeasible; the oracle's optimum is %d" % expected
        assignment, value = run.outcome
        if value != expected:
            return "optimum %d, oracle %d" % (value, expected)
        try:
            if problems.opt_value(op.params[0], assignment) != value:
                return "assignment %r does not reach %d" % (assignment, value)
        except ValueError as e:
            return str(e)
        return None
    sols = run.outcome
    got = set(sols)
    if len(got) != len(sols):
        return "duplicate solutions"
    if got != expected:
        return "%d solutions, oracle %d; e.g. missing %s, extra %s" % (
            len(got), len(expected), sorted(expected - got)[:1],
            sorted(got - expected)[:1])
    return None


Pass = namedtuple("Pass", "wall runs")


def run_pass(ops, texts, clock, model, search, max_nodes, tracer=None,
             paced=False):
    """One pass over the stream.  ``paced`` times the reference work of
    ``pace.py`` between operations, outside their timed regions, and gives
    each operation the lesser of the references on either side of it (an
    interruption only ever adds time)."""
    one = run_one if tracer is None else tracer.wrap("op", run_one)
    runs = []
    gc.collect()
    t0 = perf_counter()
    before = pace.reference() if paced else None
    for i, (op, text) in enumerate(zip(ops, texts)):
        if tracer is not None:
            tracer.op_index = i
        run = one(op, text, clock, model, search, max_nodes)
        if paced:
            after = pace.reference()
            run.pace = min(before, after)
            before = after
        runs.append(run)
    return Pass(perf_counter() - t0, runs)


def describe(op):
    return "%s%r %s/%s/%s" % (op.problem, op.params, op.variant,
                              op.division, op.schedule)


Timing = namedtuple("Timing", "latency setup first pace")


class Checker:
    """Checks each pass as it ends, against the oracles and against the
    work counters of the first pass; details of a failure go to stderr.

    Only the timings of a checked pass are kept, so what the process holds
    does not grow with the number of passes beyond a few floats each.
    """

    def __init__(self, ops, expected):
        self.ops = ops
        self.expected = expected
        self.reference = None
        self.passes = self.attempted = self.failed = self.mismatched = 0

    def take(self, p):
        k = self.passes
        self.passes += 1
        if self.reference is None:
            self.reference = [r.work for r in p.runs]
        for op, exp, run, ref in zip(self.ops, self.expected, p.runs,
                                     self.reference):
            self.attempted += 1
            why = check(op, exp, run)
            if why is not None:
                self.failed += 1
                print("pass %d: %s failed: %s" % (k, describe(op), why),
                      file=sys.stderr)
            if run.work != ref:
                self.mismatched += 1
                print("pass %d: %s work counters %r differ from pass 0's %r"
                      % (k, describe(op), run.work, ref), file=sys.stderr)
        return [Timing(r.latency, r.setup, r.first, r.pace) for r in p.runs]


def end_to_end(passes, peak_rss_mb):
    """End-to-end metrics from the paced passes' timings.

    Every time is scaled to the nominal host speed of ``pace.py`` by the
    reference measured next to it, and each operation's time is the median
    of its scaled times over the passes; sums and percentiles are taken
    over those medians.
    """
    ops = range(len(passes[0]))

    def per_op(field):
        out = []
        for i in ops:
            times = [pace.scaled(getattr(p[i], field), p[i].pace)
                     for p in passes if getattr(p[i], field) is not None]
            if times:
                out.append(statistics.median(times))
        return out

    latencies = per_op("latency")
    firsts = per_op("first")
    metrics = {
        "solve_s": (sum(latencies), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "first_sol_p50_ms": (statistics.median(firsts) * 1e3, "ms"),
        "setup_s": (sum(per_op("setup")), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    refs = [t.pace for p in passes for t in p]
    print("samples: %d passes of %d operations; first solution in %d;"
          " unscaled median pass %.3f s, set-up %.3f s; reference %.3f to"
          " %.3f ms, median %.3f ms"
          % (len(passes), len(latencies), len(firsts),
             statistics.median(sum(t.latency for t in p) for p in passes),
             statistics.median(sum(t.setup for t in p) for p in passes),
             min(refs) * 1e3, max(refs) * 1e3,
             statistics.median(refs) * 1e3))
    return metrics


def layer_metrics(tracer, cost, p, trace_mod):
    """Per-layer metrics of one traced pass, in seconds, counts, fractions."""
    own = tracer.corrected(*cost)
    agg = tracer.agg
    empty = trace_mod.Agg()

    def calls(name):
        return agg.get(name, empty).calls

    def count(name, key):
        return agg.get(name, empty).counts.get(key, 0)

    def frac(a, b):
        return a / b if b else 0.0

    m = {
        "model.parse_s": (own.get("model.parse", 0.0), "s"),
        "model.normalize_s": (own.get("model.normalize", 0.0), "s"),
        "model.monomials": (count("model.parse", "monomials"), "count"),
        "decompose.decompose_s": (own.get("decompose.decompose", 0.0), "s"),
    }
    for key in ("aux_vars", "rules", "schedule_len"):
        m["decompose." + key] = (count("decompose.decompose", key), "count")
    props = calls("engine.propagate")
    m.update({
        "engine.init_s": (own.get("engine.init", 0.0), "s"),
        "engine.self_s": (own.get("engine.propagate", 0.0), "s"),
        "engine.propagate_calls": (props, "count"),
        "engine.wipeout_frac": (
            frac(count("engine.propagate", "wipeouts"), props), "frac"),
    })
    for fam in dict.fromkeys(trace_mod.FAMILIES.values()):
        name = "rules." + fam
        apps = calls(name)
        m[name + ".apps"] = (apps, "count")
        m[name + ".self_s"] = (own.get(name, 0.0), "s")
        m[name + ".effective_frac"] = (
            frac(agg.get(name, empty).effective, apps), "frac")
    m["rules.eval_monomial.calls"] = (calls("rules.eval_monomial"), "count")
    m["rules.eval_monomial.self_s"] = (own.get("rules.eval_monomial", 0.0),
                                       "s")
    for fn in trace_mod.INTERVAL_FNS:
        m["intervals.%s.self_s" % fn] = (own.get("intervals." + fn, 0.0), "s")
    for fn in trace_mod.RATIONAL_FNS:
        m["rationals.%s.self_s" % fn] = (own.get("rationals." + fn, 0.0), "s")

    works = [r.work for r in p.runs if r.work is not None]
    nodes = sum(w.nodes for w in works)
    apps = sum(w.applications for w in works)
    search_s = own.get("search.solve_all", 0.0) + own.get("search.maximize",
                                                          0.0)
    m.update({
        "search.nodes": (nodes, "count"),
        "search.self_s": (search_s, "s"),
        "search.us_per_node": (frac(search_s, nodes) * 1e6, "us"),
        "search.solutions": (sum(w.solutions for w in works), "count"),
        "engine.applications": (apps, "count"),
        "engine.effective_frac": (frac(sum(w.effective for w in works),
                                       apps), "frac"),
    })
    for cat in trace_mod.intervals.OpCounters.CATEGORIES:
        m["intervals.%s.ops" % cat] = (
            sum(dict(w.ops)[cat] for w in works), "count")
    return m


def median_metrics(per_pass):
    return {k: (statistics.median(m[k][0] for m in per_pass), unit)
            for k, (_, unit) in per_pass[0].items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not __debug__:
        die("run without -O: the solver's solution checks are asserts")
    load_program()

    from intprop import engine, model, search

    if args.workload not in workloads.WORKLOADS:
        die("unknown workload %r (have: %s)"
            % (args.workload, ", ".join(workloads.WORKLOADS)))
    ops = workloads.generate(args.workload, args.seed)
    texts = [op.text() for op in ops]
    oracle_cache = {}
    expected = []
    for op in ops:
        key = (op.problem, op.params)
        if key not in oracle_cache:
            oracle_cache[key] = problems.ORACLES[op.problem](*op.params)
        expected.append(oracle_cache[key])

    clock = Clock()
    hook_solver_ready(engine, clock)
    solve = (ops, texts, clock, model, search, workloads.MAX_NODES)
    deadline = perf_counter() + args.seconds

    checker = Checker(ops, expected)
    if not args.trace:
        timings = []
        while len(timings) < 2 or perf_counter() < deadline:
            timings.append(checker.take(run_pass(*solve, paced=True)))
            if len(timings) == 2:
                # read at a fixed point, so that it does not depend on how
                # many passes fit into the run
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(timings, peak_rss_mb)
    else:
        import micro
        import layertrace as trace
        untraced, traced, per_pass = [], [], []
        while not traced or perf_counter() < deadline:
            plain = run_pass(*solve)
            checker.take(plain)
            # the wrapper's cost follows the host's speed, so it is measured
            # again next to every traced pass
            cost = trace.calibrate()
            tracer = trace.Tracer()
            uninstall = trace.install(tracer)
            try:
                p = run_pass(*solve, tracer=tracer)
            finally:
                uninstall()
            m = layer_metrics(tracer, cost, p, trace)
            m["trace.empty_call_ns"] = (sum(cost) * 1e9, "ns")
            checker.take(p)
            # wrapper cost the empty-call estimate did not account for
            m["trace.residual_frac"] = (
                sum(tracer.corrected(*cost).values()) / plain.wall - 1,
                "frac")
            untraced.append(plain.wall)
            traced.append(p.wall)
            per_pass.append(m)
        metrics = median_metrics(per_pass)
        metrics["trace.overhead_x"] = (
            statistics.median(traced) / statistics.median(untraced), "x")
        for name, value in micro.interval_timings().items():
            metrics[name] = (value, "ns")
        metrics["engine.idle_sweep_us"] = (micro.idle_sweep_us(), "us")
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write_spans(
            out / ("spans-%s-%d.jsonl" % (args.workload, args.seed)),
            {"workload": args.workload, "seed": args.seed,
             "ops": [describe(op) for op in ops]})

    attempted, failed = checker.attempted, checker.failed
    print("workload %s seed %d: %d operations a pass; fail_frac %d/%d = %g;"
          " work counters differing from pass 0: %d"
          % (args.workload, args.seed, len(ops), failed, attempted,
             failed / attempted, checker.mismatched))
    print(json.dumps({
        "correct": failed == 0 and checker.mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
