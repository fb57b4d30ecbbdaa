"""Per-layer tracing by wrapping the program's public functions from outside.

Every wrapped call is a span.  Hot spans (rules, interval operations) are
folded into per-name totals as they close, because a pass makes millions
of them; spans of the front end and the engine entry points (parse,
decompose, ``Solver.__init__``, the solve call) are also kept whole, in
memory, and written out as JSON lines when the run ends.

Self time is a span's duration minus the part covered by its child spans.
A wrapper costs time of its own, which would land in the spans' self
times: :func:`calibrate` measures that cost on an empty function, and
:meth:`Tracer.corrected` subtracts it per call.

The callers inside ``intprop`` reach every wrapped function through a
module or class attribute, so patching those attributes is enough; names a
module imported with ``from ... import`` are patched in that module too.
"""

from __future__ import annotations

import importlib
import json
from time import perf_counter

from intprop import engine, intervals, model, rationals, rules, search

# the package re-exports the function decompose under the module's name
decompose_mod = importlib.import_module("intprop.decompose")

INTERVAL_FNS = ("mult", "div", "div_weak", "div_scalar", "div_halfline",
                "root", "exp", "add", "sub", "intersect")
RATIONAL_FNS = ("q_add", "q_div")

# rule class -> family; families follow the paper's rule kinds
FAMILIES = {
    "LinearEqRule": "LinearEq",
    "LinearIneqRule": "LinearIneq",
    "PolyRule": "Poly",
    "PolyEqRule": "Poly",
    "PolyIneqRule": "Poly",
    "MultRule": "Mult",
    "ExpoRule": "Expo",
    "RootXRule": "RootX",
    "DiseqVarVarRule": "Diseq",
    "DiseqVarConstRule": "Diseq",
    "DiseqCheckRule": "Diseq",
}

# spans kept whole (the others are only totalled)
KEPT = ("op", "model.parse", "decompose.decompose", "engine.init",
        "search.solve_all", "search.maximize")


class Agg:
    __slots__ = ("calls", "total", "self", "child_calls", "effective",
                 "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.child_calls = 0
        self.effective = 0   # rule applications as the engine counts them
        self.counts = {}     # other tallies taken from return values


def tally(agg, key, n=1):
    agg.counts[key] = agg.counts.get(key, 0) + n


class Tracer:
    """Span stack and per-name totals for one traced pass."""

    def __init__(self):
        self.stack = []      # frames: [child_time, child_calls]
        self.agg = {}
        self.spans = []      # (op index, name, start, end, depth)
        self.op_index = -1

    def wrap(self, name, fn, observe=None, rule=False):
        """Return ``fn`` wrapped in a span called ``name``.

        ``observe(agg, result, args)`` is called after every call, to tally
        what the result says.  ``rule`` marks a rule's ``apply``: its
        effective applications are counted as the engine counts them, the
        written domain changed and did not become empty.
        """
        stack = self.stack
        push = stack.append
        pop = stack.pop
        a = self.agg.setdefault(name, Agg())
        spans = self.spans if name in KEPT else None
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0, 0]
            push(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                pop()
                d = t1 - t0
                a.calls += 1
                a.total += d
                a.self += d - frame[0]
                a.child_calls += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += d
                    parent[1] += 1
                if spans is not None:
                    spans.append((tracer.op_index, name, t0, t1, len(stack)))
            if rule:
                if result >= 0 and args[1][result] is not None:
                    a.effective += 1
            elif observe is not None:
                observe(a, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def corrected(self, inside, outside):
        """Self time per name with the wrappers' own cost taken out.

        Each call made ``inside`` seconds of wrapper cost land in its own
        span and ``outside`` seconds in its caller's.
        """
        return {name: max(0.0, a.self - a.calls * inside
                          - a.child_calls * outside)
                for name, a in self.agg.items() if a.calls}

    def write_spans(self, path, run_info):
        with open(path, "w") as f:
            f.write(json.dumps(run_info) + "\n")
            for op, name, t0, t1, depth in self.spans:
                f.write(json.dumps({"op": op, "name": name, "start": t0,
                                    "end": t1, "depth": depth}) + "\n")


def _rule_classes():
    out = []
    todo = [rules.Rule]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            out.append(sub)
            todo.append(sub)
    return out


def _parsed(a, csp, args):
    tally(a, "monomials", sum(len(getattr(c, "monomials", ()))
                              for c in csp.constraints))


def _decomposed(a, dec, args):
    tally(a, "aux_vars", len(dec.names) - dec.n_user)
    tally(a, "rules", len(dec.rules))
    tally(a, "schedule_len", len(dec.schedule))


def _propagated(a, result, args):
    if result != engine.FIXPOINT:
        tally(a, "wipeouts")


def install(tracer):
    """Patch the layer entry points; returns a function that undoes it."""
    undo = []

    def patch(owner, attr, wrapped):
        undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, wrapped)

    parse = tracer.wrap("model.parse", model.parse, _parsed)
    patch(model, "parse", parse)
    normalize = tracer.wrap("model.normalize", model.normalize)
    patch(model, "normalize", normalize)
    patch(search, "normalize", normalize)
    dec = tracer.wrap("decompose.decompose", decompose_mod.decompose,
                      _decomposed)
    patch(decompose_mod, "decompose", dec)
    patch(search, "decompose", dec)
    patch(search, "solve_all",
          tracer.wrap("search.solve_all", search.solve_all))
    patch(search, "maximize",
          tracer.wrap("search.maximize", search.maximize))
    patch(engine.Solver, "__init__",
          tracer.wrap("engine.init", engine.Solver.__init__))
    patch(engine.Solver, "propagate",
          tracer.wrap("engine.propagate", engine.Solver.propagate,
                      _propagated))

    # resolve every apply before patching any, so that subclasses sharing
    # an inherited apply get one wrapper each, not wrappers of wrappers;
    # the classes of one family share one total
    applies = [(cls, cls.apply) for cls in _rule_classes()]
    for cls, fn in applies:
        family = FAMILIES.get(cls.__name__, cls.__name__)
        patch(cls, "apply", tracer.wrap("rules." + family, fn, rule=True))
    em = tracer.wrap("rules.eval_monomial", rules.eval_monomial)
    patch(rules, "eval_monomial", em)
    patch(decompose_mod, "eval_monomial", em)
    for name in INTERVAL_FNS:
        patch(intervals, name,
              tracer.wrap("intervals." + name, getattr(intervals, name)))
    for name in RATIONAL_FNS:
        w = tracer.wrap("rationals." + name, getattr(rationals, name))
        patch(rationals, name, w)
        if name in rules.__dict__:
            patch(rules, name, w)

    def uninstall():
        for owner, attr, old in reversed(undo):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    return uninstall


_MISSING = object()


def calibrate(n=30_000, repeats=15):
    """Cost of the wrapper around an empty function, in seconds per call.

    The least cost over the repeats is taken: noise from other processes
    only adds time.

    Returns ``(inside, outside)``: ``inside`` is what a wrapped empty call
    records as its own duration beyond a bare call, and ``outside`` is the
    rest of the wrapper's cost, which its caller's span absorbs.  The empty
    function takes three arguments, as the hot wrapped calls do.
    """
    def empty(a, b, c):
        return None

    best = None
    r = range(n)
    for _ in range(repeats):
        t = Tracer()
        w = t.wrap("empty", empty)
        t0 = perf_counter()
        for _ in r:
            empty(1, 2, 3)
        bare = (perf_counter() - t0) / n
        t0 = perf_counter()
        for _ in r:
            w(1, 2, 3)
        wrapped = (perf_counter() - t0) / n
        # the recorded span holds a bare call plus part of the timer cost
        inside = max(0.0, t.agg["empty"].total / n - bare)
        outside = max(0.0, wrapped - bare - inside)
        if best is None or inside + outside < sum(best):
            best = (inside, outside)
    return best
