"""Finite kernels of the linear and multiplication rules, generated per
shape.

After Schulte & Tack, "Views and iterators for generic constraint
implementations" (CP 2005), each rule's ``apply`` is the one generic
reference, and this module derives specialized copies of it.  A kernel
serves every rule of one shape:

* a :class:`~intprop.rules.LinearEqRule` without a shared residue, or a
  :class:`~intprop.rules.LinearIneqRule`, with at most :data:`MAX_OTHERS`
  other terms.  That is ``rules.LONG_SUM - 2``, so every rule of an
  equality too short to share its residue has a kernel.  The shape is the
  family, the signs of the other coefficients (``p`` or ``n`` each) and
  the class of ``a_j``: ``one``, ``minus_one``, ``pos`` (greater than 1)
  or ``neg`` (less than -1);
* a :class:`~intprop.rules.MultRule` of kind 1 (``Mult_1``), or of kind 2
  or 3 under weak division (``Mult_23w``).  The kernel takes the
  non-negative row of :func:`~intprop.intervals.mult`'s table, or of the
  zero-free quotient's, and calls the generic ``apply`` off that row.

A kernel unpacks its rule's variables and coefficients from a tuple of
constants, computes in integers only, intersects with the written domain
in place, and bumps each op counter by one constant, as in
``ctr.sum += 3``.  It reads every bound that may be infinite (``None``)
inside one ``try``, before it counts anything, and returns the generic
``apply`` on the ``TypeError`` that an infinite bound raises.  So it gives
the generic ``apply``'s result, store and op counts on every store, and it
never falls back during a search, where every bound is finite.

:data:`BINDERS` maps the original ``apply`` of each served class to a
binder, which returns the rule's kernel bound by :class:`types.MethodType`
over the rule's constants (one object per rule, as a bound ``apply`` is),
or the rule's bound ``apply`` when no kernel serves its shape.
``engine.Solver`` looks a rule's class ``apply`` up there, so a class
whose ``apply`` has been replaced keeps the replacement.  Each shape is
compiled once per process, on first use, and kept in :data:`_KERNELS`;
compiling a shape again gives an equal function, so threads that race on
a shape compile it twice at worst and keep one.  A kernel is named after
its shape (``LinearEq_pn_pos``), and its source is registered with
:mod:`linecache` under ``<intprop-kernel NAME>``, so tracebacks,
profilers, :mod:`dis` and :func:`inspect.getsource` show the generated
lines.
"""

from __future__ import annotations

import linecache
import types

from . import intervals as iv
from .rules import LONG_SUM, LinearEqRule, LinearIneqRule, MultRule

# the most other terms of a linear rule that a kernel is generated for:
# those of an equality of LONG_SUM - 1 terms, the longest whose rules do
# not share a residue
MAX_OTHERS = LONG_SUM - 2

# shape -> compiled kernel, shared by every solver of the process; a shape
# is a tuple of strings, and its kernel is named by joining them with "_"
_KERNELS = {}

# the quotient of the residue [lo..hi] by a_j, as iv.div_scalar takes it:
# its lower and upper bound and the category counted, per class of a_j
_QUOTIENT = {
    "one": ("lo", "hi", "multF"),
    "minus_one": ("-hi", "-lo", "multF"),
    "pos": ("-((-lo) // aj)", "hi // aj", "div"),
    "neg": ("-((-hi) // aj)", "lo // aj", "div"),
}

# MultRule's non-negative rows: the test that a store is off the row, the
# result on it, and the category counted
_MULT_ROWS = {
    "1": ("a0 < 0 or b0 < 0", "a0 * b0, a1 * b1", "multI"),
    "23w": ("a0 < 0 or b0 <= 0", "-((-a0) // b1), a1 // b0", "div"),
}


def _compile(shape, names, body, counts, generic):
    """Compile the kernel of ``shape``, register its source and cache it.

    The kernel unpacks its constants into ``rule, w`` and ``names``, reads
    the written domain [d0..d1], runs ``body``, which leaves the quotient
    in ``lo`` and ``hi``, and intersects, all in the ``try``; then it bumps
    ``counts`` and writes the store."""
    name = "_".join(shape)
    source = "\n".join(
        ["def %s(k, store, ctr, snaps):" % name, "    rule, w, %s = k" % names,
         "    try:", "        d0, d1 = store[w]"]
        + ["        " + line for line in body]
        + ["        if d0 >= lo:", "            lo = d0",
           "        if d1 <= hi:", "            hi = d1",
           "    except TypeError:",
           "        return generic(rule, store, ctr, snaps)"]
        + ["    ctr.%s += %d" % c for c in counts.items() if c[1]]
        + ["    if lo is d0 and hi is d1:", "        return -1",
           "    store[w] = None if lo > hi else (lo, hi)", "    return w", ""])
    filename = "<intprop-kernel %s>" % name
    namespace = {"generic": generic, "__name__": __name__}
    exec(compile(source, filename, "exec"), namespace)
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    return _KERNELS.setdefault(shape, namespace[name])


def _linear_kernel(shape):
    family, signs, cls = shape
    lo_q, hi_q, category = _QUOTIENT[cls]
    n = len(signs)
    if family == "LinearEq":
        lo = "".join(" - %s%d * a%d" % ("h" if s == "p" else "l", i, i)
                     for i, s in enumerate(signs))
        body = ["l%d, h%d = store[v%d]" % (i, i, i) for i in range(n)] + [
            "lo = b" + lo, "hi = b" + lo.translate(str.maketrans("hl", "lh")),
            "lo, hi = %s, %s" % (lo_q, hi_q)]
    else:
        # x_j <= (b - sum a_i*x_i) / a_j reads the lower bound of a term
        # with a_i > 0 and the upper bound of one with a_i < 0, and bounds
        # x_j from above when a_j > 0 and from below when a_j < 0; the
        # other side keeps the domain's own bound
        body = ["hi = b" + "".join(" - store[v%d][%d] * a%d" % (i, s == "n", i)
                                   for i, s in enumerate(signs))]
        body += (["lo = d0", "hi = " + hi_q] if cls in ("one", "pos") else
                 ["lo = " + lo_q, "hi = d1"])
    # a_j = 1 leaves the residue as it is
    body = [ln for ln in body if ln not in ("lo, hi = lo, hi", "hi = hi")]
    counts = {"sum": n, "multF": n + (category == "multF"),
              "div": category == "div"}
    generic = (LinearEqRule if family == "LinearEq" else LinearIneqRule).apply
    names = "b, aj" + "".join(", (a%d, v%d)" % (i, i) for i in range(n))
    return _compile(shape, names, body, counts, generic)


def _mult_kernel(shape):
    test, result, category = _MULT_ROWS[shape[1]]
    body = ["a0, a1 = store[a]", "b0, b1 = store[b]", "if %s:" % test,
            "    return generic(rule, store, ctr, snaps)", "lo, hi = " + result]
    return _compile(shape, "a, b", body, {category: 1}, MultRule.apply)


def _bind_linear(rule):
    others = rule.others
    aj = rule.aj
    if rule.shared is not None or len(others) > MAX_OTHERS or aj == 0:
        return rule.apply
    signs = ""
    for a, _ in others:
        signs += "p" if a > 0 else "n"
    shape = (rule.variant, signs, "one" if aj == 1 else "minus_one"
             if aj == -1 else "pos" if aj > 0 else "neg")
    fn = _KERNELS.get(shape) or _linear_kernel(shape)
    return types.MethodType(fn, (rule, rule.writes, rule.b, aj) + others)


def _bind_mult(rule):
    row = "1" if rule.kind == 1 else "23w" if rule.fn is iv.div_weak else None
    if row is None:
        return rule.apply
    fn = _KERNELS.get(("Mult", row)) or _mult_kernel(("Mult", row))
    return types.MethodType(fn, (rule, rule.writes, rule.a, rule.b))


# the binder of each original apply: it returns the rule's kernel, or its
# bound apply when the rule has no generated shape
BINDERS = {
    LinearEqRule.apply: _bind_linear,
    LinearIneqRule.apply: _bind_linear,
    MultRule.apply: _bind_mult,
}
