"""Constraint rewriting for the solver variants, and rule scheduling.

Variants
--------
``du`` / ``do``
    Constraints are used directly (``do`` switches the polynomial rules to
    the simplified-fraction mode).
``pu`` / ``po``
    Partial decomposition: auxiliary variables are equated with nonlinear
    power products so every constraint becomes *simple* (no variable occurs
    in two places).  ``pu`` replaces every nonlinear power product, sharing
    one auxiliary per distinct product across the whole problem; ``po``
    replaces only the products that take part in a repeated variable
    occurrence, leaving already-simple constraints untouched.
``fm`` / ``fs`` / ``fe``
    Full decomposition into linear constraints plus atoms: ``x*y = z``
    always, ``x = y**2`` also for ``fs``, ``x = y**n`` also for ``fe``.
    Identical sub-terms are shared across constraints; :class:`_SubTerms`
    chooses them.  A product of k distinct variables tests (k - 1)(2k - 1)
    pairs of sub-terms, and a decomposition that would test more than
    ``_MAX_PAIRS`` pairs raises ``ValueError``.

Auxiliaries
-----------
While rewriting, an auxiliary is known only by the power product over user
variables that it stands for, and its definition by the power products of
its arguments.  Once every constraint is rewritten, the auxiliaries that
no user constraint needs, directly or through another definition, are
left out, and the others are numbered once: ids follow the user variables
in creation order, and ``_u<k>`` names the ``k``-th auxiliary created
(with ``_`` appended while a user variable has that name), so the names
of the kept ones may skip numbers.  Each auxiliary's initial domain is
the image of its definition's forward rule (the first of its rules),
applied in definition order, so the rules are the one place where a
definition is evaluated.  Those applications are not propagation work:
they count into a scratch counter and keep their residue snapshots in a
scratch dict, both then dropped.  With an empty user domain the problem
is infeasible and no initial domain is computed.

Each definition's rules follow one another, its forward rule first, and
the forward rule reads exactly the definition's arguments.  The generated
schedule follows those ``reads``: for every rule of a user constraint it
visits the definitions of the auxiliaries it reads bottom-up, then the
rule, then the rules propagating a written auxiliary back down its
definition tree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .intervals import Interval, OpCounters
from .model import (
    CSP,
    Constraint,
    MultAtom,
    PolynomialConstraint,
    PowerAtom,
    PowerProduct,
    TrivialConstraint,
    _pp_key,
)
from .rules import Rule, build_rules, readers_index

VARIANTS = ("du", "do", "pu", "po", "fm", "fs", "fe")


@dataclass(frozen=True)
class AuxDef:
    """Definition of one auxiliary variable."""
    var: int
    kind: str                      # "pp" | "mul" | "pow"
    pp: PowerProduct = ()          # kind == "pp": the defining power product
    args: Tuple[int, ...] = ()     # "mul": (u, v); "pow": (y, n)


@dataclass
class DecomposedCSP:
    variant: str
    division: str
    names: List[str]
    domains: List[Interval]
    n_user: int
    constraints: List[Constraint]   # aux definitions first, then users
    aux_defs: List[AuxDef]
    rules: List[Rule]
    user_rule_indices: Sequence[int]
    readers: List[List[int]]
    schedule: List[int]
    branch_order: List[int]
    infeasible: bool = False


def _nonlinear(pp: PowerProduct) -> bool:
    return len(pp) > 1 or (len(pp) == 1 and pp[0][1] > 1)


def _replaced(c: PolynomialConstraint, variant: str) -> List[PowerProduct]:
    """The power products of ``c`` that ``variant`` replaces by
    auxiliaries, in monomial order."""
    pps = [pp for _, pp in c.monomials if _nonlinear(pp)]
    if variant == "po":
        # only those in a repeated variable occurrence, so constraints
        # that are already simple stay intact
        counts = Counter(v for _, pp in c.monomials for v, _ in pp)
        pps = [pp for pp in pps if any(counts[v] > 1 for v, _ in pp)]
    return pps


# pairs one full decomposition may test: (k - 1)(2k - 1) for k distinct factors
_MAX_PAIRS = 10 ** 5


class _SubTerms:
    """The sub-terms of a full decomposition, in creation order.

    ``made`` maps each sub-term's power product over user variables to
    ``("mul", (pa, pb))`` or ``("pow", (pa, n))``, its arguments again
    power products; a user variable ``v`` is ``((v, 1),)``.

    Each step towards a target makes the best candidate: a product of two
    of its divisors, or (``fs``, ``fe``) a power of one, that divides it
    and is not made yet.  The best has the largest exponent sum, then is a
    power, then has the greatest ``_pp_key`` (so a product of distinct
    variables nests from the rightmost pair); the first pair in ``i <= j``
    order of the divisors makes a product, the last divisor a power.  Only
    the first step tests every pair; later steps test the pairs with, and
    the powers of, the newest sub-term ``c``, and choose the same: ``c``
    outranked every candidate at its step, so ``c * x_v``, for any ``v``
    with room left in the target, cannot already be made, since a made
    multiple of ``c`` times a missing variable would then have outranked
    ``c``; and ``c * x_v`` outranks every candidate without ``c``.
    """

    def __init__(self, variant: str):
        self.variant = variant
        self.made: Dict[PowerProduct, Tuple[str, tuple]] = {}
        self.pairs = 0

    def define(self, target: PowerProduct) -> None:
        """Make sure some sub-term stands for ``target``."""
        if target in self.made:
            return
        if self.variant == "fe":
            for v, e in target:
                if e >= 2:
                    self.made.setdefault(((v, e),), ("pow", (((v, 1),), e)))
        elif self.variant == "fs":
            for v, e in target:
                k = 2
                while k <= e:
                    self.made.setdefault(((v, k),),
                                         ("pow", (((v, k // 2),), 2)))
                    k *= 2
        t_exp = dict(target)
        # in creation order, user variables first, so a pair (pa, pb) with
        # pa first has its arguments in the order of their ids
        divisors = [((v, 1),) for v, _ in target]
        divisors += [pp for pp in self.made
                     if all(t_exp.get(v, 0) >= e for v, e in pp)]
        new = 0                 # the candidates use divisors[new:]
        while target not in self.made:
            n = len(divisors)
            self.pairs += (n * (n + 1) - new * (new + 1)) // 2
            if self.pairs > _MAX_PAIRS:
                raise ValueError("full decomposition would test more than %d "
                                 "pairs of sub-terms" % _MAX_PAIRS)
            best = max((c for c in self._candidates(divisors, new, t_exp)
                        if c[0] not in self.made), key=_rank, default=None)
            if best is None:
                raise AssertionError("no way to grow towards %r" % (target,))
            self.made[best[0]] = best[1]
            new = len(divisors)
            divisors.append(best[0])

    def _candidates(self, divisors, new, t_exp):
        """Yield ``(result, definition)`` for the powers, then the pairs,
        of ``divisors`` that use ``divisors[new:]`` and divide the target;
        powers of the last divisor first, so the first yielded wins."""
        # powers up to the greatest dividing the target (2 for fs, none for fm)
        top = {"fm": 1, "fs": 2, "fe": max(t_exp.values())}[self.variant]
        for pa in reversed(divisors[new:]):
            for k in range(2, min([top] + [t_exp[v] // e for v, e in pa]) + 1):
                yield tuple((v, e * k) for v, e in pa), ("pow", (pa, k))
        for i, pa in enumerate(divisors):
            for pb in divisors[max(i, new):]:
                d = dict(pb)
                for v, e in pa:
                    d[v] = d.get(v, 0) + e
                if all(d[v] <= t_exp[v] for v, _ in pa):
                    yield tuple(sorted(d.items())), ("mul", (pa, pb))


def _rank(candidate):
    """A candidate's rank: its exponent sum, then a power above a product,
    then its ``_pp_key``."""
    res, (kind, _) = candidate
    return sum(e for _, e in res), kind == "pow", _pp_key(res)


def _number(made: Dict[PowerProduct, Tuple[str, tuple]],
            targets: List[List[PowerProduct]], names: List[str]):
    """Number the auxiliaries that some user constraint needs.

    ``made`` maps the power product of each auxiliary, in creation order,
    to its definition: ``("pp", ())`` for the product itself, or one of
    :class:`_SubTerms`; ``targets`` lists the products each user constraint
    replaces.  Appends the kept auxiliaries' names to ``names``, the user
    names, and returns their definitions and the ids of the user variables
    and the kept auxiliaries by power product.
    """
    needed = {pp for ts in targets for pp in ts}
    for pp, (kind, args) in reversed(made.items()):
        if pp in needed and kind != "pp":
            needed.update(args if kind == "mul" else args[:1])
    ids = {((v, 1),): v for v in range(len(names))}
    taken = set(names)
    defs: List[AuxDef] = []
    for i, (pp, (kind, args)) in enumerate(made.items(), 1):
        if pp not in needed:
            continue
        u = ids[pp] = len(names)
        name = "_u%d" % i
        while name in taken:
            name += "_"
        names.append(name)
        if kind == "pp":
            defs.append(AuxDef(u, "pp", pp=pp))
        elif kind == "mul":
            defs.append(AuxDef(u, "mul", args=(ids[args[0]], ids[args[1]])))
        else:
            defs.append(AuxDef(u, "pow", args=(ids[args[0]], args[1])))
    return defs, ids


def _substitute(c: PolynomialConstraint, targets: List[PowerProduct],
                ids: Dict[PowerProduct, int]) -> PolynomialConstraint:
    """``c`` with each of ``targets`` replaced by its auxiliary."""
    chosen = set(targets)
    mons = tuple((coeff, ((ids[pp], 1),)) if pp in chosen else (coeff, pp)
                 for coeff, pp in c.monomials)
    return PolynomialConstraint(mons, c.op, c.rhs, origin=c.origin)


def def_constraint(d: AuxDef) -> Constraint:
    """The constraint enforcing one auxiliary definition."""
    if d.kind == "pp":
        return PolynomialConstraint(
            ((1, ((d.var, 1),)), (-1, d.pp)), "eq", 0)
    if d.kind == "mul":
        return MultAtom(d.args[0], d.args[1], d.var)
    return PowerAtom(d.var, d.args[0], d.args[1])


def _generate_schedule(rules: List[Rule], user_rule_indices: Sequence[int],
                       def_rules: Dict[int, range]) -> List[int]:
    """``def_rules`` maps each auxiliary to the indices of its definition's
    rules, forward rule first; the forward rule reads the arguments."""
    schedule: List[int] = []
    for f in user_rule_indices:
        rule = rules[f]
        fragment: Dict[int, None] = {}   # the rules in first-visit order
        for a in sorted(v for v in rule.reads if v in def_rules):
            _forward(a, rules, def_rules, fragment)
        fragment[f] = None
        if rule.writes in def_rules:
            _backward(rule.writes, rules, def_rules, fragment)
        schedule.extend(fragment)
    present = set(schedule)
    for i in range(len(rules)):
        if i not in present:
            schedule.append(i)
    return schedule


# module functions, not closures: a recursive closure is a reference cycle,
# which would keep the rules alive until the next garbage collection
def _forward(a, rules, def_rules, fragment):
    """Add to ``fragment`` the forward rules defining auxiliary ``a``,
    those of its arguments first."""
    first = def_rules[a][0]
    for dep in rules[first].reads:
        if dep in def_rules:
            _forward(dep, rules, def_rules, fragment)
    fragment.setdefault(first)


def _backward(a, rules, def_rules, fragment):
    """Add to ``fragment`` the rules propagating auxiliary ``a`` back
    down its definition tree."""
    r = def_rules[a]
    for ri in r[1:]:
        fragment.setdefault(ri)
    for dep in rules[r[0]].reads:
        if dep in def_rules:
            _backward(dep, rules, def_rules, fragment)


def decompose(csp: CSP, variant: str,
              division: str = "weak") -> DecomposedCSP:
    """Rewrite a CSP for one variant and prepare its rules and schedule."""
    if variant not in VARIANTS:
        raise ValueError("unknown variant %r" % variant)
    if division not in ("weak", "strong"):
        raise ValueError("division must be 'weak' or 'strong'")
    names = list(csp.names)
    n_user = len(names)
    # an empty user domain leaves nothing to propagate or to evaluate
    empty = None in csp.domains

    infeasible = empty
    kept: List[Constraint] = []
    for c in csp.constraints:
        if isinstance(c, TrivialConstraint):
            if not c.satisfied:
                infeasible = True
        else:
            kept.append(c)

    defs: List[AuxDef] = []
    users: List[Constraint] = kept
    if variant not in ("du", "do"):
        # atomic constraints are already in final form
        targets = [_replaced(c, variant)
                   if isinstance(c, PolynomialConstraint) else []
                   for c in kept]
        if variant in ("pu", "po"):
            made = {pp: ("pp", ()) for ts in targets for pp in ts}
        else:
            rw = _SubTerms(variant)
            for ts in targets:
                for pp in ts:
                    rw.define(pp)
            made = rw.made
        defs, ids = _number(made, targets, names)
        users = [_substitute(c, ts, ids) if ts else c
                 for c, ts in zip(kept, targets)]
    domains = list(csp.domains) + [(None, None)] * len(defs)

    rules: List[Rule] = []
    def_rules: Dict[int, range] = {}
    def_constraints = [def_constraint(d) for d in defs]
    scratch = OpCounters()
    for d, dc in zip(defs, def_constraints):
        base = len(rules)
        rules.extend(build_rules([dc], division))
        def_rules[d.var] = range(base, len(rules))
        assert rules[base].writes == d.var
        if not empty:
            # the initial domain is the image of the forward rule
            rules[base].apply(domains, scratch, {})
    n_def_rules = len(rules)
    rules.extend(build_rules(users, division, optimized=variant == "do"))
    user_rule_indices = range(n_def_rules, len(rules))

    readers = readers_index(rules, len(names))
    schedule = _generate_schedule(rules, user_rule_indices, def_rules)
    branch_order = list(range(n_user)) + [d.var for d in defs]

    return DecomposedCSP(
        variant=variant, division=division, names=names,
        domains=domains, n_user=n_user,
        constraints=def_constraints + users,
        aux_defs=defs, rules=rules, user_rule_indices=user_rule_indices,
        readers=readers, schedule=schedule, branch_order=branch_order,
        infeasible=infeasible)
