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
    New sub-terms always take the candidate with the largest exponent sum
    (preferring a power over a product on ties, then the term whose
    exponent vector is lexicographically smallest, which builds products
    of many distinct variables nested from the rightmost pair).  Identical
    sub-terms are shared across constraints; unused ones are dropped.

The generated schedule visits, for every rule of a user constraint, the
definitions of the auxiliaries it reads bottom-up, then the rule, then the
rules propagating a written auxiliary back down its definition tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from . import intervals as iv
from .intervals import Interval
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
from .rules import Rule, build_rules, eval_monomial, readers_index

VARIANTS = ("du", "do", "pu", "po", "fm", "fs", "fe")


@dataclass(frozen=True)
class AuxDef:
    """Definition of one auxiliary variable."""
    var: int
    kind: str                      # "pp" | "mul" | "pow"
    pp: PowerProduct = ()          # kind == "pp": the defining power product
    args: Tuple[int, ...] = ()     # "mul": (u, v); "pow": (y, n)

    def inputs(self) -> Tuple[int, ...]:
        if self.kind == "pp":
            return tuple(v for v, _ in self.pp)
        if self.kind == "mul":
            return self.args
        return (self.args[0],)


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
    user_rule_indices: List[int]
    readers: List[List[int]]
    schedule: List[int]
    branch_order: List[int]
    infeasible: bool = False


def _nonlinear(pp: PowerProduct) -> bool:
    return len(pp) > 1 or (len(pp) == 1 and pp[0][1] > 1)


class _AuxSpace:
    """Shared bookkeeping for auxiliary variables of one decomposition."""

    def __init__(self, names: List[str], domains: List[Interval]):
        self.names = names
        self.domains = domains
        self.defs: List[AuxDef] = []

    def new_var(self) -> int:
        name = "_u%d" % (len(self.defs) + 1)
        while name in self.names:
            name += "_"
        self.names.append(name)
        self.domains.append((None, None))
        return len(self.names) - 1

    def rewrite(self, c: PolynomialConstraint) -> PolynomialConstraint:
        """Replace every nonlinear power product by its auxiliary."""
        mons = tuple(
            (coeff, ((self.aux_for(pp), 1),)) if _nonlinear(pp) else (coeff, pp)
            for coeff, pp in c.monomials)
        return PolynomialConstraint(mons, c.op, c.rhs, origin=c.origin)


class _PartialRewriter(_AuxSpace):
    def __init__(self, names, domains):
        super().__init__(names, domains)
        self.by_pp: Dict[PowerProduct, int] = {}

    def aux_for(self, pp: PowerProduct) -> int:
        got = self.by_pp.get(pp)
        if got is not None:
            return got
        u = self.new_var()
        self.by_pp[pp] = u
        self.defs.append(AuxDef(u, "pp", pp=pp))
        return u

    def rewrite_duplicated(self, c: PolynomialConstraint) -> PolynomialConstraint:
        # replace only the power products involved in a repeated variable
        # occurrence, so constraints that are already simple stay intact
        counts: Dict[int, int] = {}
        for _, pp in c.monomials:
            for v, _ in pp:
                counts[v] = counts.get(v, 0) + 1
        mons = tuple(
            (coeff, ((self.aux_for(pp), 1),))
            if _nonlinear(pp) and any(counts[v] > 1 for v, _ in pp)
            else (coeff, pp)
            for coeff, pp in c.monomials)
        return PolynomialConstraint(mons, c.op, c.rhs, origin=c.origin)


class _FullRewriter(_AuxSpace):
    def __init__(self, names, domains, n_user: int, variant: str):
        super().__init__(names, domains)
        self.variant = variant
        # power product (over user variables) -> variable holding its value
        self.available: Dict[PowerProduct, int] = {}
        self.pp_of: Dict[int, PowerProduct] = {}
        for v in range(n_user):
            self.available[((v, 1),)] = v
            self.pp_of[v] = ((v, 1),)

    def _register(self, pp: PowerProduct, kind: str, args) -> int:
        u = self.new_var()
        self.available[pp] = u
        self.pp_of[u] = pp
        self.defs.append(AuxDef(u, kind, args=args))
        return u

    def _ensure_power(self, v: int, e: int) -> None:
        pp = ((v, e),)
        if pp not in self.available:
            self._register(pp, "pow", (v, e))

    def _ensure_square_chain(self, v: int, e: int) -> None:
        k = 2
        while k <= e:
            pp = ((v, k),)
            if pp not in self.available:
                base = v if k == 2 else self.available[((v, k // 2),)]
                self._register(pp, "pow", (base, 2))
            k *= 2

    def aux_for(self, target: PowerProduct) -> int:
        if not _nonlinear(target):
            return target[0][0]
        got = self.available.get(target)
        if got is not None:
            return got
        if self.variant == "fe":
            for v, e in target:
                if e >= 2:
                    self._ensure_power(v, e)
        elif self.variant == "fs":
            for v, e in target:
                self._ensure_square_chain(v, e)
        while target not in self.available:
            self._grow_towards(target)
        return self.available[target]

    def _grow_towards(self, target: PowerProduct) -> None:
        t_exp = dict(target)

        def divides(pp):
            return all(t_exp.get(v, 0) >= e for v, e in pp)

        divisors = [(pp, v) for pp, v in self.available.items() if divides(pp)]
        # candidate new sub-terms: result pp -> ("mul"/"pow", args); powers
        # are preferred over products for the same result
        cands: Dict[PowerProduct, Tuple[str, tuple]] = {}
        for i, (pa, va) in enumerate(divisors):
            for pb, vb in divisors[i:]:
                d = dict(pa)
                ok = True
                for v, e in pb:
                    ne = d.get(v, 0) + e
                    if ne > t_exp.get(v, 0):
                        ok = False
                        break
                    d[v] = ne
                if not ok:
                    continue
                res = tuple(sorted(d.items()))
                if res in self.available:
                    continue
                if res not in cands:
                    lo, hi = (va, vb) if va <= vb else (vb, va)
                    cands[res] = ("mul", (lo, hi))
        if self.variant in ("fs", "fe"):
            top = 2 if self.variant == "fs" else None
            for pa, va in divisors:
                k = 2
                while top is None or k <= top:
                    d = {v: e * k for v, e in pa}
                    if any(e > t_exp.get(v, 0) for v, e in d.items()):
                        break
                    res = tuple(sorted(d.items()))
                    if res not in self.available:
                        cands[res] = ("pow", (va, k))
                    k += 1
        best = None
        best_key = None
        for res, (kind, args) in cands.items():
            key = (sum(e for _, e in res), kind == "pow")
            if best is None or key > best_key or \
                    (key == best_key and _pp_key(res) > _pp_key(best)):
                best, best_key = res, key
        if best is None:
            raise AssertionError("no way to grow towards %r" % (target,))
        kind, args = cands[best]
        self._register(best, kind, args)


def _prune_unused(defs: List[AuxDef], users: List[Constraint],
                  names, domains, n_user: int):
    """Drop auxiliaries no user constraint depends on, compacting ids."""
    needed = set()
    for c in users:
        if isinstance(c, PolynomialConstraint):
            needed |= c.vars()
    for d in reversed(defs):
        if d.var in needed:
            needed.update(d.inputs())
    kept = [d for d in defs if d.var in needed]
    if len(kept) == len(defs):
        return defs, users, names, domains
    remap = {v: v for v in range(n_user)}
    new_names = names[:n_user]
    new_domains = domains[:n_user]
    for d in kept:
        remap[d.var] = len(new_names)
        new_names.append(names[d.var])
        new_domains.append(domains[d.var])

    def map_pp(pp):
        return tuple((remap[v], e) for v, e in pp)

    new_defs = [AuxDef(remap[d.var], d.kind, pp=map_pp(d.pp),
                       args=tuple(remap[a] for a in d.args[:1]) + d.args[1:]
                       if d.kind == "pow" else tuple(remap[a] for a in d.args))
                for d in kept]
    new_users = []
    for c in users:
        if isinstance(c, PolynomialConstraint):
            mons = tuple((coeff, map_pp(pp)) for coeff, pp in c.monomials)
            new_users.append(PolynomialConstraint(mons, c.op, c.rhs,
                                                  origin=c.origin))
        else:
            new_users.append(c)
    return new_defs, new_users, new_names, new_domains


def def_constraint(d: AuxDef) -> Constraint:
    """The constraint enforcing one auxiliary definition."""
    if d.kind == "pp":
        return PolynomialConstraint(
            ((1, ((d.var, 1),)), (-1, d.pp)), "eq", 0)
    if d.kind == "mul":
        return MultAtom(d.args[0], d.args[1], d.var)
    return PowerAtom(d.var, d.args[0], d.args[1])


def compute_aux_domains(aux_defs: Sequence[AuxDef], store,
                        ctr=None) -> None:
    """Fill in each auxiliary's domain from its definition, bottom-up."""
    for d in aux_defs:
        if d.kind == "pp":
            val = eval_monomial(1, d.pp, store, ctr)
        elif d.kind == "mul":
            val = iv.mult(store[d.args[0]], store[d.args[1]], ctr)
        else:
            val = iv.exp(store[d.args[0]], d.args[1], ctr)
        store[d.var] = val


def _generate_schedule(rules: List[Rule], user_rule_indices: List[int],
                       fwd_rule: Dict[int, int],
                       bwd_rules: Dict[int, List[int]],
                       aux_inputs: Dict[int, Tuple[int, ...]]) -> List[int]:
    schedule: List[int] = []
    aux_vars = set(fwd_rule) | set(bwd_rules)
    for f in user_rule_indices:
        rule = rules[f]
        fragment: List[int] = []
        seen = set()

        def fwd(a):
            for dep in aux_inputs.get(a, ()):
                if dep in aux_vars:
                    fwd(dep)
            ri = fwd_rule.get(a)
            if ri is not None and ri not in seen:
                seen.add(ri)
                fragment.append(ri)

        def bwd(a):
            for ri in bwd_rules.get(a, ()):
                if ri not in seen:
                    seen.add(ri)
                    fragment.append(ri)
            for dep in aux_inputs.get(a, ()):
                if dep in aux_vars:
                    bwd(dep)

        for a in sorted(v for v in rule.reads if v in aux_vars):
            fwd(a)
        fragment.append(f)
        if rule.writes in aux_vars:
            bwd(rule.writes)
        schedule.extend(fragment)
    present = set(schedule)
    for i in range(len(rules)):
        if i not in present:
            schedule.append(i)
    return schedule


def decompose(csp: CSP, variant: str, division: str = "weak",
              branch_exclude: Sequence[int] = ()) -> DecomposedCSP:
    """Rewrite a CSP for one variant and prepare its rules and schedule."""
    if variant not in VARIANTS:
        raise ValueError("unknown variant %r" % variant)
    if division not in ("weak", "strong"):
        raise ValueError("division must be 'weak' or 'strong'")
    names = list(csp.names)
    domains = list(csp.domains)
    n_user = len(names)

    infeasible = False
    kept: List[Constraint] = []
    for c in csp.constraints:
        if isinstance(c, TrivialConstraint):
            if not c.satisfied:
                infeasible = True
        else:
            kept.append(c)

    defs: List[AuxDef] = []
    if variant in ("du", "do"):
        users: List[Constraint] = kept
    else:
        if variant in ("pu", "po"):
            rw = _PartialRewriter(names, domains)
            step = rw.rewrite if variant == "pu" else rw.rewrite_duplicated
        else:
            rw = _FullRewriter(names, domains, n_user, variant)
            step = rw.rewrite
        # atomic constraints are already in final form
        users = [step(c) if isinstance(c, PolynomialConstraint) else c
                 for c in kept]
        defs = rw.defs

    defs, users, names, domains = _prune_unused(defs, users, names, domains,
                                                n_user)
    compute_aux_domains(defs, domains)

    optimized = variant == "do"
    rules: List[Rule] = []
    fwd_rule: Dict[int, int] = {}
    bwd_rules: Dict[int, List[int]] = {}
    aux_inputs: Dict[int, Tuple[int, ...]] = {}
    def_constraints: List[Constraint] = []
    for d in defs:
        dc = def_constraint(d)
        def_constraints.append(dc)
        sub_rules = build_rules([dc], division, optimized=False)
        base = len(rules)
        rules.extend(sub_rules)
        assert sub_rules[0].writes == d.var
        fwd_rule[d.var] = base
        bwd_rules[d.var] = list(range(base + 1, base + len(sub_rules)))
        aux_inputs[d.var] = d.inputs()
    user_rule_indices: List[int] = []
    for c in users:
        sub_rules = build_rules([c], division, optimized=optimized)
        user_rule_indices.extend(range(len(rules), len(rules) + len(sub_rules)))
        rules.extend(sub_rules)

    readers = readers_index(rules, len(names))
    schedule = _generate_schedule(rules, user_rule_indices, fwd_rule,
                                  bwd_rules, aux_inputs)
    excluded = set(branch_exclude)
    branch_order = [v for v in range(n_user) if v not in excluded]
    branch_order += [d.var for d in defs]

    return DecomposedCSP(
        variant=variant, division=division, names=names,
        domains=domains, n_user=n_user,
        constraints=def_constraints + users,
        aux_defs=defs, rules=rules, user_rule_indices=user_rule_indices,
        readers=readers, schedule=schedule, branch_order=branch_order,
        infeasible=infeasible)
