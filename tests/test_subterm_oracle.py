"""The sub-term search of the full decompositions against the one it
replaced.

``decompose._SubTerms.define`` tests every pair of the target's divisors
on its first step only, and on each later step the pairs with (and the
powers of) the sub-term it made last.  The oracle below is the class as
it was before: every step rebuilds a table of the candidates of every
pair and every power of the divisors, then takes the best.  Both must
make the same sub-terms, with the same arguments and in the same order,
for sequences of targets that share one table, under ``fm``, ``fs`` and
``fe``.
"""

import random

import pytest

from intprop.decompose import _SubTerms
from intprop.model import _pp_key


class SubTermsOracle:
    def __init__(self, variant):
        self.variant = variant
        self.made = {}
        self.pairs = 0

    def define(self, target):
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
        while target not in self.made:
            self._grow_towards(target)

    def _grow_towards(self, target):
        t_exp = dict(target)

        def divides(pp):
            return all(t_exp.get(v, 0) >= e for v, e in pp)

        divisors = [((v, 1),) for v, _ in target]
        divisors += [pp for pp in self.made if divides(pp)]
        n = len(divisors)
        self.pairs += n * (n + 1) // 2
        cands = {}
        for i, pa in enumerate(divisors):
            for pb in divisors[i:]:
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
                if res in self.made:
                    continue
                if res not in cands:
                    cands[res] = ("mul", (pa, pb))
        if self.variant in ("fs", "fe"):
            top = 2 if self.variant == "fs" else None
            for pa in divisors:
                k = 2
                while top is None or k <= top:
                    d = {v: e * k for v, e in pa}
                    if any(e > t_exp.get(v, 0) for v, e in d.items()):
                        break
                    res = tuple(sorted(d.items()))
                    if res not in self.made:
                        cands[res] = ("pow", (pa, k))
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
        self.made[best] = cands[best]


def random_targets(rng):
    """1-5 nonlinear targets over variables 0..7, each with 1-7 variables
    and exponents from {1, 2, 3, 4, 5, 8}."""
    targets = []
    n = rng.randint(1, 5)
    while len(targets) < n:
        vs = sorted(rng.sample(range(8), rng.randint(1, 7)))
        target = tuple((v, rng.choice((1, 2, 3, 4, 5, 8))) for v in vs)
        if len(target) > 1 or target[0][1] > 1:
            targets.append(target)
    return targets


@pytest.mark.parametrize("variant", ["fm", "fs", "fe"])
def test_same_sub_terms_as_the_oracle(variant):
    rng = random.Random({"fm": 1501, "fs": 1502, "fe": 1503}[variant])
    for _ in range(100):
        targets = random_targets(rng)
        got, want = _SubTerms(variant), SubTermsOracle(variant)
        for target in targets:
            got.define(target)
            want.define(target)
        assert list(got.made.items()) == list(want.made.items()), targets
        assert got.pairs <= want.pairs, targets


@pytest.mark.parametrize("variant", ["fm", "fs", "fe"])
def test_pairs_of_a_product_of_distinct_variables(variant):
    # 741 pairs at 20 factors and 3,081 at 40, where the oracle tests
    # 8,550 and 71,500
    for k in (2, 3, 5, 20, 40):
        got = _SubTerms(variant)
        got.define(tuple((v, 1) for v in range(k)))
        assert got.pairs == (k - 1) * (2 * k - 1)
    want = SubTermsOracle(variant)
    want.define(tuple((v, 1) for v in range(20)))
    assert want.pairs == 8550
    got = _SubTerms(variant)
    got.define(tuple((v, 1) for v in range(20)))
    assert list(got.made.items()) == list(want.made.items())
