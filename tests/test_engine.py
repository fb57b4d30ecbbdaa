import random
from types import SimpleNamespace

import pytest

from intprop import engine
from intprop.decompose import decompose
from intprop.engine import (
    FIXPOINT,
    DeadlineReached,
    PropagationLimit,
    Solver,
)
from intprop.intervals import OpCounters
from intprop.model import CSP, Lit, Mul, MultAtom, Var, normalize, parse
from intprop.rules import UNCHANGED


def triple_csp(dx, dy, dz):
    return CSP(names=["x", "y", "z"], domains=[dx, dy, dz],
               constraints=[MultAtom(0, 1, 2)])


class TestPropagate:
    def test_solves_the_multiplication_example(self):
        for mode in ("cycle", "scheduled"):
            for division in ("weak", "strong"):
                dec = decompose(triple_csp((1, 20), (9, 11), (155, 161)),
                                "du", division=division)
                s = Solver(dec, mode=mode)
                s.flag_all()
                assert s.propagate() == FIXPOINT
                assert s.store == [(16, 16), (10, 10), (160, 160)]
                assert not any(s.pending)

    def test_detects_empty_domain(self):
        csp = parse("""
            var u in [1..81]; var v in [1..81];
            constraint 100*u - 10*v = 212;
        """)
        dec = decompose(csp, "du")
        s = Solver(dec)
        s.flag_all()
        emptied = s.propagate()
        assert emptied in (0, 1)
        assert s.store[emptied] is None

    def test_no_constraints_is_a_fixpoint(self):
        csp = parse("var x in [1..5];")
        dec = decompose(csp, "du")
        s = Solver(dec)
        s.flag_all()
        assert s.propagate() == FIXPOINT
        assert s.store == [(1, 5)]
        assert s.applications == 0

    def test_fixpoint_is_closed_under_all_rules(self):
        rng = random.Random(21)
        for _ in range(60):
            doms = []
            for _ in range(3):
                a, b = sorted(rng.randint(-8, 8) for _ in range(2))
                doms.append((a, b))
            dec = decompose(triple_csp(*doms), "du",
                            division=rng.choice(["weak", "strong"]))
            s = Solver(dec, mode=rng.choice(["cycle", "scheduled"]))
            s.flag_all()
            if s.propagate() == FIXPOINT:
                for r in dec.rules:
                    assert r.apply(s.store, OpCounters(), {}) == UNCHANGED

    def test_modes_reach_the_same_fixpoint(self):
        rng = random.Random(22)
        for _ in range(40):
            nv = 3
            doms = []
            for _ in range(nv):
                a, b = sorted(rng.randint(-6, 6) for _ in range(2))
                doms.append((a, b))
            e = Mul(Var(0), Var(1))
            c1 = normalize(e, "=", Var(2))
            c2 = normalize(Var(0) + Var(1), "<=", Lit(rng.randint(-3, 6)))
            csp = CSP(names=["x", "y", "z"], domains=doms,
                      constraints=[c1, c2])
            for variant in ("du", "pu", "fm"):
                dec = decompose(csp, variant)
                results = []
                for mode in ("cycle", "scheduled"):
                    s = Solver(dec, mode=mode)
                    s.flag_all()
                    results.append((s.propagate() == FIXPOINT, s.store))
                # a genuine fixpoint is order independent; failures agree
                # as failures but may strand different partial stores
                assert results[0][0] == results[1][0]
                if results[0][0]:
                    assert results[0][1] == results[1][1]

    def test_note_change_flags_readers(self):
        csp = parse("""
            var x in [1..100]; var y in [1..100];
            constraint x^3*y - x <= 40;
        """)
        dec = decompose(csp, "pu")
        # rules: 0: u = x^3*y, 1: ->x, 2: ->y, 3: u-x<=40 ->u, 4: ->x
        for var, flagged in ((0, [0, 2, 3]),     # x changed
                             (2, [1, 2, 4]),     # u changed
                             (1, [0, 1])):       # y changed
            s = Solver(dec)
            s.note_change(var)
            assert sorted(i for i in range(5) if s.pending[i]) == flagged

    def test_step_limit_guard(self, monkeypatch):
        csp = parse("""
            var u in [1..81]; var v in [1..81];
            constraint 100*u - 10*v = 212;
        """)
        dec = decompose(csp, "du")
        monkeypatch.setattr(engine, "STEP_LIMIT", 3)
        s = Solver(dec)
        s.flag_all()
        with pytest.raises(PropagationLimit):
            s.propagate()

    def test_deadline_guard(self):
        # a deadline already past stops the run after its first sweep,
        # short of its fixpoint
        dec = decompose(parse("""
            var u in [1..81]; var v in [1..81];
            constraint 100*u - 10*v = 212;
        """), "du")
        s = Solver(dec, deadline=0.0)
        s.flag_all()
        with pytest.raises(DeadlineReached):
            s.propagate()
        assert 0 < s.applications <= len(dec.schedule)
        assert any(s.pending)

    def test_pending_flags_after_each_way_out(self, monkeypatch):
        # a fixpoint and a wipe-out (which clears every flag) leave no flag
        # set; the step limit stops a run with flags still set
        dec = decompose(triple_csp((1, 20), (9, 11), (155, 161)), "du")
        s = Solver(dec)
        s.flag_all()
        assert s.propagate() == FIXPOINT
        assert not any(s.pending)

        dec = decompose(parse("""
            var x in [1..10]; var y in [1..10]; var z in [1..10];
            constraint x + y + z = 40;
        """), "du")
        s = Solver(dec)
        s.flag_all()
        assert s.propagate() != FIXPOINT
        assert not any(s.pending)

        dec = decompose(parse("""
            var u in [1..81]; var v in [1..81];
            constraint 100*u - 10*v = 212;
        """), "du")
        monkeypatch.setattr(engine, "STEP_LIMIT", 3)
        s = Solver(dec)
        s.flag_all()
        with pytest.raises(PropagationLimit):
            s.propagate()
        assert any(s.pending)

    def test_step_limit_applies_to_one_run(self, monkeypatch):
        # the root run applies 9 rules and the run after a change 2 more:
        # a budget of 9 covers each run, though not the 11 of both
        dec = decompose(triple_csp((1, 20), (9, 11), (155, 161)), "du")
        monkeypatch.setattr(engine, "STEP_LIMIT", 9)
        s = Solver(dec)
        s.flag_all()
        assert s.propagate() == FIXPOINT
        assert s.applications == 9
        assert s.propagate([0]) == FIXPOINT
        assert s.applications == 11

    def test_a_reflagged_rule_is_applied_once(self):
        # a rule flagged several times before it runs is applied once.
        # Two writes of one sweep: rules 0 and 1 each fix one variable, and
        # rule 2 reads both
        class Fix:
            def __init__(self, var):
                self.var = var

            def apply(self, store, ctr, snaps):
                if store[self.var] == (1, 1):
                    return UNCHANGED
                store[self.var] = (1, 1)
                return self.var

        class Idle:
            calls = 0

            def apply(self, store, ctr, snaps):
                self.calls += 1
                return UNCHANGED

        idle = Idle()
        dec = SimpleNamespace(rules=[Fix(0), Fix(1), idle],
                              readers=[[2], [2]], domains=[(0, 1), (0, 1)],
                              schedule=[0, 1, 2])
        for mode in ("cycle", "scheduled"):
            idle.calls = 0
            s = Solver(dec, mode=mode)
            s.flag_all()
            assert s.propagate() == FIXPOINT
            assert s.store == [(1, 1), (1, 1)]
            assert (s.applications, s.effective, idle.calls) == (3, 2, 1)

        # an idle run at a fixpoint, seeded with one variable twice or
        # after two note_change calls of it, applies each reader once
        dec = decompose(parse("""
            var x in [1..10]; var y in [1..10]; var z in [1..10];
            constraint x*y + y*z <= 60;
            constraint x + y + z >= 4;
        """), "du")
        for mode in ("cycle", "scheduled"):
            s = Solver(dec, mode=mode)
            s.flag_all()
            assert s.propagate() == FIXPOINT
            for v in range(len(dec.domains)):
                n = len(dec.readers[v])
                before = s.applications
                assert s.propagate([v, v]) == FIXPOINT
                assert s.applications - before == n
                s.note_change(v)
                s.note_change(v)
                assert s.propagate([v]) == FIXPOINT
                assert s.applications - before == 2 * n

    def test_counters_accumulate_across_runs(self):
        dec = decompose(triple_csp((1, 20), (9, 11), (155, 161)), "du")
        s = Solver(dec)
        s.flag_all()
        s.propagate()
        total = s.counters.total()
        assert total > 0
        assert s.counters.multI > 0 and s.counters.div > 0
        s.note_change(0)
        s.propagate()
        assert s.counters.total() >= total

    def test_pending_flags_stay_a_list(self):
        why = ("pending must be a list: CPython specializes list subscripts "
               "by an int, not bytearray ones, in the propagation loop")
        dec = decompose(parse("""
            var x in [1..10]; var y in [1..10]; var z in [1..10];
            constraint x + y + z = 40;
        """), "du")
        s = Solver(dec)
        assert type(s.pending) is list, why
        s.flag_all()
        assert type(s.pending) is list, why
        flags = s.pending
        assert s.propagate() != FIXPOINT
        # a wipe-out always builds new flags
        assert s.pending is not flags
        assert type(s.pending) is list, why
