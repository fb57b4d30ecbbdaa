"""Propagation driver: pending-flag scheduling over a rule set.

Each rule carries a pending flag.  Applying a rule clears its flag; a rule
that shrinks a variable's domain re-flags every rule reading that variable
(possibly itself, since rules on constraints with repeated occurrences are
not idempotent).  Propagation stops when no rule is pending or a domain
empties.

Two visiting orders are supported: ``cycle`` sweeps the rules in their
construction order over and over, while ``scheduled`` sweeps a generated
sequence that interleaves forward evaluation and backward propagation of
auxiliary definitions around each user rule, so decomposed problems reach
their fixpoint with far fewer applications.  Both orders end in the same
store: the rules are contracting and monotone, so the greatest common
fixpoint is unique.

The loop is the solver's hottest path, so it does little per
application: it calls each rule through the list ``_applies`` that
:class:`Solver` builds once, in ``__init__``.  An entry is the rule's
generated kernel (:mod:`~intprop.kernels`) when one serves its shape,
bound to the rule's constants, and its bound ``apply`` otherwise.  The
pending flags are the loop's only pending state: a sweep repeats while
any flag is set, and ``any`` scans them in C once per sweep, while the
sweep itself visits every schedule position in Python.  They are a
``list`` of 0/1 ints, not a ``bytearray``: CPython 3.11+ specializes a
subscript of a list by an int, and the loop reads or writes a flag at
every schedule position it visits and for every reader it flags.  The
step budget and the deadline apply to one run of
:meth:`Solver.propagate`; both are checked once per sweep, so a run
stops at most one sweep after either.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable, Optional

from .intervals import OpCounters
from .kernels import BINDERS

FIXPOINT = -1

DEFAULT_STEP_LIMIT = 10 ** 8


class PropagationLimit(RuntimeError):
    """Raised when one propagation run applies more rules than the
    solver's ``step_limit``; applications of earlier runs do not count."""


class DeadlineReached(Exception):
    """Raised when a propagation run is still going at the solver's
    deadline; the store is left between two sweeps, short of a
    fixpoint."""


class Solver:
    """One propagation instance: rules + store + pending flags + counters
    + residue snapshots.

    Confine an instance to a single thread; independent instances are free
    to run concurrently, also when built from one decomposition: they
    share only its rules, which are immutable.  Each instance keeps the
    residue snapshots of its constraints in its own ``snaps`` dict, which
    it passes to every rule it applies, so neither its results nor its op
    counters depend on other instances.

    ``deadline``, a :func:`time.perf_counter` value or ``None``, makes
    :meth:`propagate` raise :class:`DeadlineReached` after the first sweep
    that ends at or past it.

    ``_applies`` holds, for each rule, what :meth:`propagate` calls: a
    generated kernel or the rule's bound ``apply``.  ``__init__`` looks
    each rule's class ``apply`` up in ``kernels.BINDERS``, which is keyed
    by the original ``apply`` functions, so a class whose ``apply`` has
    been replaced when the solver is built keeps the replacement (a tracer
    that patches ``apply`` sees every application).  The shapes' kernels
    are compiled once per process and shared by every solver; a shape
    compiled twice, as threads may, gives an equal kernel, so what a
    solver computes and counts does not depend on the cache.
    """

    def __init__(self, decomposed, mode: str = "scheduled",
                 step_limit: int = DEFAULT_STEP_LIMIT,
                 deadline: Optional[float] = None):
        if mode not in ("scheduled", "cycle"):
            raise ValueError("mode must be 'scheduled' or 'cycle'")
        self.rules = decomposed.rules
        get = BINDERS.get
        self._applies = [r.apply if (bind := get(type(r).apply)) is None
                         else bind(r) for r in self.rules]
        self.readers = decomposed.readers
        self.store = list(decomposed.domains)
        self.order = (decomposed.schedule if mode == "scheduled"
                      else range(len(self.rules)))
        self.counters = OpCounters()
        self.snaps = {}
        self.step_limit = step_limit
        self.deadline = deadline
        self.applications = 0
        self.effective = 0
        self.pending = [0] * len(self.rules)

    def note_change(self, var: int) -> None:
        """Flag every rule whose update depends on the variable."""
        pending = self.pending
        for r in self.readers[var]:
            pending[r] = 1

    def flag_all(self) -> None:
        self.pending = [1] * len(self.rules)

    def propagate(self, changed: Optional[Iterable[int]] = None) -> int:
        """Run to fixpoint; returns FIXPOINT or the emptied variable id.

        ``changed`` seeds the pending set with the readers of those
        variables (after branching); pass nothing to continue from the
        current flags (use :meth:`flag_all` for an initial run).  A
        wipe-out clears every pending flag, as a fixpoint does.  The run
        raises :class:`PropagationLimit` once it has applied more than
        ``step_limit`` rules, counted from its start, and
        :class:`DeadlineReached` after a sweep that ends at or past the
        deadline.
        """
        if changed is not None:
            for v in changed:
                self.note_change(v)
        applies = self._applies
        readers = self.readers
        store = self.store
        ctr = self.counters
        snaps = self.snaps
        pending = self.pending
        apps = self.applications
        eff = self.effective
        limit = apps + self.step_limit
        deadline = self.deadline
        try:
            while any(pending):
                for i in self.order:
                    if pending[i]:
                        pending[i] = 0
                        apps += 1
                        w = applies[i](store, ctr, snaps)
                        if w >= 0:
                            if store[w] is None:
                                # nothing is left to do after a wipe-out
                                self.pending = [0] * len(pending)
                                return w
                            eff += 1
                            for r in readers[w]:
                                pending[r] = 1
                if apps > limit:
                    raise PropagationLimit(
                        "more than %d rule applications" % self.step_limit)
                if deadline is not None and perf_counter() >= deadline:
                    raise DeadlineReached()
            return FIXPOINT
        finally:
            self.applications = apps
            self.effective = eff
