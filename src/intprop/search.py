"""Branch-and-propagate search over a decomposed problem.

Depth-first, leftmost-first: variables are picked in declaration order
(auxiliaries last), the chosen domain is bisected at the floor midpoint and
the lower half explored first.  Propagation runs once at the root and after
every split.  Every search-tree node is counted, including failed and
solution leaves.

One routine runs every search: it builds the statistics and the
:class:`Solver`, propagates at the root, rejects variables left unbounded,
searches, and checks every solution exactly against the constraints as
written before accepting it.  Bounds are checked once, on every branching
variable after root propagation: from there on domains only shrink, and
auxiliaries are products of user variables.

The search is one loop over an explicit stack, so its depth is limited by
memory, not by the recursion limit.  A frame is (parent store, first
position of the branching order that may be unfixed, variable, half).
Popping one restores the store, counts the node, applies the incumbent
bound, propagates, and then accepts a solution or splits; a split copies
the store once and pushes the upper half, then the lower half.

:func:`solve_all` collects what it accepts;
:func:`maximize` adds a variable equated with the objective, and each
accepted solution becomes the incumbent: the remaining search only admits
strictly larger objective values, so the incumbent sequence is strictly
increasing and the last solution is optimal.  The search never splits
the objective variable, the last user variable: propagation fixes it
once the others are fixed.

``max_nodes`` truncates a search: it stops before the node that would
exceed the budget, ``stats.complete`` is false, and both entry points
return what was found so far (for :func:`maximize`, the last incumbent, or
none).  ``time_limit`` (seconds, counted from the start of the search,
root propagation included) truncates it in the same way, before the first
node popped after the limit or at the end of the first propagation sweep
past it; the clock is read only when a limit is set.  Only a complete
search can prove that there is no solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from .decompose import DecomposedCSP, decompose
from .engine import FIXPOINT, DeadlineReached, Solver
from . import intervals as iv
from .intervals import OpCounters
from .model import CSP, Expr, Var, check_origin, normalize

Assignment = Tuple[int, ...]


class UnboundedAfterPropagation(Exception):
    """A variable kept an infinite domain, so it cannot be branched on."""

    def __init__(self, name: str):
        super().__init__("domain of %s is still unbounded after propagation"
                         % name)
        self.name = name


class Infeasible(Exception):
    """A complete maximization search, whose ``stats`` it holds, found no
    solution at all."""

    def __init__(self, stats: SearchStats):
        super().__init__("no solution satisfies the constraints")
        self.stats = stats


@dataclass
class SearchStats:
    variant: str
    division: str
    mode: str
    nvar: int = 0
    n_rules: int = 0
    nodes: int = 0
    solutions: int = 0
    drf_applications: int = 0
    drf_effective: int = 0
    counters: OpCounters = field(default_factory=OpCounters)
    complete: bool = True
    elapsed: float = 0.0
    incumbents: List[int] = field(default_factory=list)

    @property
    def percent_effective(self) -> float:
        if not self.drf_applications:
            return 0.0
        return 100.0 * self.drf_effective / self.drf_applications


def verify_solution(csp: CSP, assignment) -> bool:
    """Exact re-evaluation of every constraint as originally written."""
    return all(check_origin(c, assignment) for c in csp.constraints)


def _run_search(csp: CSP, dec: DecomposedCSP, mode: str,
                max_nodes: Optional[int], found: Callable[[List[int]], None],
                objective: Optional[int] = None,
                time_limit: Optional[float] = None) -> SearchStats:
    """Run one search (see the module docstring); ``found`` receives
    each accepted solution as the values of ``dec``'s user variables, and
    ``objective`` names the variable to maximize, if any."""
    stats = SearchStats(variant=dec.variant, division=dec.division,
                        mode=mode, nvar=len(dec.names),
                        n_rules=len(dec.rules))
    t0 = time.perf_counter()
    deadline = None if time_limit is None else t0 + time_limit
    solver = Solver(dec, mode=mode, deadline=deadline)
    stats.counters = solver.counters
    store = solver.store
    order = dec.branch_order
    n_user = dec.n_user
    incumbents = stats.incumbents

    def accept(values: List[int]) -> None:
        # explicit checks, not asserts: they must hold under python -O
        if not verify_solution(csp, values):
            raise AssertionError("propagation produced a spurious solution")
        if objective is not None:
            if incumbents and values[objective] <= incumbents[-1]:
                raise AssertionError("incumbents must increase")
            incumbents.append(values[objective])
        stats.solutions += 1
        found(values)

    stack = []
    solver.flag_all()
    try:
        if not dec.infeasible and solver.propagate() == FIXPOINT:
            for v in order:
                d = store[v]
                if d[0] is None or d[1] is None:
                    raise UnboundedAfterPropagation(dec.names[v])
            stack.append((None, 0, None, None))  # the root, propagated
        while stack:
            saved, k, v, half = stack.pop()
            if ((max_nodes is not None and stats.nodes >= max_nodes)
                    or (deadline is not None
                        and time.perf_counter() >= deadline)):
                stats.complete = False
                break
            stats.nodes += 1
            if saved is not None:
                store[:] = saved
                store[v] = half
                seeds = [v]
                failed = False
                if incumbents:
                    dc = store[objective]
                    nd = iv.intersect(dc, (incumbents[-1] + 1, None))
                    if nd != dc:
                        store[objective] = nd
                        seeds.append(objective)
                        failed = nd is None
                if failed or solver.propagate(seeds) != FIXPOINT:
                    continue
            while k < len(order) and store[order[k]][0] == store[order[k]][1]:
                k += 1
            if k == len(order):
                accept([store[v][0] for v in range(n_user)])
                continue
            v = order[k]
            lo, hi = store[v]
            mid = (lo + hi) // 2
            saved = store[:]
            stack.append((saved, k, v, (mid + 1, hi)))
            stack.append((saved, k, v, (lo, mid)))
    except DeadlineReached:
        stats.complete = False
    stats.drf_applications = solver.applications
    stats.drf_effective = solver.effective
    stats.elapsed = time.perf_counter() - t0
    return stats


def solve_all(csp: CSP, variant: str = "fe", division: str = "weak",
              mode: str = "scheduled", max_nodes: Optional[int] = None,
              collect: bool = True,
              on_solution: Optional[Callable] = None,
              dec: Optional[DecomposedCSP] = None,
              time_limit: Optional[float] = None,
              ) -> Tuple[List[Assignment], SearchStats]:
    """Enumerate every solution of the CSP (projected onto its variables).

    Each reported assignment is re-checked by exact evaluation of the
    original constraints.  Statistics cover the whole run, root
    propagation included.  ``max_nodes`` and ``time_limit`` (seconds)
    truncate the search; ``stats.complete`` then is false.
    """
    if dec is None:
        dec = decompose(csp, variant, division)
    solutions: List[Assignment] = []

    def found(values: List[int]) -> None:
        sol = tuple(values)
        if collect:
            solutions.append(sol)
        if on_solution is not None:
            on_solution(sol)

    stats = _run_search(csp, dec, mode, max_nodes, found,
                        time_limit=time_limit)
    return solutions, stats


def maximize(csp: CSP, objective: Optional[Expr] = None,
             variant: str = "fe", division: str = "weak",
             mode: str = "scheduled", max_nodes: Optional[int] = None,
             time_limit: Optional[float] = None,
             ) -> Tuple[Optional[Assignment], Optional[int], SearchStats]:
    """Find the assignment maximizing the objective, by branch and bound.

    A fresh variable is constrained equal to the objective; after every
    solution the search additionally requires the objective to exceed the
    incumbent, so solutions stream in strictly increasing objective order.
    Returns (best assignment, best value, stats), which after truncation
    by ``max_nodes`` or ``time_limit`` are the last incumbent or
    ``(None, None)``; raises :class:`Infeasible`, which carries the
    stats, when a complete search finds no solution.
    """
    if objective is None:
        objective = csp.objective
    if objective is None:
        raise ValueError("no objective given")
    work = CSP(names=list(csp.names), domains=list(csp.domains),
               constraints=list(csp.constraints))
    obj_var = work.add_var("_objective", (None, None))
    work.constraints.append(normalize(Var(obj_var), "=", objective))
    dec = decompose(work, variant, division)
    best: Optional[Assignment] = None

    def found(values: List[int]) -> None:
        nonlocal best
        best = tuple(values[:obj_var])

    stats = _run_search(csp, dec, mode, max_nodes, found, objective=obj_var,
                        time_limit=time_limit)
    if best is None:
        if stats.complete:
            raise Infeasible(stats)
        return None, None, stats
    return best, stats.incumbents[-1], stats
