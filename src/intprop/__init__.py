"""Propagation-based solver for polynomial constraints over integer intervals."""

from .intervals import ALL, EMPTY, Interval, OpCounters
from .model import (
    CSP,
    Add,
    Expr,
    Lit,
    Mul,
    MultAtom,
    Neg,
    ParseError,
    PolynomialConstraint,
    Pow,
    PowerAtom,
    Sub,
    TrivialConstraint,
    Var,
    normalize,
    parse,
)
from .rules import build_rules
from .decompose import DecomposedCSP, decompose, VARIANTS
from .engine import FIXPOINT, PropagationLimit, Solver
from .search import (
    Infeasible,
    SearchStats,
    UnboundedAfterPropagation,
    maximize,
    solve_all,
    verify_solution,
)

__all__ = [
    "ALL", "EMPTY", "Interval", "OpCounters",
    "CSP", "Add", "Expr", "Lit", "Mul", "MultAtom", "Neg",
    "ParseError", "PolynomialConstraint", "Pow", "PowerAtom", "Sub",
    "TrivialConstraint", "Var", "normalize", "parse", "build_rules",
    "DecomposedCSP", "decompose", "VARIANTS",
    "FIXPOINT", "PropagationLimit", "Solver",
    "Infeasible", "SearchStats", "UnboundedAfterPropagation",
    "maximize", "solve_all", "verify_solution",
]

__version__ = "0.3.0"
