"""The package's public names and version."""

import pathlib
import re

import intprop

PUBLIC = [
    "ALL", "EMPTY", "Interval", "OpCounters",
    "CSP", "Add", "Expr", "Lit", "Mul", "MultAtom", "Neg",
    "ParseError", "PolynomialConstraint", "Pow", "PowerAtom", "Sub",
    "TrivialConstraint", "Var", "normalize", "parse", "build_rules",
    "DecomposedCSP", "decompose", "VARIANTS",
    "FIXPOINT", "PropagationLimit", "Solver",
    "Infeasible", "SearchStats", "UnboundedAfterPropagation",
    "maximize", "solve_all", "verify_solution",
]


def test_public_names_are_pinned():
    # a name used only by tests belongs in tests/, not in the public API
    assert sorted(intprop.__all__) == sorted(PUBLIC)
    assert len(set(intprop.__all__)) == len(intprop.__all__)
    for name in PUBLIC:
        assert hasattr(intprop, name), name


def test_version_matches_pyproject():
    # read with a regex: tomllib is not in Python 3.10
    text = (pathlib.Path(__file__).resolve().parents[1]
            / "pyproject.toml").read_text()
    (version,) = re.findall(r'(?m)^version\s*=\s*"([^"]+)"\s*$', text)
    assert intprop.__version__ == version
