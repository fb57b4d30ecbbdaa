"""Constraint model: expression trees, polynomial normal form, problem parser.

User constraints are written over +, -, * and ^ (a power is shorthand for a
repeated product).  Normalization expands everything, collects like terms
under the global variable order (declaration order), moves the constant to
the right-hand side, and eliminates strict comparisons using integrality.
The result is ``sum of monomials  op  integer`` with ``op`` one of =, <=, !=.

Extended expressions (with /, roots and explicit powers) never appear in
parsed problems; they exist for interval evaluation inside reduction rules
and for test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .intervals import Interval

# power product: ((var_id, exponent), ...) sorted by var id, exponents >= 1
PowerProduct = Tuple[Tuple[int, int], ...]
# monomial: (coefficient, power product); coefficient never 0
MonomialT = Tuple[int, PowerProduct]


# ---------------------------------------------------------------------------
# expression trees

class Expr:
    __slots__ = ()

    def __add__(self, other):
        return Add(self, _as_expr(other))

    def __sub__(self, other):
        return Sub(self, _as_expr(other))

    def __mul__(self, other):
        return Mul(self, _as_expr(other))

    def __neg__(self):
        return Neg(self)

    def __pow__(self, n):
        return Pow(self, n)


def _as_expr(x):
    return Lit(x) if isinstance(x, int) else x


class Var(Expr):
    __slots__ = ("id",)

    def __init__(self, id: int):
        self.id = id


class Lit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg


class _Bin(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right


class Add(_Bin):
    __slots__ = ()


class Sub(_Bin):
    __slots__ = ()


class Mul(_Bin):
    __slots__ = ()


class Div(_Bin):
    """Extended form only; not part of the user constraint language."""
    __slots__ = ()


class Pow(Expr):
    __slots__ = ("arg", "n")

    def __init__(self, arg: Expr, n: int):
        if n < 1:
            raise ValueError("exponent must be >= 1")
        self.arg = arg
        self.n = n


class Root(Expr):
    """Extended form only."""
    __slots__ = ("arg", "n")

    def __init__(self, arg: Expr, n: int):
        if n < 1:
            raise ValueError("root degree must be >= 1")
        self.arg = arg
        self.n = n


def _sum_terms(e: Expr) -> List[Tuple[int, Expr]]:
    """The signed terms of a chain of ``Add``/``Sub`` nodes, leftmost first.

    The parser nests a sum of n terms n levels deep along its left
    operands, so this walks that spine in a loop rather than recursing.
    """
    terms = []
    while isinstance(e, (Add, Sub)):
        terms.append((1 if isinstance(e, Add) else -1, e.right))
        e = e.left
    terms.append((1, e))
    terms.reverse()
    return terms


def _factors(e: Expr) -> List[Expr]:
    """The factors of a chain of ``Mul`` nodes, leftmost first.

    A product of n factors nests n levels deep along its left operands, as
    a sum does, so this walks that spine in a loop too.
    """
    factors = []
    while isinstance(e, Mul):
        factors.append(e.right)
        e = e.left
    factors.append(e)
    factors.reverse()
    return factors


def eval_expr(e: Expr, values) -> int:
    """Exact integer evaluation (no Div/Root)."""
    if isinstance(e, Var):
        return values[e.id]
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Neg):
        return -eval_expr(e.arg, values)
    if isinstance(e, (Add, Sub)):
        total = 0
        for sign, term in _sum_terms(e):
            value = eval_expr(term, values)
            total = total + value if sign > 0 else total - value
        return total
    if isinstance(e, Mul):
        product = 1
        for factor in _factors(e):
            product *= eval_expr(factor, values)
        return product
    if isinstance(e, Pow):
        return eval_expr(e.arg, values) ** e.n
    raise TypeError("cannot evaluate %r exactly" % type(e).__name__)


# ---------------------------------------------------------------------------
# constraints

_COMPARE = {
    "=": lambda a, b: a == b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "!=": lambda a, b: a != b,
}


@dataclass(frozen=True)
class PolynomialConstraint:
    """Canonical form: sum of monomials `op` integer bound."""
    monomials: Tuple[MonomialT, ...]
    op: str           # "eq" | "le" | "ne"
    rhs: int
    origin: Optional[Tuple[Expr, str, Expr]] = field(default=None, compare=False)

    def vars(self) -> set:
        out = set()
        for _, pp in self.monomials:
            for v, _ in pp:
                out.add(v)
        return out

    def is_linear(self) -> bool:
        return all(len(pp) == 1 and pp[0][1] == 1 for _, pp in self.monomials)

    def render(self, names=None) -> str:
        def nm(v):
            return names[v] if names else "x%d" % v

        sym = {"eq": "=", "le": "<=", "ne": "!="}[self.op]
        parts = []
        for i, (c, pp) in enumerate(self.monomials):
            fs = ["%s^%d" % (nm(v), e) if e > 1 else nm(v) for v, e in pp]
            mag = abs(c)
            body = "*".join(fs)
            if mag != 1:
                body = "%d*%s" % (mag, body)
            if i == 0:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return "%s %s %d" % (" ".join(parts), sym, self.rhs)


@dataclass(frozen=True)
class TrivialConstraint:
    """A constraint with no variables left: always true or always false."""
    satisfied: bool
    origin: Optional[Tuple[Expr, str, Expr]] = field(default=None, compare=False)


@dataclass(frozen=True)
class MultAtom:
    """x * y = z over variable ids (full decomposition form)."""
    x: int
    y: int
    z: int


@dataclass(frozen=True)
class PowerAtom:
    """x = y ** n over variable ids, n > 1 (full decomposition form)."""
    x: int
    y: int
    n: int


Constraint = Union[PolynomialConstraint, TrivialConstraint, MultAtom, PowerAtom]


# ---------------------------------------------------------------------------
# normalization

def _poly_of(e: Expr) -> Dict[PowerProduct, int]:
    if isinstance(e, Var):
        return {((e.id, 1),): 1}
    if isinstance(e, Lit):
        return {(): e.value} if e.value else {}
    if isinstance(e, Neg):
        return {pp: -c for pp, c in _poly_of(e.arg).items()}
    if isinstance(e, (Add, Sub)):
        out: Dict[PowerProduct, int] = {}
        for sign, term in _sum_terms(e):
            for pp, c in _poly_of(term).items():
                nc = out.get(pp, 0) + sign * c
                if nc:
                    out[pp] = nc
                else:
                    out.pop(pp, None)
        return out
    if isinstance(e, Mul):
        factors = _factors(e)
        out = _poly_of(factors[0])
        for factor in factors[1:]:
            out = _poly_mul(out, _poly_of(factor))
        return out
    if isinstance(e, Pow):
        # surface sugar: a power is a repeated product
        base = _poly_of(e.arg)
        if len(base) <= 1:
            # a power of one monomial (or of 0) is one monomial
            return {tuple((v, k * e.n) for v, k in pp): c ** e.n
                    for pp, c in base.items()}
        out = base
        for _ in range(e.n - 1):
            out = _poly_mul(out, base)
        return out
    raise TypeError("%s is not part of the constraint language"
                    % type(e).__name__)


def _pp_mul(p: PowerProduct, q: PowerProduct) -> PowerProduct:
    d = dict(p)
    for v, n in q:
        d[v] = d.get(v, 0) + n
    return tuple(sorted(d.items()))


def _poly_mul(a, b):
    out: Dict[PowerProduct, int] = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            pp = _pp_mul(pa, pb)
            nc = out.get(pp, 0) + ca * cb
            if nc:
                out[pp] = nc
            else:
                out.pop(pp, None)
    return out


def _pp_key(pp: PowerProduct):
    """Canonical monomial order: by exponent vectors, larger exponents of
    lower-numbered variables first.

    A power product lists its variables in increasing order, and a
    variable it lacks has exponent 0, which sorts after every exponent it
    has; so the sparse pairs with a last element above them all compare as
    the dense vectors would, without building a vector per variable.
    """
    return tuple((v, -e) for v, e in pp) + ((math.inf,),)


def normalize(lhs: Expr, op: str, rhs: Expr, nvars: int) -> Constraint:
    """Rewrite `lhs op rhs` into canonical polynomial-constraint form.

    ``nvars`` is the number of variables; the canonical monomial order
    does not depend on it.
    """
    if op not in _COMPARE:
        raise ValueError("unknown comparison %r" % op)
    origin = (lhs, op, rhs)
    diff = _poly_of(Sub(lhs, rhs))
    const = diff.pop((), 0)
    b = -const
    neg = False
    if op == "<":
        op, b = "le", b - 1
    elif op == ">":
        op, b, neg = "le", -b - 1, True
    elif op == ">=":
        op, b, neg = "le", -b, True
    elif op == "=":
        op = "eq"
    elif op == "!=":
        op = "ne"
    else:
        op = "le"
    if neg:
        diff = {pp: -c for pp, c in diff.items()}
    if not diff:
        if op == "eq":
            sat = b == 0
        elif op == "le":
            sat = 0 <= b
        else:
            sat = b != 0
        return TrivialConstraint(sat, origin=origin)
    mons = sorted(diff.items(), key=lambda it: _pp_key(it[0]))
    return PolynomialConstraint(tuple((c, pp) for pp, c in mons), op, b,
                                origin=origin)


def constraint_to_exprs(c: PolynomialConstraint) -> Tuple[Expr, str, Expr]:
    """Render the canonical form back into expression trees."""
    total: Optional[Expr] = None
    for coeff, pp in c.monomials:
        term: Optional[Expr] = None
        for v, e in pp:
            f: Expr = Var(v)
            for _ in range(e - 1):
                f = Mul(f, Var(v))
            term = f if term is None else Mul(term, f)
        if abs(coeff) != 1:
            term = Mul(Lit(abs(coeff)), term)
        if coeff < 0:
            term = Neg(term)
        total = term if total is None else Add(total, term)
    sym = {"eq": "=", "le": "<=", "ne": "!="}[c.op]
    return (total, sym, Lit(c.rhs))


def check_origin(c: Constraint, values) -> bool:
    """Truth of the constraint as originally written (pre-normalization)."""
    origin = getattr(c, "origin", None)
    if origin is not None:
        lhs, op, rhs = origin
        return _COMPARE[op](eval_expr(lhs, values), eval_expr(rhs, values))
    return check_assignment(c, values)


def check_assignment(c: Constraint, values) -> bool:
    """Exact truth value of a constraint under a full assignment."""
    if isinstance(c, TrivialConstraint):
        return c.satisfied
    if isinstance(c, MultAtom):
        return values[c.x] * values[c.y] == values[c.z]
    if isinstance(c, PowerAtom):
        return values[c.x] == values[c.y] ** c.n
    total = 0
    for coeff, pp in c.monomials:
        t = coeff
        for v, e in pp:
            t *= values[v] ** e
        total += t
    if c.op == "eq":
        return total == c.rhs
    if c.op == "le":
        return total <= c.rhs
    return total != c.rhs


# ---------------------------------------------------------------------------
# the modelled problem

@dataclass
class CSP:
    names: List[str]
    domains: List[Interval]
    constraints: List[Constraint]
    objective: Optional[Expr] = None
    goal: str = "all"     # "all" | "maximize"

    def var(self, name: str) -> int:
        return self.names.index(name)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def add_var(self, name: str, domain: Interval) -> int:
        self.names.append(name)
        self.domains.append(domain)
        return len(self.names) - 1

    def add_constraint(self, lhs: Expr, op: str, rhs: Expr) -> None:
        self.constraints.append(normalize(lhs, op, rhs, self.nvars))


# ---------------------------------------------------------------------------
# parser for the problem-file grammar

class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


_SYMBOLS = ("<=", ">=", "!=", "..", "<", ">", "=", ";", "^", "*", "+", "-",
            "(", ")", "[", "]")


# parentheses and unary minuses nest at most this deep: the parser, the
# normalizer and exact evaluation recurse once or a few times per level
_MAX_NESTING = 100

# only ASCII digits: str.isdigit also accepts superscripts and other
# scripts' digits, which int() rejects or reads as their value
_DIGITS = "0123456789"


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", int(text[i:j]), line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(("eof", None, line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.csp = CSP(names=[], domains=[], constraints=[])
        self.index: Dict[str, int] = {}
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def error(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t[2], t[3])

    def expect(self, kind, value=None):
        t = self.next()
        if t[0] != kind or (value is not None and t[1] != value):
            raise ParseError("expected %s" % (value or kind), t[2], t[3])
        return t

    def parse(self) -> CSP:
        goal_seen = False
        while True:
            t = self.peek()
            if t[0] == "eof":
                break
            if t[0] != "ident":
                self.error("expected a declaration, constraint or goal")
            if t[1] == "var":
                self.decl()
            elif t[1] == "constraint":
                self.constraint()
            elif t[1] in ("solve", "maximize"):
                if goal_seen:
                    self.error("duplicate goal")
                goal_seen = True
                self.goal()
            else:
                self.error("expected 'var', 'constraint', 'solve' or "
                           "'maximize'")
        return self.csp

    def decl(self):
        self.expect("ident", "var")
        t = self.next()
        if t[0] != "ident":
            raise ParseError("expected a variable name", t[2], t[3])
        name = t[1]
        if name in self.index:
            raise ParseError("duplicate variable %r" % name, t[2], t[3])
        self.expect("ident", "in")
        t = self.peek()
        if t[0] == "ident" and t[1] == "Z":
            self.next()
            dom: Interval = (None, None)
        else:
            self.expect("sym", "[")
            lo = self.signed_int()
            self.expect("sym", "..")
            hi = self.signed_int()
            self.expect("sym", "]")
            if lo > hi:
                raise ParseError("empty domain [%d..%d]" % (lo, hi),
                                 t[2], t[3])
            dom = (lo, hi)
        self.expect("sym", ";")
        self.index[name] = self.csp.add_var(name, dom)

    def signed_int(self) -> int:
        t = self.peek()
        neg = False
        if t[0] == "sym" and t[1] == "-":
            self.next()
            neg = True
        t = self.next()
        if t[0] != "int":
            raise ParseError("expected an integer", t[2], t[3])
        return -t[1] if neg else t[1]

    def constraint(self):
        self.expect("ident", "constraint")
        lhs = self.expr()
        t = self.next()
        if t[0] != "sym" or t[1] not in ("<", "<=", "=", "!=", ">=", ">"):
            raise ParseError("expected a comparison operator", t[2], t[3])
        op = t[1]
        rhs = self.expr()
        self.expect("sym", ";")
        # monomial order only compares exponents of variables already
        # declared, so normalizing now is safe even if more declarations
        # follow
        self.csp.constraints.append(
            normalize(lhs, op, rhs, self.csp.nvars))

    def goal(self):
        t = self.next()
        if t[1] == "solve":
            self.expect("ident", "all")
            self.csp.goal = "all"
        else:
            self.csp.objective = self.expr()
            self.csp.goal = "maximize"
        self.expect("sym", ";")

    def expr(self) -> Expr:
        e = self.term()
        while True:
            t = self.peek()
            if t[0] == "sym" and t[1] in ("+", "-"):
                self.next()
                rhs = self.term()
                e = Add(e, rhs) if t[1] == "+" else Sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            t = self.peek()
            if t[0] == "sym" and t[1] == "*":
                self.next()
                e = Mul(e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        t = self.peek()
        if t[0] == "sym" and t[1] in ("-", "("):
            if self.depth == _MAX_NESTING:
                self.error("parentheses and unary minuses nest deeper "
                           "than %d" % _MAX_NESTING)
            self.depth += 1
            self.next()
            if t[1] == "-":
                e = Neg(self.factor())
            else:
                e = self.expr()
                self.expect("sym", ")")
            self.depth -= 1
            return e
        if t[0] == "int":
            self.next()
            return Lit(t[1])
        if t[0] == "ident":
            self.next()
            if t[1] not in self.index:
                raise ParseError("unknown variable %r" % t[1], t[2], t[3])
            e: Expr = Var(self.index[t[1]])
            nt = self.peek()
            if nt[0] == "sym" and nt[1] == "^":
                self.next()
                et = self.next()
                if et[0] != "int":
                    raise ParseError("expected an exponent", et[2], et[3])
                if et[1] < 1:
                    raise ParseError("exponent must be >= 1", et[2], et[3])
                e = Pow(e, et[1])
            return e
        raise ParseError("expected a factor", t[2], t[3])


def parse(text: str) -> CSP:
    """Parse a problem file into a CSP (see the README for the grammar)."""
    return _Parser(text).parse()
