"""Constraint model: expression trees, polynomial normal form, problem parser.

User constraints are written over +, -, * and ^ (a power is shorthand for a
repeated product).  Normalization expands everything, collects like terms
under the global variable order (declaration order), moves the constant to
the right-hand side, and eliminates strict comparisons using integrality.
The result is ``sum of monomials  op  integer`` with ``op`` one of =, <=, !=.
A product or power may expand to at most ``MAX_MONOMIALS`` monomials, and
expanding one constraint may take at most ``_MAX_PRODUCTS`` products of two
terms; the constraints of one problem file share that budget.  There are
no division or root nodes: the rules call the interval kernels directly.

A problem file (:func:`parse`) holds statements ending in ``;``, and ``#``
starts a comment that runs to the end of the line::

    var NAME in [INT..INT];     var NAME in Z;     (INT may be negative)
    constraint EXPR CMP EXPR;   CMP is one of  =  !=  <  <=  >  >=
    solve all;   or   maximize EXPR;      (at most one goal; default: all)

EXPR is made of integers (ASCII digits), variables declared earlier, binary
``+ - *``, unary ``-`` and parentheses (at most 100 deep).  ``^`` may only
follow a variable: ``x^3`` is ``x*x*x``.

The text is split into tokens by one regular-expression pass.  A token
keeps its character offset; a :class:`ParseError` works out the line and
column from it when it is raised, so the end of input sits at
``len(text)``, past a trailing comment.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from decimal import Decimal
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


class Pow(Expr):
    __slots__ = ("arg", "n")

    def __init__(self, arg: Expr, n: int):
        if n < 1:
            raise ValueError("exponent must be >= 1")
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
    """Exact integer value of an expression under a full assignment."""
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

_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}

# comparison -> (canonical op, whether to negate, bound shift): over the
# integers a < b is a - b <= -1, and a > b is b - a <= -1
_CANONICAL = {"=": ("eq", False, 0), "!=": ("ne", False, 0),
              "<=": ("le", False, 0), "<": ("le", False, 1),
              ">=": ("le", True, 0), ">": ("le", True, 1)}


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

def _poly_of(e: Expr, spent: List[int]) -> Dict[PowerProduct, int]:
    # spent[0] counts the term products formed so far (see _times)
    if isinstance(e, Var):
        return {((e.id, 1),): 1}
    if isinstance(e, Lit):
        return {(): e.value} if e.value else {}
    if isinstance(e, Neg):
        return {pp: -c for pp, c in _poly_of(e.arg, spent).items()}
    if isinstance(e, (Add, Sub)):
        out: Dict[PowerProduct, int] = {}
        for sign, term in _sum_terms(e):
            for pp, c in _poly_of(term, spent).items():
                nc = out.get(pp, 0) + sign * c
                if nc:
                    out[pp] = nc
                else:
                    out.pop(pp, None)
        return out
    if isinstance(e, Mul):
        factors = _factors(e)
        out = _poly_of(factors[0], spent)
        for factor in factors[1:]:
            out = _times(out, _poly_of(factor, spent), spent)
        return out
    if isinstance(e, Pow):
        # surface sugar: a power is a repeated product
        base = _poly_of(e.arg, spent)
        if len(base) <= 1:
            # a power of one monomial (or of 0) is one monomial
            return {tuple((v, k * e.n) for v, k in pp): c ** e.n
                    for pp, c in base.items()}
        if e.n >= MAX_MONOMIALS:
            # base**n has over n monomials: x_i = z**w_i (fast-growing w_i)
            # gives it a root z != 0 of multiplicity n; see Hajos' lemma
            raise ValueError(_TOO_MANY)
        out = base
        for _ in range(e.n - 1):
            out = _times(out, base, spent)
        return out
    raise TypeError("%s is not part of the constraint language"
                    % type(e).__name__)


def _pp_mul(p: PowerProduct, q: PowerProduct) -> PowerProduct:
    d = dict(p)
    for v, n in q:
        d[v] = d.get(v, 0) + n
    return tuple(sorted(d.items()))


# the most monomials an expansion may reach, also part way through a
# product: uncapped, a product of k sums can grow exponentially in k
MAX_MONOMIALS = 10_000
_TOO_MANY = "the expansion has more than %d monomials" % MAX_MONOMIALS


# the most term products (len(a) * len(b) per _poly_mul) one normalize call,
# or all constraints of one parse, may form: under the monomial cap, a chain
# of products still costs their sum, with coefficients growing to hundreds
# of digits
_MAX_PRODUCTS = 10 ** 6


def _times(a, b, spent: List[int]):
    spent[0] += len(a) * len(b)
    if spent[0] > _MAX_PRODUCTS:
        raise ValueError("the expansion takes more than %d term products"
                         % _MAX_PRODUCTS)
    return _poly_mul(a, b)


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
        if len(out) > MAX_MONOMIALS:
            raise ValueError(_TOO_MANY)
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


def normalize(lhs: Expr, op: str, rhs: Expr) -> Constraint:
    """Rewrite `lhs op rhs` into canonical polynomial-constraint form.

    Raises ``ValueError`` when a product or power expands to more than
    :data:`MAX_MONOMIALS` monomials, or when expanding takes more than
    ``_MAX_PRODUCTS`` term products.
    """
    return _normalize(lhs, op, rhs, [0])


def _normalize(lhs: Expr, op: str, rhs: Expr, spent: List[int]) -> Constraint:
    # spent[0]: the term products already formed against the same budget
    if op not in _COMPARE:
        raise ValueError("unknown comparison %r" % op)
    origin = (lhs, op, rhs)
    diff = _poly_of(Sub(lhs, rhs), spent)
    const = diff.pop((), 0)
    if not diff:
        return TrivialConstraint(_COMPARE[op](const, 0), origin=origin)
    op, negate, shift = _CANONICAL[op]
    if negate:
        diff = {pp: -c for pp, c in diff.items()}
        const = -const
    mons = sorted(diff.items(), key=lambda it: _pp_key(it[0]))
    return PolynomialConstraint(tuple((c, pp) for pp, c in mons), op,
                                -const - shift, origin=origin)


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

    @property
    def goal(self) -> str:
        return "all" if self.objective is None else "maximize"

    def var(self, name: str) -> int:
        return self.names.index(name)

    def add_var(self, name: str, domain: Interval) -> int:
        self.names.append(name)
        self.domains.append(domain)
        return len(self.names) - 1

    def add_constraint(self, lhs: Expr, op: str, rhs: Expr) -> None:
        self.constraints.append(normalize(lhs, op, rhs))


# ---------------------------------------------------------------------------
# parser for the problem-file grammar

class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


def _error_at(text: str, offset: int, message: str) -> ParseError:
    # 1-based line and column of a character offset, worked out only here
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


# one alternative per token kind, tried in this order at each offset:
# whitespace (these four characters only) and comments, integers (ASCII
# digits only: \d also takes other scripts' digits, which int() reads as
# their value), identifiers, symbols (longest first), and any other
# character.  [^\W\d] also takes characters such as a superscript two,
# which str.isalpha rejects, so _tokenize checks an identifier's start.
_TOKEN = re.compile(r"""
    (?P<skip>(?:[ \t\r\n]|\#[^\n]*)+)
  | (?P<int>[0-9]+)
  | (?P<ident>[^\W\d]\w*)
  | (?P<sym><=|>=|!=|\.\.|[<>=;^*+\-()\[\]])
  | (?P<bad>.)
""", re.VERBOSE)


# parentheses and unary minuses nest at most this deep: the parser, the
# normalizer and exact evaluation recurse once or a few times per level
_MAX_NESTING = 100

# the longest integer literal: CPython's default cap on int(str), fixed here
# so that what parses does not depend on the interpreter's setting
_MAX_DIGITS = 4300


def _tokenize(text: str):
    """The tokens ``(kind, value, offset)`` of a problem text, ending with
    an ``eof`` token at ``len(text)``."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        value = m.group()
        if kind == "int":
            if len(value) > _MAX_DIGITS:
                raise _error_at(text, m.start(),
                                "an integer literal has at most %d digits"
                                % _MAX_DIGITS)
            # the interpreter's cap on int(str) is at least 640 digits;
            # Decimal converts at any cap
            value = int(value) if len(value) <= 640 else int(Decimal(value))
        elif kind == "bad" or (kind == "ident" and not (
                value[0].isalpha() or value[0] == "_")):
            raise _error_at(text, m.start(),
                            "unexpected character %r" % value[0])
        tokens.append((kind, value, m.start()))
    tokens.append(("eof", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.csp = CSP(names=[], domains=[], constraints=[])
        self.index: Dict[str, int] = {}
        self.depth = 0
        self.spent = [0]        # one expansion budget for the whole file

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def error(self, msg: str, t=None) -> ParseError:
        """The error at token ``t``, by default the next one."""
        return _error_at(self.text, (t or self.peek())[2], msg)

    def expect(self, kind, value=None):
        t = self.next()
        if t[0] != kind or (value is not None and t[1] != value):
            raise self.error("expected %s" % (value or kind), t)
        return t

    def parse(self) -> CSP:
        goal_seen = False
        while True:
            t = self.peek()
            if t[0] == "eof":
                break
            if t[0] != "ident":
                raise self.error("expected a declaration, constraint or goal")
            if t[1] == "var":
                self.decl()
            elif t[1] == "constraint":
                self.constraint()
            elif t[1] in ("solve", "maximize"):
                if goal_seen:
                    raise self.error("duplicate goal")
                goal_seen = True
                self.goal()
            else:
                raise self.error("expected 'var', 'constraint', 'solve' or "
                                 "'maximize'")
        return self.csp

    def decl(self):
        self.expect("ident", "var")
        t = self.next()
        if t[0] != "ident":
            raise self.error("expected a variable name", t)
        name = t[1]
        if name in self.index:
            raise self.error("duplicate variable %r" % name, t)
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
                raise self.error("empty domain [%d..%d]" % (lo, hi), t)
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
            raise self.error("expected an integer", t)
        return -t[1] if neg else t[1]

    def constraint(self):
        start = self.expect("ident", "constraint")
        lhs = self.expr()
        t = self.next()
        if t[0] != "sym" or t[1] not in ("<", "<=", "=", "!=", ">=", ">"):
            raise self.error("expected a comparison operator", t)
        op = t[1]
        rhs = self.expr()
        self.expect("sym", ";")
        try:
            self.csp.constraints.append(_normalize(lhs, op, rhs, self.spent))
        except ValueError as e:
            raise self.error(str(e), start) from None

    def goal(self):
        t = self.next()
        if t[1] == "solve":
            self.expect("ident", "all")
        else:
            self.csp.objective = self.expr()
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
                raise self.error("parentheses and unary minuses nest deeper "
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
                raise self.error("unknown variable %r" % t[1], t)
            e: Expr = Var(self.index[t[1]])
            nt = self.peek()
            if nt[0] == "sym" and nt[1] == "^":
                self.next()
                et = self.next()
                if et[0] != "int":
                    raise self.error("expected an exponent", et)
                if et[1] < 1:
                    raise self.error("exponent must be >= 1", et)
                e = Pow(e, et[1])
            return e
        raise self.error("expected a factor", t)


def parse(text: str) -> CSP:
    """Parse a problem file into a CSP (grammar in the module docstring)."""
    return _Parser(text).parse()
