"""Closed-form expressions of one variable: parsing, evaluation, differentiation.

The grammar covers exactly what coefficient functions in problem files need:
decimal literals, ``x``, ``pi``, the operators ``+ - * / ^`` and the calls
``sin cos tan exp log sqrt``.  ``^`` binds tighter than unary minus and is
right associative; everything else is left associative.

:func:`evaluate` takes a float or a numpy array of points: an array is
evaluated in one walk over the tree with numpy ufuncs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Pi",
    "Var",
    "Neg",
    "BinOp",
    "Fun",
    "ExprError",
    "ExprSyntaxError",
    "DomainError",
    "parse",
    "evaluate",
    "differentiate",
    "to_string",
]


class ExprError(Exception):
    """Base class for expression failures."""


class ExprSyntaxError(ExprError):
    """Malformed input; ``position`` is the 1-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(ExprError):
    """Evaluation outside the mathematical domain (division by zero, log of
    a non-positive number, square root of a negative number, ...)."""


class Expr:
    """Immutable AST node; concrete nodes below."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Pi(Expr):
    pass


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Fun(Expr):
    name: str  # one of sin cos tan exp log sqrt
    arg: Expr


_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # skip over whitespace-only tail
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad + 1)
        start = m.start("num") if m.group("num") else (
            m.start("ident") if m.group("ident") else m.start("op"))
        if m.group("num"):
            tokens.append(("num", float(m.group("num")), start + 1))
        elif m.group("ident"):
            tokens.append(("ident", m.group("ident"), start + 1))
        else:
            tokens.append(("op", m.group("op"), start + 1))
        pos = m.end()
    tokens.append(("end", None, n + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        if not text or text.strip() == "":
            raise ExprSyntaxError("empty expression", 1)
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        self.advance()

    # sum := term (('+'|'-') term)*
    def parse_sum(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.parse_term()
                node = BinOp(val, node, rhs)
            else:
                return node

    # term := unary (('*'|'/') unary)*
    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.parse_unary()
                node = BinOp(val, node, rhs)
            else:
                return node

    # unary := '-' unary | power     (so -x^2 parses as -(x^2))
    def parse_unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.parse_unary())
        if kind == "op" and val == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_power()

    # power := atom ('^' unary)?     (right associative)
    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expr:
        kind, val, pos = self.advance()
        if kind == "num":
            return Num(val)
        if kind == "ident":
            if val == "x":
                return Var()
            if val == "pi":
                return Pi()
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.parse_sum()
                self.expect_op(")")
                return Fun(val, arg)
            raise ExprSyntaxError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.parse_sum()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected a value", pos)


def parse(text: str) -> Expr:
    """Parse ``text`` into an AST, or raise :class:`ExprSyntaxError`."""
    p = _Parser(text)
    node = p.parse_sum()
    kind, val, pos = p.peek()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {val!r}", pos)
    return node


def evaluate(e: Expr, x):
    """Evaluate ``e`` at ``x``, a float or a numpy array, in IEEE double
    precision.

    A float gives a Python float.  An array gives a new array of its shape
    (constants included) from one walk over the tree with numpy ufuncs.

    Raises :class:`DomainError` instead of returning NaN/inf if any point is
    outside the mathematical domain (division by zero, log of a
    non-positive value, sqrt of a negative value, zero to a negative power,
    negative base with a non-integer exponent) or if a function call or a
    power overflows.  Plain ``+ - * /`` overflow gives inf.
    """
    xv = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = _walk(e, xv if xv.ndim else xv[()])
    if xv.ndim == 0:
        return float(out)
    return np.array(np.broadcast_to(out, xv.shape))


def _walk(e: Expr, x):
    if isinstance(e, Num):
        return np.float64(e.value)
    if isinstance(e, Pi):
        return np.float64(np.pi)
    if isinstance(e, Var):
        return x
    if isinstance(e, Neg):
        return -_walk(e.arg, x)
    if isinstance(e, Fun):
        v = _walk(e.arg, x)
        if e.name == "log":
            _check_domain(v <= 0.0, "log of non-positive value", v)
        if e.name == "sqrt":
            _check_domain(v < 0.0, "sqrt of negative value", v)
        return _check_range(_FUNCTIONS[e.name](v), e.name, v)
    if isinstance(e, BinOp):
        lv = _walk(e.left, x)
        rv = _walk(e.right, x)
        if e.op == "+":
            return lv + rv
        if e.op == "-":
            return lv - rv
        if e.op == "*":
            return lv * rv
        if e.op == "/":
            _check_domain(rv == 0.0, "division by zero")
            return lv / rv
        if e.op == "^":
            _check_domain((lv == 0.0) & (rv < 0.0),
                          "zero raised to a negative power")
            _check_domain((lv < 0.0) & (rv != np.trunc(rv)),
                          "negative base with non-integer exponent")
            # libm pow on every point, as Python's ``**`` on floats; np.power
            # takes SIMD and x*x shortcuts that move the last bit
            return _check_range(np.float_power(lv, rv), "power", lv, rv)
    raise TypeError(f"not an Expr node: {e!r}")


def _any(mask) -> bool:
    # numpy scalars answer .any() through a 0-d array copy; bool() is faster
    return bool(mask.any() if isinstance(mask, np.ndarray) else mask)


def _check_domain(bad, message: str, v=None) -> None:
    """Raise :class:`DomainError` if any point is ``bad``, naming the first
    offending value ``v`` when given."""
    if _any(bad):
        if v is not None:
            message = f"{message} {float(np.asarray(v)[bad][0])}"
        raise DomainError(message)


def _check_range(out, name: str, *args):
    """``out``, unless some point of it is less finite than its arguments:
    inf from finite arguments (overflow) or NaN from non-NaN ones (``sin``
    of inf).  Those are the points where the math module raises."""
    if not _any(~np.isfinite(out)):
        return out
    overflow = np.isinf(out)
    undefined = np.isnan(out)
    for arg in args:
        overflow = overflow & np.isfinite(arg)
        undefined = undefined & ~np.isnan(arg)
    if _any(overflow | undefined):
        raise DomainError(f"{name} result out of range")
    return out


def _is_literal(e: Expr) -> bool:
    return isinstance(e, Num)


# Smart constructors: fold literal subtrees, drop obvious identities.  This
# keeps derivatives readable without pretending to be a CAS.

def _neg(a: Expr) -> Expr:
    if _is_literal(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_literal(a) and _is_literal(b):
        return Num(a.value + b.value)
    if _is_literal(a) and a.value == 0.0:
        return b
    if _is_literal(b) and b.value == 0.0:
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_literal(a) and _is_literal(b):
        return Num(a.value - b.value)
    if _is_literal(b) and b.value == 0.0:
        return a
    if _is_literal(a) and a.value == 0.0:
        return _neg(b)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_literal(a) and _is_literal(b):
        return Num(a.value * b.value)
    if _is_literal(a):
        if a.value == 0.0:
            return Num(0.0)
        if a.value == 1.0:
            return b
    if _is_literal(b):
        if b.value == 0.0:
            return Num(0.0)
        if b.value == 1.0:
            return a
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_literal(b) and b.value == 1.0:
        return a
    if _is_literal(a) and a.value == 0.0:
        return Num(0.0)
    if _is_literal(a) and _is_literal(b) and b.value != 0.0:
        return Num(a.value / b.value)
    return BinOp("/", a, b)


def _pow(a: Expr, b: Expr) -> Expr:
    if _is_literal(b):
        if b.value == 0.0:
            return Num(1.0)
        if b.value == 1.0:
            return a
    if _is_literal(a) and _is_literal(b):
        return Num(a.value ** b.value)
    return BinOp("^", a, b)


def _contains_var(e: Expr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, (Num, Pi)):
        return False
    if isinstance(e, Neg):
        return _contains_var(e.arg)
    if isinstance(e, Fun):
        return _contains_var(e.arg)
    if isinstance(e, BinOp):
        return _contains_var(e.left) or _contains_var(e.right)
    raise TypeError(f"not an Expr node: {e!r}")


def differentiate(e: Expr) -> Expr:
    """Exact symbolic derivative of ``e`` with respect to ``x``."""
    if isinstance(e, (Num, Pi)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0)
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg))
    if isinstance(e, Fun):
        da = differentiate(e.arg)
        a = e.arg
        if e.name == "sin":
            outer = Fun("cos", a)
        elif e.name == "cos":
            outer = _neg(Fun("sin", a))
        elif e.name == "tan":
            outer = _div(Num(1.0), _pow(Fun("cos", a), Num(2.0)))
        elif e.name == "exp":
            outer = Fun("exp", a)
        elif e.name == "log":
            outer = _div(Num(1.0), a)
        else:  # sqrt
            outer = _div(Num(1.0), _mul(Num(2.0), Fun("sqrt", a)))
        return _mul(outer, da)
    if isinstance(e, BinOp):
        dl = differentiate(e.left)
        dr = differentiate(e.right)
        if e.op == "+":
            return _add(dl, dr)
        if e.op == "-":
            return _sub(dl, dr)
        if e.op == "*":
            return _add(_mul(dl, e.right), _mul(e.left, dr))
        if e.op == "/":
            num = _sub(_mul(dl, e.right), _mul(e.left, dr))
            return _div(num, _pow(e.right, Num(2.0)))
        if e.op == "^":
            if not _contains_var(e.right):
                # power rule: d(f^c) = c f^(c-1) f'
                return _mul(
                    _mul(e.right, _pow(e.left, _sub(e.right, Num(1.0)))), dl)
            # general case: f^g = exp(g log f)
            term1 = _mul(dr, Fun("log", e.left))
            term2 = _div(_mul(e.right, dl), e.left)
            return _mul(_pow(e.left, e.right), _add(term1, term2))
    raise TypeError(f"not an Expr node: {e!r}")


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_string(e: Expr) -> str:
    """Render ``e`` as text that reparses to an equivalent expression."""
    return _fmt(e, 0)


def _fmt(e: Expr, parent: int) -> str:
    if isinstance(e, Num):
        s = repr(e.value)
        if e.value < 0:
            return f"({s})" if parent > 0 else s
        return s
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Fun):
        return f"{e.name}({_fmt(e.arg, 0)})"
    if isinstance(e, Neg):
        prec = _PREC["neg"]
        body = f"-{_fmt(e.arg, prec)}"
        return f"({body})" if parent > prec else body
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        if e.op == "^":
            # right associative; base must bind tighter than ^ itself
            body = f"{_fmt(e.left, prec + 1)}^{_fmt(e.right, prec)}"
        else:
            # left associative: right operand rendered one level tighter
            body = f"{_fmt(e.left, prec)}{e.op}{_fmt(e.right, prec + 1)}"
        return f"({body})" if parent > prec else body
    raise TypeError(f"not an Expr node: {e!r}")
