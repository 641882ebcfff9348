"""Closed-form expressions of one variable: parsing, evaluation, differentiation.

The grammar covers exactly what coefficient functions in problem files need:
finite decimal literals, ``x``, ``pi``, ``+ - * / ^`` and the calls ``sin
cos tan exp log sqrt``, in trees at most 64 nodes deep.  ``^`` binds tighter
than unary minus and is right associative; the rest is left associative.

:func:`evaluate` takes a float or a numpy array of points: an array is
evaluated in one walk over the tree with numpy ufuncs.  :func:`differentiate`
and :func:`to_string` build and print plain trees, with no simplification
and a pair of parentheses around every operation.
"""

from __future__ import annotations

import math
import re

import numpy as np

from ._record import Record

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
    "walk",
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


class Expr(Record):
    """Immutable AST node (a :class:`~pertbvp._record.Record`); concrete
    nodes below."""

    __slots__ = ()


class Num(Expr):
    __slots__ = ("value",)  # float


class Pi(Expr):
    __slots__ = ()


class Var(Expr):
    __slots__ = ()


class Neg(Expr):
    __slots__ = ("arg",)  # Expr


class BinOp(Expr):
    __slots__ = ("op", "left", "right")  # one of + - * / ^, Expr, Expr


class Fun(Expr):
    __slots__ = ("name", "arg")  # one of sin cos tan exp log sqrt, Expr


_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}

#: the names that stand for a value rather than a function
_NAMES = {"x": Var(), "pi": Pi()}

#: the deepest tree :func:`parse` builds, in nodes from root to leaf; text
#: may nest parentheses, signs and ``^`` twice as deep, as to_string prints it
_MAX_DEPTH = 64

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])"
    r"|(?P<end>\Z)|(?P<bad>.))")


def _tokenize(text: str) -> list:
    """``(kind, value, 1-based position)`` of each token, up to ``"end"``."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = float(m[kind]) if kind == "num" else m[kind]
        pos = m.start(kind) + 1
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {value!r}", pos)
        if value == math.inf:  # a literal overflows to inf, never to NaN
            raise ExprSyntaxError(f"number {m[kind]!r} out of range", pos)
        tokens.append((kind, value, pos))
        if kind == "end":
            return tokens


def _deeper(depth: int, pos: int, limit: int = _MAX_DEPTH) -> int:
    """``depth + 1``, or :class:`ExprSyntaxError` at ``pos`` past ``limit``."""
    if depth >= limit:
        raise ExprSyntaxError(f"expression nested deeper than {limit}", pos)
    return depth + 1


def parse(text: str) -> Expr:
    """Parse ``text`` into an AST, or raise :class:`ExprSyntaxError` at the
    1-based position of the offending character or token.

    Literals must be finite; trees may be at most ``_MAX_DEPTH`` nodes deep,
    and text may nest parentheses, signs and ``^`` twice as deep.  Each rule
    returns its node with its tree's height and takes ``level``, the count
    of parentheses, signs and ``^`` around it.
    """
    tokens = _tokenize(text)[::-1]  # the next token is the last

    def take(ops):
        """The next token, consumed, if it is one of the operators ``ops``."""
        kind, value, _ = tokens[-1]
        return tokens.pop() if kind == "op" and value in ops else None

    def expect(op):
        if not take(op):
            raise ExprSyntaxError(f"expected {op!r}", tokens[-1][2])

    # sum := term (('+'|'-') term)*     term := unary (('*'|'/') unary)*
    def binary(ops, operand, level):
        node, height = operand(level)
        while op := take(ops):
            rhs, rhs_height = operand(level)
            node = BinOp(op[1], node, rhs)
            height = _deeper(max(height, rhs_height), op[2])
        return node, height

    def term(level):
        return binary("*/", unary, level)

    # unary := ('-'|'+') unary | atom ('^' unary)?
    # so -x^2 is -(x^2), and ^ is right associative
    def unary(level):
        if sign := take("+-"):
            node, height = unary(_deeper(level, sign[2], 2 * _MAX_DEPTH))
            return ((node, height) if sign[1] == "+"
                    else (Neg(node), _deeper(height, sign[2])))
        node, height = atom(level)
        if op := take("^"):
            rhs, rhs_height = unary(_deeper(level, op[2], 2 * _MAX_DEPTH))
            node = BinOp("^", node, rhs)
            height = _deeper(max(height, rhs_height), op[2])
        return node, height

    # atom := number | 'x' | 'pi' | function '(' sum ')' | '(' sum ')'
    def atom(level):
        kind, value, pos = tokens.pop()
        if kind == "num" or value in _NAMES:
            return (Num(value) if kind == "num" else _NAMES[value]), 1
        if kind == "name" and value not in _FUNCTIONS:
            raise ExprSyntaxError(f"unknown identifier {value!r}", pos)
        if kind == "name":
            expect("(")
        elif value != "(":
            raise ExprSyntaxError("expected a value", pos)
        node, height = binary("+-", term, _deeper(level, pos, 2 * _MAX_DEPTH))
        expect(")")
        if kind == "name":
            return Fun(value, node), _deeper(height, pos)
        return node, height

    if tokens[-1][0] == "end":
        raise ExprSyntaxError("empty expression", 1)
    node, _ = binary("+-", term, 0)
    kind, value, pos = tokens[-1]
    if kind != "end":
        raise ExprSyntaxError(f"unexpected trailing input {value!r}", pos)
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
    walked = walk(e, xv if xv.ndim else xv[()])
    if xv.ndim == 0:
        return float(walked)
    out = np.empty_like(xv)
    out[...] = walked  # a constant fills every point
    return out


def walk(e: Expr, x):
    """``e`` at ``x``, a float array or numpy float, as :func:`evaluate`
    computes it, with the same errors, but not copied into an array of
    ``x``'s shape: a tree without ``x`` gives a numpy scalar, which
    broadcasts to the same bits, and a bare ``x`` gives ``x`` itself, so
    the caller must not write into the result."""
    with np.errstate(all="ignore"):
        return _walk(e, x)


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
            negative = rv < 0.0
            fractional = rv != np.trunc(rv)
            # a scalar exponent rules each check in or out for every point
            array = isinstance(rv, np.ndarray)
            if array or negative:
                _check_domain((lv == 0.0) & negative,
                              "zero raised to a negative power")
            if array or fractional:
                _check_domain((lv < 0.0) & fractional,
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


#: d/da of each function, as a tree in its argument ``a``
_OUTER_DERIVATIVES = {
    "sin": lambda a: Fun("cos", a),
    "cos": lambda a: Neg(Fun("sin", a)),
    "tan": lambda a: BinOp("/", Num(1.0), BinOp("^", Fun("cos", a), Num(2.0))),
    "exp": lambda a: Fun("exp", a),
    "log": lambda a: BinOp("/", Num(1.0), a),
    "sqrt": lambda a: BinOp("/", Num(1.0),
                            BinOp("*", Num(2.0), Fun("sqrt", a))),
}


def differentiate(e: Expr) -> Expr:
    """Exact symbolic derivative of ``e`` with respect to ``x``: the plain
    tree of the textbook rules, with no folding of literals.  It is defined
    where every term of those rules is, so it is undefined wherever ``e``
    is, and also where a term multiplied by zero is (``x^0`` at 0)."""
    if isinstance(e, (Num, Pi)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0)
    if isinstance(e, Neg):
        return Neg(differentiate(e.arg))
    if isinstance(e, Fun):
        return BinOp("*", _OUTER_DERIVATIVES[e.name](e.arg),
                     differentiate(e.arg))
    if isinstance(e, BinOp):
        f, g = e.left, e.right
        df, dg = differentiate(f), differentiate(g)
        if e.op in "+-":
            return BinOp(e.op, df, dg)
        if e.op == "*":
            return BinOp("+", BinOp("*", df, g), BinOp("*", f, dg))
        if e.op == "/":
            num = BinOp("-", BinOp("*", df, g), BinOp("*", f, dg))
            return BinOp("/", num, BinOp("^", g, Num(2.0)))
        if e.op == "^":
            if not _contains_var(g):
                # power rule, valid for a negative base: d(f^c) = c f^(c-1) f'
                power = BinOp("^", f, BinOp("-", g, Num(1.0)))
                return BinOp("*", BinOp("*", g, power), df)
            # general case: f^g = exp(g log f)
            inner = BinOp("+", BinOp("*", dg, Fun("log", f)),
                          BinOp("/", BinOp("*", g, df), f))
            return BinOp("*", e, inner)
    raise TypeError(f"not an Expr node: {e!r}")


def to_string(e: Expr) -> str:
    """Render ``e`` as text with every operation and every negative literal
    in parentheses, so it needs no precedence rules: :func:`parse` maps it
    back to ``e`` when ``e`` came from :func:`parse` (a negative literal
    comes back as the negation of a positive one)."""
    if isinstance(e, Num):
        s = repr(e.value)
        return f"({s})" if s.startswith("-") else s
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return "x"
    if isinstance(e, Fun):
        return f"{e.name}({to_string(e.arg)})"
    if isinstance(e, Neg):
        return f"(-{to_string(e.arg)})"
    if isinstance(e, BinOp):
        return f"({to_string(e.left)}{e.op}{to_string(e.right)})"
    raise TypeError(f"not an Expr node: {e!r}")
