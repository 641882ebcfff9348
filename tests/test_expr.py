import math
import random

import numpy as np
import pytest

from pertbvp import expr as ex
from pertbvp.expr import (BinOp, DomainError, ExprSyntaxError, Neg, Num, Var,
                          differentiate, evaluate, parse, to_string)


def test_parse_polynomial_coefficient():
    e = parse("3*x^2/5")
    assert evaluate(e, 1.0) == pytest.approx(0.6)
    assert evaluate(e, 2.0) == pytest.approx(2.4)


def test_parse_sine_with_pi():
    e = parse("sin(pi*x)")
    assert evaluate(e, 0.5) == pytest.approx(1.0)


def test_parse_error_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("2*")
    assert exc.value.position == 3


def test_parse_empty():
    with pytest.raises(ExprSyntaxError):
        parse("   ")


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError, match="unknown identifier"):
        parse("2*y")


def test_unbalanced_paren_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("sin(x")
    assert exc.value.position == 6


def test_precedence_and_associativity():
    assert evaluate(parse("2+3*4"), 0.0) == 14.0
    assert evaluate(parse("2-3-4"), 0.0) == -5.0
    assert evaluate(parse("2^3^2"), 0.0) == 512.0  # right assoc
    assert evaluate(parse("8/4/2"), 0.0) == 1.0    # left assoc
    # ^ binds tighter than unary minus
    assert evaluate(parse("-2^2"), 0.0) == -4.0
    assert evaluate(parse("(-2)^2"), 0.0) == 4.0


def test_unary_plus_is_no_node():
    assert parse("+x") == Var()
    assert parse("-+-x") == Neg(Neg(Var()))
    assert parse("2*+3") == BinOp("*", Num(2.0), Num(3.0))


@pytest.mark.parametrize("text, message, position", [
    ("2 3", "unexpected trailing input 3.0", 3),
    ("x)", "unexpected trailing input ')'", 2),
    ("x y", "unexpected trailing input 'y'", 3),
    ("x @", "unexpected character '@'", 3),
    ("1.5e", "unexpected trailing input 'e'", 4),
    ("sin x", "expected '('", 5),
    ("\t \n", "empty expression", 1),
])
def test_syntax_error_message_and_position(text, message, position):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def test_whitespace_insignificant():
    assert evaluate(parse(" 1 +  2 * x "), 3.0) == evaluate(parse("1+2*x"), 3.0)


def test_eval_basic():
    assert evaluate(parse("x^2"), 2.0) == 4.0
    assert evaluate(parse("6*x/5"), 1.0) == pytest.approx(1.2)


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("1/x"), 0.0)
    with pytest.raises(DomainError):
        evaluate(parse("log(x)"), -1.0)
    with pytest.raises(DomainError):
        evaluate(parse("log(x)"), 0.0)
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x)"), -4.0)
    with pytest.raises(DomainError):
        evaluate(parse("x^(-1)"), 0.0)


def test_differentiate_sine():
    d = differentiate(parse("sin(pi*x)"))
    for x in (0.0, 0.3, 0.77, 1.0):
        assert evaluate(d, x) == pytest.approx(math.pi * math.cos(math.pi * x),
                                               rel=1e-12, abs=1e-12)


def test_differentiate_power():
    d = differentiate(parse("x^3"))
    for x in (-1.5, 0.0, 2.0):
        assert evaluate(d, x) == pytest.approx(3 * x * x, rel=1e-12, abs=1e-12)


def test_differentiate_exp_chain():
    d = differentiate(parse("exp(2*x)"))
    assert evaluate(d, 0.0) == pytest.approx(2.0)


def test_differentiate_quotient_and_log():
    d = differentiate(parse("log(x)/x"))
    x = 2.0
    assert evaluate(d, x) == pytest.approx((1 - math.log(x)) / x**2, rel=1e-12)


def test_differentiate_general_power():
    # x^x needs the exp(g log f) branch
    d = differentiate(parse("x^x"))
    x = 1.7
    exact = x**x * (math.log(x) + 1.0)
    assert evaluate(d, x) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("text, exact", [
    ("x^(2*x)", lambda x: x ** (2 * x) * (2 * math.log(x) + 2)),
    ("x^sin(x)", lambda x: x ** math.sin(x)
     * (math.cos(x) * math.log(x) + math.sin(x) / x)),
    ("x^(-x)", lambda x: -x ** -x * (math.log(x) + 1)),
])
def test_differentiate_variable_exponents(text, exact):
    # exponents holding x through a product, a call and a sign
    d = differentiate(parse(text))
    for x in (0.4, 1.0, 1.7):
        assert evaluate(d, x) == pytest.approx(exact(x), rel=1e-12)
        assert evaluate(d, x) == pytest.approx(_fd(parse(text), x), rel=1e-8)


# ----------------------------------------------------------------------
# randomized properties
# ----------------------------------------------------------------------

_FUNCS = ["sin", "cos", "tan", "exp", "log", "sqrt"]


def _random_expr(rng, depth):
    """Small generator grammar over the full node set."""
    if depth == 0:
        return rng.choice([
            lambda: f"{rng.uniform(0.5, 3.0):.4f}",
            lambda: "x",
            lambda: "pi",
        ])()
    roll = rng.random()
    sub = lambda: _random_expr(rng, depth - 1)
    if roll < 0.5:
        op = rng.choice(["+", "-", "*", "/"])
        return f"({sub()}{op}{sub()})"
    if roll < 0.65:
        return f"({sub()})^{rng.randint(1, 3)}"
    if roll < 0.8:
        return f"(-{sub()})"
    fn = rng.choice(_FUNCS)
    if fn in ("log", "sqrt"):
        # keep the argument positive
        return f"{fn}(1.5+({sub()})^2)"
    return f"{fn}({sub()})"


def _fd(e, x, h=1e-5):
    return (evaluate(e, x + h) - evaluate(e, x - h)) / (2 * h)


def test_derivative_matches_finite_difference():
    rng = random.Random(20240817)
    checked = 0
    while checked < 100:
        text = _random_expr(rng, rng.randint(1, 3))
        e = parse(text)
        d = differentiate(e)
        hits = 0
        for _ in range(10):
            x = rng.uniform(0.1, 2.0)
            try:
                v = evaluate(e, x)
                exact = evaluate(d, x)
                approx = _fd(e, x)
                coarse = _fd(e, x, 1e-4)
            except DomainError:
                continue
            if not (math.isfinite(v) and math.isfinite(exact)) or abs(v) > 1e4:
                continue
            # only trust the stencil where it is self-consistent
            if abs(coarse - approx) > 0.5e-5 * (1.0 + abs(v)):
                continue
            assert abs(exact - approx) <= 1e-5 * (1.0 + abs(v)), text
            hits += 1
        if hits:
            checked += 1


def test_roundtrip_print_parse():
    rng = random.Random(99)
    for _ in range(50):
        text = _random_expr(rng, rng.randint(1, 3))
        e = parse(text)
        assert parse(to_string(e)) == e, text
        assert to_string(parse(to_string(e))) == to_string(e), text
        e2 = parse(to_string(parse(to_string(e))))
        for _ in range(20):
            x = rng.uniform(0.1, 2.0)
            try:
                v1 = evaluate(e, x)
            except DomainError:
                continue
            assert evaluate(e2, x) == pytest.approx(v1, rel=1e-14, abs=1e-14)


def test_derivative_trees_print_and_reparse():
    rng = random.Random(5)
    for _ in range(50):
        d = differentiate(parse(_random_expr(rng, rng.randint(1, 3))))
        assert parse(to_string(d)) == d


def test_negative_literals_print_in_parentheses():
    assert to_string(Num(-1.5)) == "(-1.5)"
    assert to_string(Num(-0.0)) == "(-0.0)"
    square = BinOp("^", Num(-2.0), Num(2.0))
    assert to_string(square) == "((-2.0)^2.0)"
    assert evaluate(parse(to_string(square)), 0.0) == 4.0
    assert to_string(parse("-x^2-3*x/5")) == "((-(x^2.0))-((3.0*x)/5.0))"


def test_derivative_is_undefined_where_the_expression_is():
    # the derivative of the undefined constant 1/(pi-pi) is not 0
    d = differentiate(parse("x + 1/(pi-pi)"))
    with pytest.raises(DomainError):
        evaluate(d, 0.5)
    # a literal base builds its tree too, and raises only when evaluated
    d = differentiate(parse("0^0.5"))
    with pytest.raises(DomainError):
        evaluate(d, 1.0)


# ----------------------------------------------------------------------
# array evaluation
# ----------------------------------------------------------------------

#: the expressions of the tests above, plus 50 drawn from the generator
_CORPUS = ["3*x^2/5", "sin(pi*x)", "2+3*4", "2-3-4", "2^3^2", "8/4/2",
           "-2^2", "(-2)^2", " 1 +  2 * x ", "x^2", "6*x/5", "1/x",
           "log(x)", "sqrt(x)", "x^(-1)", "x^3", "exp(2*x)", "log(x)/x",
           "x^x"]
_rng = random.Random(99)
_CORPUS += [_random_expr(_rng, _rng.randint(1, 3)) for _ in range(50)]
_POINTS = np.linspace(0.1, 2.0, 39)


@pytest.mark.parametrize("text", _CORPUS)
def test_array_evaluation_matches_scalar(text):
    e = parse(text)
    scalar = []
    for x in _POINTS:
        try:
            scalar.append(evaluate(e, float(x)))
        except DomainError:
            with pytest.raises(DomainError):
                evaluate(e, _POINTS)
            return
    assert all(type(v) is float for v in scalar)
    values = evaluate(e, _POINTS)
    assert isinstance(values, np.ndarray) and values.shape == _POINTS.shape
    np.testing.assert_allclose(values, scalar, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("text, bad", [
    ("1/x", 0.0),          # division by zero
    ("log(x)", 0.0),       # log of a non-positive value
    ("log(x)", -1.0),
    ("sqrt(x)", -4.0),     # sqrt of a negative value
    ("x^(-1)", 0.0),       # zero to a negative power
    ("x^0.5", -2.0),       # negative base, non-integer exponent
])
def test_array_with_one_bad_point_raises(text, bad):
    xs = np.linspace(1.0, 2.0, 9)
    assert np.all(np.isfinite(evaluate(parse(text), xs)))
    xs[5] = bad
    with pytest.raises(DomainError):
        evaluate(parse(text), xs)


@pytest.mark.parametrize("text, low, bad", [
    ("x^-1", 1.0, 0.0),        # a scalar exponent: zero to a negative power
    ("(x-2)^0.5", 3.0, 1.0),   # a scalar exponent: negative base
    ("x^(x-1)", 1.0, 0.0),     # an array exponent, negative at x = 0
    ("(x-2)^x", 3.0, 1.5),     # an array exponent, fractional at x = 1.5
])
def test_power_domain_errors_on_arrays(text, low, bad):
    # a scalar exponent decides each check once for every point; an array
    # exponent is checked point by point
    e = parse(text)
    xs = np.linspace(low, low + 1.0, 9)
    assert np.all(np.isfinite(evaluate(e, xs)))
    xs[4] = bad
    with pytest.raises(DomainError):
        evaluate(e, xs)
    with pytest.raises(DomainError):
        evaluate(e, bad)


def test_power_with_a_scalar_exponent_keeps_its_values():
    # the checks a scalar exponent rules out change no value
    xs = np.linspace(-2.0, 2.0, 41)
    for text in ("x^2", "x^3", "x^-2", "x^0"):
        values = evaluate(parse(text), xs[xs != 0.0])
        assert values.tobytes() == np.float_power(
            xs[xs != 0.0], float(text[2:])).tobytes()
    positive = xs[xs > 0.0]
    assert evaluate(parse("x^0.5"), positive).tobytes() == np.float_power(
        positive, 0.5).tobytes()


@pytest.mark.parametrize("text, x", [("exp(x)", 800.0), ("x^400", 10.0),
                                     ("tan(x*1e308*10)", 1.0)])
def test_function_or_power_overflow_raises(text, x):
    e = parse(text)
    with pytest.raises(DomainError):
        evaluate(e, x)
    with pytest.raises(DomainError):
        evaluate(e, np.array([1.0, x]))


def test_plain_arithmetic_overflow_is_inf():
    e = parse("x*1e308*10 - x")
    assert evaluate(e, 1.0) == math.inf
    assert list(evaluate(e, np.array([1.0, -1.0]))) == [math.inf, -math.inf]
    # a function of an already infinite value passes it on, as math does
    assert evaluate(parse("exp(x*1e308*10)"), 1.0) == math.inf


def test_constant_expression_returns_array_of_input_shape():
    xs = np.zeros((3, 4))
    for text in ("2*pi", "x"):
        values = evaluate(parse(text), xs)
        assert values.shape == (3, 4)
        assert values is not xs
    assert np.all(evaluate(parse("2*pi"), xs) == 2 * math.pi)
    assert type(evaluate(parse("2*pi"), 0.5)) is float


# ----------------------------------------------------------------------
# finite literals and the depth limit
# ----------------------------------------------------------------------

@pytest.mark.parametrize("text, position", [
    ("1e999", 1), ("2*1e400", 3), ("x+" + "9" * 400, 3), ("1e999 @", 1)])
def test_overflowing_literal_is_a_syntax_error(text, position):
    with pytest.raises(ExprSyntaxError, match="out of range") as exc:
        parse(text)
    assert exc.value.position == position


def test_underflowing_literal_is_zero():
    assert parse("1e-999") == Num(0.0)


_D = ex._MAX_DEPTH


def _shapes(depth, nest):
    """Trees ``depth`` nodes deep, and text nesting ``nest`` parentheses or
    unary plus signs around ``x``."""
    return {
        "sum": "x" + "+x" * (depth - 1),
        "parentheses": "(" * nest + "x" + ")" * nest,
        "minus": "-" * (depth - 1) + "x",
        "plus": "+" * nest + "x",
        "power": "x" + "^x" * (depth - 1),
        "calls": "sin(" * (depth - 1) + "x" + ")" * (depth - 1),
        "left powers": "(" * (depth - 1) + "x" + "^x)" * (depth - 1),
    }


@pytest.mark.parametrize("shape", sorted(_shapes(_D, 2 * _D)))
def test_trees_at_the_depth_limit_parse_and_walk(shape):
    e = parse(_shapes(_D, 2 * _D)[shape])
    assert math.isfinite(evaluate(e, 1.0))
    assert math.isfinite(evaluate(differentiate(e), 1.0))
    assert np.all(np.isfinite(evaluate(differentiate(e), np.ones(3))))
    assert parse(to_string(e)) == e


@pytest.mark.parametrize("shape, position", [
    ("sum", 2 * _D), ("parentheses", 2 * _D + 1), ("minus", 1),
    ("plus", 2 * _D + 1), ("power", 2), ("calls", 1),
    ("left powers", 4 * _D - 1)])
def test_one_past_the_depth_limit_is_a_syntax_error(shape, position):
    # a sum grows at its last operator; nested nodes are built inside out
    text = _shapes(_D + 1, 2 * _D + 1)[shape]
    with pytest.raises(ExprSyntaxError, match="nested deeper than") as exc:
        parse(text)
    assert exc.value.position == position


@pytest.mark.parametrize("text", [
    "x" + "+x" * 2999, "(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x",
    "+" * 3000 + "x", "x" + "^x" * 3000, "sin(" * 3000 + "x" + ")" * 3000])
def test_very_deep_input_is_a_syntax_error(text):
    with pytest.raises(ExprSyntaxError, match="nested deeper than"):
        parse(text)


def test_degree_30_polynomials_parse():
    coeffs = [k + 1.0 for k in range(31)]
    expanded = "+".join(f"{c}*x^{k}" for k, c in enumerate(coeffs))
    horner = "+x*(".join(str(c) for c in coeffs) + ")" * 30
    for text in (expanded, horner):
        assert evaluate(parse(text), 0.5) == pytest.approx(
            np.polynomial.polynomial.polyval(0.5, coeffs), rel=1e-14)
