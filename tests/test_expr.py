import math
import random

import numpy as np
import pytest

from pertbvp.expr import (DomainError, ExprSyntaxError, differentiate,
                          evaluate, parse, to_string)


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
        e2 = parse(to_string(parse(to_string(e))))
        for _ in range(20):
            x = rng.uniform(0.1, 2.0)
            try:
                v1 = evaluate(e, x)
            except DomainError:
                continue
            assert evaluate(e2, x) == pytest.approx(v1, rel=1e-14, abs=1e-14)


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
