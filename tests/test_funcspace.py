import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from numpy.polynomial import chebyshev as cheb

from pertbvp import funcspace
from pertbvp.funcspace import (DomainMismatchError, SpectralFun,
                               SpectralError, UnresolvedError,
                               _clenshaw_curtis_weights,
                               _coeffs_from_samples, _truncate,
                               _values_at_extrema)


@pytest.fixture
def sine():
    return SpectralFun.from_function(lambda x: np.sin(math.pi * x), (0, 1))


def test_from_function_sine_degree_and_value(sine):
    assert sine.degree <= 32
    assert sine(0.5) == pytest.approx(1.0, abs=1e-13)


def test_from_function_cubic_is_exact():
    f = SpectralFun.from_function(lambda x: x * (1 - x**2), (0, 1))
    assert f.degree == 3
    for x in (0.0, 0.25, 0.9):
        assert f(x) == pytest.approx(x * (1 - x**2), abs=1e-14)


def test_from_function_constant_result():
    # a callable that returns one number for the whole grid is a constant
    f = SpectralFun.from_function(lambda x: 2.5, (0, 1))
    assert f.coeffs.tolist() == [2.5]


def test_from_function_step_unresolved():
    with pytest.raises(UnresolvedError):
        SpectralFun.from_function(lambda x: np.where(x < 0.5, 0.0, 1.0),
                                  (0, 1))


def test_tail_condition_at_construction(sine):
    # coefficients dropped by truncation were all below tolerance: refit on
    # a finer grid and compare the tail beyond the stored degree
    from pertbvp.funcspace import _coeffs_from_samples
    t = np.cos(np.pi * np.arange(65) / 64)
    c = np.abs(_coeffs_from_samples(np.sin(np.pi * 0.5 * (t + 1.0))))
    assert np.max(c[sine.degree + 1:]) <= 1e-12 * c.max()


def test_eval_reproduces_samples(sine):
    n = sine.degree
    t = np.cos(np.pi * np.arange(n + 1) / n)
    x = 0.5 * (t + 1.0)
    vals = np.sin(np.pi * x)
    scale = np.max(np.abs(vals))
    assert np.max(np.abs(sine(x) - vals)) <= 1e-12 * scale


def test_eval_examples(sine):
    assert sine(0.0) == pytest.approx(0.0, abs=1e-13)
    assert sine(1.0 / 6.0) == pytest.approx(0.5, abs=1e-12)
    sq = SpectralFun.from_function(lambda x: x * x, (0, 1))
    assert sq(0.3) == pytest.approx(0.09, abs=1e-14)


def test_eval_out_of_domain(sine):
    with pytest.raises(SpectralError):
        sine(1.5)


def test_derivative_sine(sine):
    d = sine.derivative()
    assert d(0.0) == pytest.approx(math.pi, abs=1e-11)


def test_derivative_cubic_endpoint():
    f = SpectralFun.from_function(lambda x: x * (1 - x**2), (0, 1))
    assert f.derivative()(1.0) == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_second_derivative_eigenrelation(n):
    w = n * math.pi
    f = SpectralFun.from_function(lambda x: np.sin(w * x), (0, 1))
    d2 = f.derivative().derivative()
    xs = np.linspace(0, 1, 97)
    assert np.max(np.abs(d2(xs) + w * w * f(xs))) <= 1e-9 * w * w


def test_multiply_sine_squared_integral(sine):
    prod = sine * sine
    assert prod.definite_integral() == pytest.approx(0.5, abs=1e-12)


def test_multiply_identity(sine):
    one = SpectralFun.constant(1.0, (0, 1))
    prod = sine * one
    assert len(prod.coeffs) == len(sine.coeffs)
    assert np.max(np.abs(prod.coeffs - sine.coeffs)) <= 1e-14


def test_multiply_linear():
    lin = SpectralFun.from_function(lambda x: x, (0, 1))
    sq = lin * lin
    xs = np.linspace(0, 1, 33)
    assert np.max(np.abs(sq(xs) - xs**2)) <= 1e-14


def test_multiply_commutative(sine):
    g = SpectralFun.from_function(lambda x: np.exp(x), (0, 1))
    left = sine * g
    right = g * sine
    scale = np.max(np.abs(left.coeffs))
    n = min(len(left.coeffs), len(right.coeffs))
    assert np.max(np.abs(left.coeffs[:n] - right.coeffs[:n])) <= 1e-14 * scale


def test_multiply_domain_mismatch(sine):
    other = SpectralFun.constant(1.0, (0, 2))
    with pytest.raises(DomainMismatchError):
        sine * other


def test_cumulative_integral_cosine():
    f = SpectralFun.from_function(lambda x: np.cos(math.pi * x), (0, 1))
    F = f.cumulative_integral()
    assert F(0.0) == pytest.approx(0.0, abs=1e-14)
    assert F(0.5) == pytest.approx(1.0 / math.pi, abs=1e-12)


def test_cumulative_integral_constant():
    F = SpectralFun.constant(1.0, (0.25, 2.0)).cumulative_integral()
    for x in (0.25, 0.7, 2.0):
        assert F(x) == pytest.approx(x - 0.25, abs=1e-14)


def test_cumulative_integral_sine_squared():
    f = SpectralFun.from_function(lambda x: 2 * np.sin(math.pi * x) ** 2, (0, 1))
    assert f.cumulative_integral()(1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_definite_integral_sine_squared(n):
    f = SpectralFun.from_function(
        lambda x: 2 * np.sin(n * math.pi * x) ** 2, (0, 1))
    assert f.definite_integral() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_definite_integral_x_times_cosine_gap(n):
    # int_0^1 x (1 - cos(2 n pi x)) dx = 1/2 by termwise antiderivatives
    f = SpectralFun.from_function(
        lambda x: x * (1 - np.cos(2 * n * math.pi * x)), (0, 1))
    assert f.definite_integral() == pytest.approx(0.5, abs=1e-12)


def test_definite_integral_polynomial():
    # int_0^1 x^2 (1 - x^2)^2 dx = 1/3 - 2/5 + 1/7 = 8/105 termwise
    f = SpectralFun.from_function(lambda x: x**2 * (1 - x**2) ** 2, (0, 1))
    assert f.definite_integral() == pytest.approx(8.0 / 105.0, abs=1e-13)


# ----------------------------------------------------------------------
# invariants
# ----------------------------------------------------------------------

def test_derivative_inverts_cumulative_integral():
    rng = random.Random(5)
    f = SpectralFun.from_function(
        lambda x: np.exp(x) * np.sin(3 * x) + x**2, (0, 1.5))
    g = f.cumulative_integral().derivative()
    bound = 1e-10 * (1.0 + f.sup_norm())
    for _ in range(50):
        x = rng.uniform(0, 1.5)
        assert abs(g(x) - f(x)) <= bound


def test_definite_equals_cumulative_at_right_end():
    f = SpectralFun.from_function(lambda x: np.cos(2 * x) + x, (0, 2))
    total = f.definite_integral()
    assert total == pytest.approx(f.cumulative_integral()(2.0),
                                  rel=1e-13, abs=1e-13)


def test_serialization_roundtrip(sine):
    data = sine.to_dict()
    assert data["domain"] == [0.0, 1.0]
    back = SpectralFun.from_dict(data)
    assert np.array_equal(back.coeffs, sine.coeffs)


@pytest.mark.parametrize("size", [17, 18, 33, 100, 257, 1025, 4097, 16385])
def test_coeffs_from_samples_bit_identical_to_scipy_dct(size):
    from scipy.fft import dct  # reference only
    rng = np.random.default_rng(size)
    for scale in (1e-6, 1.0, 1e6):
        values = scale * rng.standard_normal(size)
        expected = dct(values, type=1) / (size - 1)
        expected[0] *= 0.5
        expected[-1] *= 0.5
        assert np.array_equal(_coeffs_from_samples(values), expected)


def _coefficient_arrays(seed, count=80):
    """Random float coefficient arrays of length 1-600: mixed scales,
    interior and trailing zeros, plus all-zero and single coefficients."""
    rng = np.random.default_rng(seed)
    out = [np.zeros(1), np.zeros(7), np.array([2.5]), np.array([-0.0]),
           np.array([0.0, 0.0, 1e-300]), np.array([3.0, 0.0, 0.0])]
    for _ in range(count):
        c = rng.standard_normal(rng.integers(1, 601))
        c *= 10.0 ** rng.uniform(-8, 8, len(c))
        c[rng.random(len(c)) < 0.1] = 0.0
        if rng.random() < 0.3:
            c[len(c) - rng.integers(1, 6):] = 0.0
        out.append(c)
    return out


def _same_bits(a, b):
    return (np.array_equal(a, b) and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def _padded_gap(got, expected):
    """Largest difference of two coefficient arrays, the shorter padded."""
    gap = np.zeros(max(len(got), len(expected)))
    gap[:len(got)] += got
    gap[:len(expected)] -= expected
    return np.max(np.abs(gap))


def test_product_matches_chebmul():
    # the grid product against numpy's z-series product, on arrays with
    # all-zero, -0.0, tiny and trailing-zero entries
    arrays = _coefficient_arrays(11)
    rng = np.random.default_rng(12)
    pairs = [(c, arrays[i]) for c, i in
             zip(arrays, rng.integers(0, len(arrays), len(arrays)))]
    pairs += [(c, c) for c in arrays[:10]]
    for c1, c2 in pairs:
        got = (SpectralFun((0, 1), c1) * SpectralFun((0, 1), c2)).coeffs
        bound = 1e-14 * np.sum(np.abs(c1)) * np.sum(np.abs(c2))
        assert _padded_gap(got, cheb.chebmul(c1, c2)) <= bound


@pytest.mark.parametrize("domain", [(0.0, 1.0), (-3.0, 7.5), (1e6, 1e6 + 1)])
def test_cumulative_integral_matches_chebint(domain):
    a, b = domain
    for c in _coefficient_arrays(13):
        expected = cheb.chebint(c, lbnd=-1, scl=0.5 * (b - a))
        got = SpectralFun(domain, c).cumulative_integral().coeffs
        bound = 1e-15 * (b - a) * np.sum(np.abs(c))
        assert _padded_gap(got, expected) <= bound
        assert abs(cheb.chebval(-1.0, got)) <= bound


def test_values_at_extrema_inverts_coeffs_from_samples():
    rng = np.random.default_rng(3)
    for n in (2, 16, 95, 256):
        coeffs = rng.standard_normal((4, n))
        values = _values_at_extrema(coeffs, n)
        t = np.cos(np.pi * np.arange(n + 1) / n)
        for row, c in zip(values, coeffs):
            assert np.max(np.abs(row - cheb.chebval(t, c))) <= 1e-13 * n
            back = _coeffs_from_samples(row)
            assert np.max(np.abs(back[:n] - c)) <= 1e-14 * n
            assert abs(back[n]) <= 1e-14 * n


@pytest.mark.parametrize("n", [2, 4, 16, 94, 500])
def test_clenshaw_curtis_weights_integrate_chebyshev_polynomials(n):
    w = _clenshaw_curtis_weights(n)
    t = np.cos(np.pi * np.arange(n + 1) / n)
    assert abs(np.sum(w) - 2.0) <= 1e-14
    assert np.all(w > 0.0)
    for k in range(n + 2):  # exact through degree n + 1 for even n
        exact = 2.0 / (1.0 - k * k) if k % 2 == 0 else 0.0
        assert abs(w @ np.cos(k * np.arccos(t)) - exact) <= 1e-16 * n + 1e-15


def test_from_function_is_the_array_sampler_loop():
    with pytest.raises(UnresolvedError):
        SpectralFun.from_function(lambda x: np.where(x < 0.5, 0.0, 1.0),
                                  (0, 1))
    with pytest.raises(UnresolvedError):
        SpectralFun.from_function(lambda x: np.where(x > 0.5, np.inf, x),
                                  (0, 1))


def test_non_finite_coefficients_raise_instead_of_vanishing():
    f = SpectralFun((0, 1), [1e300, 1e300])
    with np.errstate(over="ignore"), pytest.raises(SpectralError):
        f * f
    for bad in ([1.0, np.inf], [np.nan, 1.0], [-np.inf]):
        with pytest.raises(SpectralError, match="not finite"):
            _truncate(np.array(bad))


def test_one_fault_policy():
    # the kernels that let an overflow through as inf or NaN all take
    # funcspace._QUIET; expr ignores every fault, since it checks its
    # domains itself
    assert funcspace._QUIET == dict(over="ignore", invalid="ignore")
    spelled = [path.name
               for path in Path(funcspace.__file__).parent.glob("*.py")
               if path.name != "funcspace.py"
               and re.search(r"over\s*=\s*[\"']ignore", path.read_text())]
    assert spelled == []
