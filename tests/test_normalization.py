"""Normalization coefficients N_j against two references.

* the pairwise route the engine used before the Gram matrix: one Chebyshev
  product and one definite integral per overlap <y_i, y_j>;
* an mpmath evaluation of S_m = sum_{i+j=m} <y_i, y_j> on the same y_j
  coefficients (exact integer convolutions on a 2^-K fixed-point grid),
  run through ``_inv_sqrt_series`` in high precision.
"""

import math

import numpy as np
import pytest

from pertbvp import engine
from pertbvp.engine import compute_series, normalization_coeffs
from pertbvp.oracles import model1_problem, model3_problem
from pertbvp.problem import analytic_sine_state

PROBLEMS = {"model1": model1_problem, "model3": model3_problem}


def _series(model, n, J):
    problem = PROBLEMS[model]()
    return compute_series(problem, analytic_sine_state(problem, n), J)


def _pairwise_norm(series, J):
    """N_0..N_J from one product and one integral per overlap."""
    ys = series.wavefuns
    s = [sum((ys[i] * ys[m - i]).definite_integral() for i in range(m + 1))
         for m in range(J + 1)]
    return [series.state.report_scale * v
            for v in engine._inv_sqrt_series(s)]


def _mp_norm(series, J, K=200):
    """N_0..N_J with S_m summed exactly from the float coefficients.

    int_{-1}^{1} T_p T_q = (I_{p+q} + I_{|p-q|}) / 2 with I_k = 2/(1-k^2)
    for even k and 0 for odd k, so <y_i, y_j> needs only the convolution
    and the correlation of the two coefficient vectors, done on Python
    integers (each coefficient rounded to a multiple of 2^-K).
    """
    mpmath = pytest.importorskip("mpmath")
    ys = series.wavefuns[:J + 1]
    ints = [np.array([int(math.ldexp(c, K)) for c in y.coeffs], dtype=object)
            for y in ys]
    a, b = ys[0].domain

    def moment_sum(terms, offset):
        return mpmath.fsum(mpmath.mpf(2 * v) / (1 - (k - offset) ** 2)
                           for k, v in enumerate(terms)
                           if (k - offset) % 2 == 0)

    def overlap(i, j):
        conv = np.convolve(ints[i], ints[j])
        corr = np.convolve(ints[i], ints[j][::-1])
        total = moment_sum(conv, 0) + moment_sum(corr, len(ints[j]) - 1)
        return total / 2 * mpmath.mpf(b - a) / 2 / mpmath.mpf(2) ** (2 * K)

    with mpmath.workdps(60):
        s = [mpmath.fsum(overlap(i, m - i) for i in range(m + 1))
             for m in range(J + 1)]
        scale = mpmath.mpf(series.state.report_scale)
        return [float(scale * v) for v in engine._inv_sqrt_series(s)]


def _rel(new, ref):
    new, ref = np.array(new, dtype=float), np.array(ref, dtype=float)
    return np.abs(new - ref) / np.abs(ref)


# model 1 at n = 1, J = 40: the S_m cancel so far that both routes sit
# 1.7e-10 (pairwise) and 4.5e-10 (Gram) from the exact sums of the same
# coefficients, so they can agree only to about the sum of the two
MODEL1_DEEP = 1e-9


@pytest.mark.parametrize("model,n,J,tol", [
    ("model1", 1, 40, MODEL1_DEEP), ("model1", 2, 30, 1e-10),
    ("model1", 3, 40, 1e-10), ("model1", 5, 20, 1e-10),
    ("model1", 10, 40, 1e-10), ("model3", 1, 40, 1e-10),
    ("model3", 2, 30, 1e-10), ("model3", 3, 40, 1e-10),
    ("model3", 5, 20, 1e-10), ("model3", 10, 40, 1e-10)])
def test_gram_matches_pairwise_route(model, n, J, tol):
    series = _series(model, n, J)
    ref = _pairwise_norm(series, J)
    assert np.max(_rel(series.norm_coeffs, ref)) <= tol


@pytest.mark.parametrize("model,n,J,tol", [("model1", 1, 40, MODEL1_DEEP),
                                           ("model1", 3, 12, 1e-10),
                                           ("model3", 10, 10, 1e-10),
                                           ("model3", 50, 10, 1e-7)])
def test_gram_matches_high_precision_sums(model, n, J, tol):
    series = _series(model, n, J)
    ref = _mp_norm(series, J)
    assert np.max(_rel(series.norm_coeffs, ref)) <= tol


def test_normalization_uses_only_orders_up_to_J():
    series = _series("model3", 2, 8)
    head = normalization_coeffs(series.state, series.wavefuns, 5)
    assert len(head) == 6
    assert np.max(_rel(head, series.norm_coeffs[:6])) <= 1e-13
