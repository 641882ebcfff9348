"""Reference values for the two benchmark models and an independent
finite-difference eigenvalue solver.

Model 1:  y'' = lam y' - E y on [0, 1], Dirichlet; exactly solvable.
Model 3:  (1 - 3x^2/5) y'' - (6/5)(x y' - y) + E y = 0 on [0, 1], Dirichlet;
          only the ground state is exact (E = 6, y = x(1 - x^2)).
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .problem import PerturbationProblem, load_problem

__all__ = [
    "OracleError",
    "model1_config",
    "model3_config",
    "model1_problem",
    "model3_problem",
    "model1_exact",
    "model1_series_exact",
    "model3_E_coeffs",
    "model3_ground_exact",
    "model3_y1_exact",
    "fd_eigenvalue",
    "fd_eigenvalue_raw",
]

PI2 = np.pi ** 2


class OracleError(Exception):
    """Oracle precondition failure or iteration non-convergence."""


MODEL1_CONFIG = """\
# first-derivative coupling on the free problem
domain = 0 1
v0 = 0
perturbation.1.p2 = 0
perturbation.1.p1 = 1
perturbation.1.p0 = 0
"""

MODEL3_CONFIG = """\
# derivative-coupling problem with an exact ground state at coupling 1
domain = 0 1
v0 = 0
perturbation.1.p2 = 3*x^2/5
perturbation.1.p1 = 6*x/5
perturbation.1.p0 = -6/5
"""


def model1_config() -> str:
    return MODEL1_CONFIG


def model3_config() -> str:
    return MODEL3_CONFIG


def model1_problem() -> PerturbationProblem:
    return load_problem(MODEL1_CONFIG)


def model3_problem() -> PerturbationProblem:
    return load_problem(MODEL3_CONFIG)


def model1_exact(n: int, lam: float):
    """Exact eigenpair of model 1: E = n^2 pi^2 + lam^2/4."""
    if n < 1:
        raise OracleError(f"quantum number must be >= 1, got {n}")
    energy = n * n * PI2 + lam * lam / 4.0

    def y(x):
        return np.sqrt(2.0) * np.exp(lam * x / 2.0) * np.sin(n * np.pi * x)

    return energy, y


def model1_series_exact(n: int, j: int):
    """Taylor coefficients of the exact model-1 solution about lam = 0."""
    if n < 1 or j < 0:
        raise OracleError(f"invalid (n, j) = ({n}, {j})")
    energy = n * n * PI2 if j == 0 else (0.25 if j == 2 else 0.0)
    scale = 1.0 / (math.factorial(j) * 2.0 ** j)

    def y(x):
        return scale * np.asarray(x) ** j * np.sqrt(2.0) * np.sin(n * np.pi * x)

    return energy, y


def model3_E_coeffs(n: int):
    """Closed-form energy coefficients E_0..E_3 of model 3."""
    if n < 1:
        raise OracleError(f"quantum number must be >= 1, got {n}")
    w2 = n * n * PI2
    e0 = w2
    e1 = -(2.0 * w2 + 15.0) / 10.0
    e2 = -3.0 * (8.0 * w2 ** 2 + 10.0 * w2 - 15.0) / (1000.0 * w2)
    e3 = -(248.0 * w2 ** 3 + 462.0 * w2 ** 2 - 1575.0 * w2 + 1890.0) \
        / (35000.0 * w2 ** 2)
    return e0, e1, e2, e3


def model3_ground_exact():
    """Exact ground state of model 3 at coupling 1: E = 6, y = x(1 - x^2)."""
    return 6.0, lambda x: np.asarray(x) * (1.0 - np.asarray(x) ** 2)


def model3_y1_exact(n: int):
    """Closed-form first-order correction of model 3, rescaled to the
    engine's internal unit-L2 normalization of y0 (factor sqrt(2) relative
    to the bare sin(n pi x) convention)."""
    if n < 1:
        raise OracleError(f"quantum number must be >= 1, got {n}")
    w = n * np.pi

    def y1(x):
        xv = np.asarray(x, dtype=float)
        bare = (w * xv * (xv ** 2 - 1.0) * np.cos(w * xv) / 10.0
                + (3.0 * xv ** 2 / 20.0 + 0.1) * np.sin(w * xv))
        return np.sqrt(2.0) * bare

    return y1


# ----------------------------------------------------------------------
# finite-difference eigenvalue oracle
# ----------------------------------------------------------------------

def _fd_bands(problem: PerturbationProblem, lam: float, M: int):
    """Tridiagonal bands of A with A y = E y on M interior points.

    A = -(D2 - diag(v0) - sum_k lam^k (p2_k D2 + p1_k D1 + p0_k)), second
    order central differences, Dirichlet rows eliminated.
    """
    a, b = problem.domain
    h = (b - a) / (M + 1)
    x = a + h * np.arange(1, M + 1)
    v0 = ex.evaluate(problem.v0, x)

    main = -2.0 / h ** 2 - v0
    upper = np.full(M - 1, 1.0 / h ** 2)
    lower = np.full(M - 1, 1.0 / h ** 2)

    for k, op in enumerate(problem.perturbations, start=1):
        c = lam ** k
        if c == 0.0:
            continue
        p2 = ex.evaluate(op.p2, x)
        p1 = ex.evaluate(op.p1, x)
        p0 = ex.evaluate(op.p0, x)
        main -= c * (-2.0 * p2 / h ** 2 + p0)
        upper -= c * (p2[:-1] / h ** 2 + p1[:-1] / (2.0 * h))
        lower -= c * (p2[1:] / h ** 2 - p1[1:] / (2.0 * h))

    return -main, -upper, -lower


def solve_banded(l_and_u, ab, b):
    """``scipy.linalg.solve_banded``, imported on first use: scipy.linalg
    takes longer to import than the rest of pertbvp, and only this oracle
    needs it."""
    from scipy.linalg import solve_banded as _solve_banded
    return _solve_banded(l_and_u, ab, b)


def _inverse_iteration(main, upper, lower, shift, tol=1e-12, maxit=200):
    M = len(main)
    ab = np.zeros((3, M))
    ab[0, 1:] = upper
    ab[1, :] = main - shift
    ab[2, :-1] = lower
    rng = np.random.default_rng(7)
    v = np.ones(M) + 1e-3 * rng.standard_normal(M)
    v /= np.linalg.norm(v)
    est = None
    for _ in range(maxit):
        w = solve_banded((1, 1), ab, v)
        mu = float(np.dot(v, w))
        if mu == 0.0:
            raise OracleError("inverse iteration broke down")
        new_est = shift + 1.0 / mu
        v = w / np.linalg.norm(w)
        if est is not None and abs(new_est - est) <= tol * max(1.0, abs(new_est)):
            return new_est
        est = new_est
    raise OracleError(f"inverse iteration did not converge in {maxit} steps")


def fd_eigenvalue_raw(problem: PerturbationProblem, lam: float,
                      e_guess: float, M: int) -> float:
    """Single-grid eigenvalue nearest ``e_guess`` (no extrapolation)."""
    if M < 16:
        raise OracleError(f"need M >= 16 interior points, got {M}")
    main, upper, lower = _fd_bands(problem, lam, M)
    try:
        return _inverse_iteration(main, upper, lower, e_guess)
    except np.linalg.LinAlgError:  # the class scipy.linalg raises too
        # shift hit an eigenvalue exactly: nudge once and retry
        return _inverse_iteration(main, upper, lower, e_guess + 1e-8)


def fd_eigenvalue(problem: PerturbationProblem, lam: float,
                  e_guess: float, M: int) -> float:
    """Richardson-extrapolated (order 2) eigenvalue from grids M and 2M."""
    e_coarse = fd_eigenvalue_raw(problem, lam, e_guess, M)
    e_fine = fd_eigenvalue_raw(problem, lam, e_coarse, 2 * M)
    return (4.0 * e_fine - e_coarse) / 3.0
