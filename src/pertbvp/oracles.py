"""Reference values for the two benchmark models and an independent
finite-difference eigenvalue solver, O(h^4) by Richardson on steps h, h/2.

Model 1:  y'' = lam y' - E y on [0, 1], Dirichlet; exactly solvable.
Model 3:  (1 - 3x^2/5) y'' - (6/5)(x y' - y) + E y = 0 on [0, 1], Dirichlet;
          only the ground state is exact (E = 6, y = x(1 - x^2)).
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from . import expr as ex
from .engine import EngineError, lambda_powers
from .funcspace import _QUIET
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


class OracleError(EngineError):
    """Oracle precondition failure or iteration non-convergence: an
    :class:`~pertbvp.engine.EngineError`, so a computational failure."""


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
    """Tridiagonal bands of A with A y = E y on M interior points, step h.

    A = -(D2 - C2 D2 - C1 D1 - C0), second order central differences,
    Dirichlet rows eliminated, with the summed couplings C2 = sum_k lam^k
    p2_k, C1 = sum_k lam^k p1_k and C0 = v0 + sum_k lam^k p0_k:

        main  = 2/h^2 - (2 C2/h^2 - C0)
        upper = -1/h^2 + (C2/h^2 + C1/(2h))
        lower = -1/h^2 + (C2/h^2 - C1/(2h))   (each at its row's point)

    The 1/h^2 part stays exact and each entry adds one rounded coupling
    term.  Raises :class:`OracleError` if an entry overflows, or unless
    every neighbour coupling (-upper, -lower) is positive.  Where
    c2 = 1 - C2 is positive this is the cell-Peclet condition
    |C1| h / 2 < c2; where c2 <= 0 (past the ellipticity radius) both fail.
    Without it central differences give an eigenvalue that jumps with the
    grid.
    """
    a, b = problem.domain
    h = (b - a) / (M + 1)
    h2 = h ** 2
    x = a + h * np.arange(1.0, M + 1)
    # a coefficient without x stays a scalar: it broadcasts to the same bits
    c2, c1, c0 = 0.0, 0.0, ex.walk(problem.v0, x)
    powers = lambda_powers(lam, len(problem.perturbations))
    with np.errstate(**_QUIET):
        for k, op in enumerate(problem.perturbations, start=1):
            c = powers[k]
            if c != 0.0:
                c2 = c2 + c * ex.walk(op.p2, x)
                c1 = c1 + c * ex.walk(op.p1, x)
                c0 = c0 + c * ex.walk(op.p0, x)
        d2 = c2 / h2
        d1 = c1 / (2.0 * h)
        main = np.full(M, 2.0 / h2)
        main -= 2.0 * d2 - c0
        d2_up, d2_low = _neighbours(d2)
        d1_up, d1_low = _neighbours(d1)
        upper, lower = np.full((2, M - 1), -1.0 / h2)
        upper += d2_up + d1_up
        lower += d2_low - d1_low

    if not all(np.all(np.isfinite(band)) for band in (main, upper, lower)):
        raise OracleError("finite-difference matrix not finite "
                          "(coupling too large for the grid)")
    # signs, not the product upper * lower, which can overflow
    if not np.all((upper < 0.0) & (lower < 0.0)):
        raise OracleError("finite-difference matrix has a neighbour coupling "
                          "that is not positive (first-derivative coupling "
                          "too large for the grid, or the second-order "
                          "coefficient not positive)")
    return main, upper, lower


def _neighbours(values):
    """``values`` at the upper and at the lower neighbour of each coupled
    pair of points: ``values[:-1]`` and ``values[1:]``, or a scalar twice."""
    if isinstance(values, np.ndarray):
        return values[:-1], values[1:]
    return values, values


#: scipy's compiled LAPACK wrappers, which hold ``dgttrf`` and ``dgttrs``
_FLAPACK = "scipy.linalg._flapack"


def _flapack():
    """scipy's LAPACK extension module, loaded on first use straight from
    scipy's ``linalg`` directory.  The ``scipy.linalg`` package ``__init__``
    is not run: it imports ``numpy.testing`` and ``numpy.f2py`` and takes
    ~300 ms, against ~10 ms for the extension.  The module goes into
    ``sys.modules`` under its own name, so a later ``import scipy.linalg``
    finds this very module and its routines are the same objects."""
    module = sys.modules.get(_FLAPACK)
    if module is None:
        from importlib import machinery, util
        scipy = util.find_spec("scipy")
        spec = scipy and machinery.PathFinder.find_spec(
            _FLAPACK, [os.path.join(path, "linalg")
                       for path in scipy.submodule_search_locations])
        if spec is None:
            raise ModuleNotFoundError(f"No module named {_FLAPACK!r}",
                                      name=_FLAPACK)
        module = util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_FLAPACK] = module
    return module


def _tridiagonal_lu(main, upper, lower):
    """LU factors of the tridiagonal matrix with diagonal ``main``, super-
    diagonal ``upper`` and subdiagonal ``lower``, by LAPACK ``dgttrf``
    (partial pivoting), for :func:`solve_banded`.  The routines come from
    scipy's LAPACK extension, which :func:`_flapack` loads on first use
    without the ``scipy.linalg`` package; the rest of pertbvp runs on numpy
    alone.  Raises ``LinAlgError`` when a pivot is exactly zero."""
    lapack = _flapack()
    dl, d, du, du2, ipiv, info = lapack.dgttrf(lower, main, upper)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return lapack.dgttrs, (dl, d, du, du2, ipiv)


def solve_banded(lu, b):
    """The solution x of A x = b for the factors ``lu`` of A from
    :func:`_tridiagonal_lu` (LAPACK ``dgttrs``): the same operations, bit
    for bit, as ``scipy.linalg.solve_banded`` on the tridiagonal bands."""
    gttrs, factors = lu
    return gttrs(*factors, b)[0]


#: inverse iteration stops when the estimate moves by at most this much
#: relative to max(1, |E|), and fails after this many steps
_ITERATION_TOL = 1e-12
_ITERATION_MAX = 200

#: the golden angle pi (3 - sqrt 5), the step of the start vector's ripple
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def _golden_start(M: int):
    """The fixed start vector 1 + 1e-3 sin(k g), k = 0 .. M-1, g the golden
    angle: no RNG (and no ``numpy.random`` import), and not symmetric about
    the midpoint, so it overlaps odd-parity eigenvectors as well as even
    ones."""
    v = np.sin(_GOLDEN_ANGLE * np.arange(M))
    v *= 1e-3
    v += 1.0
    return v


def _inverse_iteration(main, upper, lower, shift, v):
    """The eigenvalue of the tridiagonal matrix nearest ``shift``, by
    inverse iteration on A - shift I, factored once, from the unit start
    vector ``v``; ``v`` is overwritten with each normalised iterate, so it
    holds the eigenvector on return.

    The iteration stops when the estimate moves by at most
    ``_ITERATION_TOL`` relative, so another start vector may move the
    value's last digits.
    """
    lu = _tridiagonal_lu(main - shift, upper, lower)
    est = None
    for _ in range(_ITERATION_MAX):
        w = solve_banded(lu, v)
        mu = float(v.dot(w))
        if mu == 0.0:
            raise OracleError("inverse iteration broke down")
        new_est = shift + 1.0 / mu
        size = math.sqrt(w.dot(w))  # numpy.linalg.norm's own formula
        if not 0.0 < size < math.inf:
            raise OracleError("inverse iteration broke down: iterate not "
                              "representable in floating point")
        np.divide(w, size, out=v)
        tol = _ITERATION_TOL * max(1.0, abs(new_est))
        if est is not None and abs(new_est - est) <= tol:
            return new_est
        est = new_est
    raise OracleError(
        f"inverse iteration did not converge in {_ITERATION_MAX} steps")


def fd_eigenvalue_raw(problem: PerturbationProblem, lam: float,
                      e_guess: float, M: int, vector=None) -> float:
    """Single-grid eigenvalue nearest ``e_guess`` (no extrapolation).

    ``vector``, an array of M floats, holds the start vector on entry (any
    nonzero scale) and the unit eigenvector on return; without it the
    iteration starts from :func:`_golden_start`.
    """
    if M < 16:
        raise OracleError(f"need M >= 16 interior points, got {M}")
    main, upper, lower = _fd_bands(problem, lam, M)
    v = _golden_start(M) if vector is None else vector
    v /= math.sqrt(v.dot(v))
    try:
        return _inverse_iteration(main, upper, lower, e_guess, v)
    except np.linalg.LinAlgError:
        # shift hit an eigenvalue exactly: nudge once and retry; the
        # factorization failed before any step, so v is still the start
        return _inverse_iteration(main, upper, lower, e_guess + 1e-8, v)


def _fine_start(coarse):
    """The fine grid's start vector from ``coarse``, values at the M
    interior points of a uniform grid with zero ends: on the 2M + 1
    interior points of the half-step grid, the coarse values at the shared
    points and the means of their two neighbours between them (half the
    end value next to each wall)."""
    fine = np.zeros(2 * len(coarse) + 1)
    fine[1::2] = coarse
    fine[:-1:2] += coarse
    fine[2::2] += coarse
    fine[::2] *= 0.5
    return fine


def _sign_changes(v) -> int:
    """Sign changes between neighbouring entries of ``v`` (a zero counts
    as positive): n - 1 for the n-th state of a Sturm-Liouville problem."""
    negative = np.signbit(v)
    return int(np.count_nonzero(negative[1:] != negative[:-1]))


def fd_eigenvalue(problem: PerturbationProblem, lam: float,
                  e_guess: float, M: int, n: int | None = None) -> float:
    """Richardson-extrapolated eigenvalue from the grid of M interior
    points, step h, and the grid of 2M + 1, step h/2.

    Every coarse point is a fine point, so (4 E_fine - E_coarse)/3 removes
    the h^2 term of the central-difference error exactly and leaves O(h^4).
    The fine grid's inverse iteration is shifted by the coarse eigenvalue
    and starts from the coarse eigenvector, interleaved (a nested-iteration
    start), so it needs a few steps.  Raises :class:`OracleError` unless
    both eigenvectors have the same number of sign changes: otherwise the
    two grids found different states, which no extrapolation combines.
    With ``n``, the state index, it also raises unless that number is
    n - 1: otherwise both grids found another state.
    """
    vector = _golden_start(M)
    e_coarse = fd_eigenvalue_raw(problem, lam, e_guess, M, vector=vector)
    coarse_changes = _sign_changes(vector)
    vector = _fine_start(vector)
    e_fine = fd_eigenvalue_raw(problem, lam, e_coarse, 2 * M + 1,
                               vector=vector)
    fine_changes = _sign_changes(vector)
    if coarse_changes != fine_changes:
        raise OracleError(
            f"the FD grids found different states: the eigenvector has "
            f"{coarse_changes} sign changes on M = {M} points and "
            f"{fine_changes} on {2 * M + 1} (the grid is too coarse for this "
            f"state)")
    if n is not None and coarse_changes != n - 1:
        raise OracleError(
            f"the FD grids found another state: the eigenvector has "
            f"{coarse_changes} sign changes on M = {M} points, where state "
            f"n = {n} has {n - 1}")
    return (4.0 * e_fine - e_coarse) / 3.0
