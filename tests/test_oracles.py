import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pertbvp import expr as ex
from pertbvp import oracles
from pertbvp.engine import EngineError
from pertbvp.funcspace import SpectralFun
from pertbvp.oracles import (OracleError, fd_eigenvalue, fd_eigenvalue_raw,
                             model1_config, model1_exact, model1_problem,
                             model1_series_exact,
                             model3_E_coeffs, model3_ground_exact,
                             model3_problem, model3_y1_exact)
from pertbvp.problem import load_problem

PI2 = math.pi ** 2


def test_model1_exact_values():
    energy, y = model1_exact(1, 0.0)
    assert energy == pytest.approx(PI2)
    energy, _ = model1_exact(2, 1.0)
    assert energy == pytest.approx(4 * PI2 + 0.25)
    for lam in (0.0, 0.5, 2.0):
        _, y = model1_exact(3, lam)
        assert y(0.0) == pytest.approx(0.0, abs=1e-14)
        assert abs(y(1.0)) <= 1e-13


def test_model1_exact_rejects_bad_n():
    with pytest.raises(OracleError):
        model1_exact(0, 0.0)


def test_model1_series_exact():
    e2, _ = model1_series_exact(1, 2)
    assert e2 == 0.25
    _, y3 = model1_series_exact(2, 3)
    assert y3(1.0) == pytest.approx(0.0, abs=1e-14)
    e1, y1 = model1_series_exact(1, 1)
    _, y0 = model1_series_exact(1, 0)
    assert e1 == 0.0
    xs = np.linspace(0, 1, 33)
    assert np.max(np.abs(y1(xs) - 0.5 * xs * y0(xs))) <= 1e-14


def test_model1_exact_taylor_matches_series_coeffs():
    # second-order finite differences in lambda about 0
    h = 1e-4
    for n in (1, 2):
        e_m, _ = model1_exact(n, -h)
        e_0, _ = model1_exact(n, 0.0)
        e_p, _ = model1_exact(n, h)
        d1 = (e_p - e_m) / (2 * h)
        d2 = (e_p - 2 * e_0 + e_m) / h**2
        assert e_0 == pytest.approx(model1_series_exact(n, 0)[0], abs=1e-6)
        assert d1 == pytest.approx(model1_series_exact(n, 1)[0], abs=1e-6)
        assert d2 / 2 == pytest.approx(model1_series_exact(n, 2)[0], abs=1e-6)


def test_model3_E_coeffs_values():
    e0, e1, e2, e3 = model3_E_coeffs(1)
    assert e0 == pytest.approx(9.8696, abs=1e-4)
    assert e1 == pytest.approx(-3.4739, abs=1e-4)
    assert e2 == pytest.approx(-0.26231, abs=1e-5)
    assert e3 == pytest.approx(-0.079128, abs=1e-6)
    assert e0 + e1 + e2 + e3 == pytest.approx(6.0543, abs=5e-4)
    assert model3_E_coeffs(2)[1] == pytest.approx(-(8 * PI2 + 15) / 10)


def test_model3_ground_exact_is_a_solution():
    energy, y = model3_ground_exact()
    assert energy == 6.0
    assert y(0.0) == 0.0 and y(1.0) == 0.0
    prob = model3_problem()
    f = SpectralFun.from_function(y, (0, 1))
    fpp = f.derivative().derivative()
    fp = f.derivative()
    xs = np.linspace(0, 1, 128)
    # (1 - 3x^2/5) y'' - (6/5)(x y' - y) + 6 y = 0
    res = ((1 - 0.6 * xs**2) * fpp(xs)
           - 1.2 * (xs * fp(xs) - f(xs)) + 6.0 * f(xs))
    assert np.max(np.abs(res)) <= 1e-12


def test_model3_y1_exact_endpoints():
    for n in (1, 2, 3):
        y1 = model3_y1_exact(n)
        assert abs(y1(0.0)) <= 1e-14
        assert abs(y1(1.0)) <= 1e-13
        f = SpectralFun.from_function(y1, (0, 1))
        # slope cancels at the left end: -n pi/10 + n pi/10
        assert abs(f.derivative()(0.0)) <= 1e-9 * f.sup_norm()


def test_model3_y1_exact_midpoint_value():
    y1 = model3_y1_exact(1)
    # direct evaluation of the closed form at x = 1/2, bare sin convention
    bare = (math.pi * 0.5 * (0.25 - 1.0) * math.cos(math.pi / 2) / 10.0
            + (3.0 / 80.0 + 0.1) * math.sin(math.pi / 2))
    assert y1(0.5) == pytest.approx(math.sqrt(2) * bare, rel=1e-14)


# ----------------------------------------------------------------------
# finite-difference eigenvalue solver
# ----------------------------------------------------------------------

def test_fd_model1_extrapolated():
    prob = model1_problem()
    got = fd_eigenvalue(prob, 0.5, PI2, 512)
    assert got == pytest.approx(PI2 + 0.0625, abs=1e-6)


def test_fd_model3_ground():
    prob = model3_problem()
    got = fd_eigenvalue(prob, 1.0, 9.0, 512)
    assert got == pytest.approx(6.0, abs=1e-4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fd_unperturbed_spectrum(n):
    prob = model1_problem()
    got = fd_eigenvalue(prob, 0.0, n * n * PI2 + 0.5, 256 * n)
    assert got == pytest.approx(n * n * PI2, abs=1e-6)


def test_fd_second_order_convergence():
    prob = model1_problem()
    exact = PI2 + 0.0625
    errs = [abs(fd_eigenvalue_raw(prob, 0.5, exact, M) - exact)
            for M in (128, 256, 512)]
    for coarse, fine in zip(errs, errs[1:]):
        ratio = coarse / fine
        assert 4.0 / 1.4 <= ratio <= 4.0 * 1.4


@pytest.mark.parametrize("n, lam", [(3, 0.3), (10, 1.0)])
def test_fd_richardson_is_fourth_order(n, lam):
    # the fine grid halves the step exactly, so (4 E_fine - E_coarse)/3
    # leaves no h^3 term and the error falls ~16x per doubling of M
    prob = model1_problem()
    exact, _ = model1_exact(n, lam)
    errs = [abs(fd_eigenvalue(prob, lam, exact, M) - exact)
            for M in (32, 64, 128, 256, 512)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 <= coarse / fine <= 20.0


@pytest.mark.parametrize("n", [1, 3, 10])
def test_fd_eigenvalue_checks_the_state_index(n):
    prob = model1_problem()
    exact, _ = model1_exact(n, 0.5)
    assert fd_eigenvalue(prob, 0.5, exact, 256, n=n) \
        == fd_eigenvalue(prob, 0.5, exact, 256)
    with pytest.raises(OracleError, match=f"{n - 1} sign changes on M = 256 "
                                          f"points, where state n = {n + 1} "
                                          f"has {n}$"):
        fd_eigenvalue(prob, 0.5, exact, 256, n=n + 1)


def test_fd_rejects_small_grid():
    with pytest.raises(OracleError):
        fd_eigenvalue_raw(model1_problem(), 0.0, PI2, 8)


def _run_python(probe):
    """The JSON that ``probe`` prints from a fresh interpreter on ``src``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_import_loads_no_scipy_until_fd_oracle():
    # fresh interpreter: importing the CLI must not pull in scipy; the FD
    # oracle loads scipy's LAPACK extension on its first banded solve, and
    # never the scipy.linalg package, whose __init__ imports numpy.testing
    # and numpy.f2py
    got = _run_python(
        "import json, sys\n"
        "import pertbvp.cli\n"
        "before = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "from pertbvp.oracles import fd_eigenvalue, model3_problem\n"
        "e = fd_eigenvalue(model3_problem(), 1.0, 9.0, 512)\n"
        "names = ('scipy.linalg', 'numpy.testing', 'numpy.f2py',\n"
        "         'scipy.linalg._flapack')\n"
        "print(json.dumps({'before': before, 'E': e,\n"
        "                  'loaded': [m for m in names if m in sys.modules]}))\n")
    assert got["before"] == []
    assert got["loaded"] == ["scipy.linalg._flapack"]
    assert got["E"] == pytest.approx(6.0, abs=1e-4)


_FD_CASES = "[(0.3, 9.9, 1024), (1.0, 9.0, 2048), (0.04, 987.0, 8192)]"


def test_fd_oracle_and_scipy_linalg_share_one_lapack():
    # whichever loads first, the oracle's dgttrf and dgttrs are the objects
    # of scipy.linalg.lapack; a scipy that moves the extension fails here
    first = _run_python(
        "import json\n"
        "from pertbvp import oracles\n"
        "m1, m3 = oracles.model1_problem(), oracles.model3_problem()\n"
        f"es = [oracles.fd_eigenvalue(p, *c) for p in (m1, m3) "
        f"for c in {_FD_CASES}]\n"
        "import scipy.linalg.lapack as lapack\n"
        "own = oracles._flapack()\n"
        "print(json.dumps({'E': [e.hex() for e in es],\n"
        "    'same': [lapack._flapack is own, lapack.dgttrf is own.dgttrf,\n"
        "             lapack.dgttrs is own.dgttrs]}))\n")
    assert first["same"] == [True, True, True]
    after = _run_python(
        "import json\n"
        "import scipy.linalg\n"
        "from pertbvp import oracles\n"
        "m1, m3 = oracles.model1_problem(), oracles.model3_problem()\n"
        f"es = [oracles.fd_eigenvalue(p, *c) for p in (m1, m3) "
        f"for c in {_FD_CASES}]\n"
        "print(json.dumps({'E': [e.hex() for e in es]}))\n")
    assert after["E"] == first["E"]


def _closed_problem():
    """Model 3's coupling on v0 = 5 with the closed-form state sin(pi x)."""
    return load_problem(
        f"domain = 0 1\nv0 = 5\ny0 = sin(pi*x)\nE0 = {PI2 + 5.0!r}\n"
        "perturbation.1.p2 = 3*x^2/5\nperturbation.1.p1 = 6*x/5\n"
        "perturbation.1.p0 = -6/5\n")


def _count_walk(monkeypatch):
    calls = []
    real = ex.walk

    def counting(e, x):
        calls.append(e)
        return real(e, x)

    monkeypatch.setattr(ex, "walk", counting)
    return calls


@pytest.mark.parametrize("problem", [model1_problem, model3_problem,
                                     _closed_problem])
def test_fd_bands_evaluate_each_coefficient_once(monkeypatch, problem):
    # one whole-grid walk for v0 and each of p2, p1, p0, whatever M is
    calls = _count_walk(monkeypatch)
    prob = problem()
    counts = []
    for M in (16, 1024):
        calls.clear()
        oracles._fd_bands(prob, 0.5, M)
        counts.append(len(calls))
    assert counts == [4, 4]


@pytest.mark.parametrize("problem, guess", [(model3_problem, 9.0),
                                            (_closed_problem, 14.0)])
def test_fd_eigenvalue_matches_pointwise_reference(monkeypatch, problem,
                                                    guess):
    prob = problem()
    got = fd_eigenvalue(prob, 1.0, guess, 8192)
    real, walk = ex.evaluate, ex.walk

    def pointwise(e, x):
        if np.ndim(x) == 0:
            return walk(e, x)
        return np.array([real(e, float(v)) for v in x])

    monkeypatch.setattr(ex, "walk", pointwise)
    reference = fd_eigenvalue(prob, 1.0, guess, 8192)
    assert got == pytest.approx(reference, rel=1e-12)


def _solve_banded_per_step(main, upper, lower, shift, start):
    """Inverse iteration with one ``scipy.linalg.solve_banded`` per step
    from the unit vector ``start``, which it overwrites with the
    eigenvector: the oracle before it factored A - shift I once per grid."""
    from scipy.linalg import solve_banded
    M = len(main)
    ab = np.zeros((3, M))
    ab[0, 1:] = upper
    ab[1, :] = main - shift
    ab[2, :-1] = lower
    v = start.copy()
    est = None
    for _ in range(oracles._ITERATION_MAX):
        w = solve_banded((1, 1), ab, v)
        new_est = shift + 1.0 / float(np.dot(v, w))
        v = w / np.linalg.norm(w)
        tol = oracles._ITERATION_TOL * max(1.0, abs(new_est))
        if est is not None and abs(new_est - est) <= tol:
            start[:] = v
            return new_est
        est = new_est
    raise OracleError("no convergence")


@pytest.mark.parametrize("problem, lam, guess", [
    (model1_problem, 0.5, PI2), (model1_problem, 2.0, 4.1 * PI2),
    (model3_problem, 1.0, 9.0), (model3_problem, 0.3, 9.5 * PI2),
    (_closed_problem, 1.0, 14.0)])
@pytest.mark.parametrize("M", [16, 255, 1024, 4099])
def test_factored_inverse_iteration_matches_per_step_solves(
        monkeypatch, problem, lam, guess, M):
    prob = problem()
    factored = fd_eigenvalue(prob, lam, guess, M)
    monkeypatch.setattr(oracles, "_inverse_iteration", _solve_banded_per_step)
    assert factored == fd_eigenvalue(prob, lam, guess, M)


def _golden_iteration(main, upper, lower, shift):
    """The oracle's inverse iteration before the start vector became an
    argument, inline: the golden start, numpy's norm and a new iterate per
    step."""
    lu = oracles._tridiagonal_lu(main - shift, upper, lower)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    v = 1.0 + 1e-3 * np.sin(golden * np.arange(len(main)))
    v /= np.linalg.norm(v)
    est = None
    for _ in range(oracles._ITERATION_MAX):
        w = oracles.solve_banded(lu, v)
        new_est = shift + 1.0 / float(np.dot(v, w))
        v = w / np.linalg.norm(w)
        tol = oracles._ITERATION_TOL * max(1.0, abs(new_est))
        if est is not None and abs(new_est - est) <= tol:
            return new_est
        est = new_est
    raise OracleError("no convergence")


@pytest.mark.parametrize("problem, lam, guess", [
    (model1_problem, 0.5, PI2), (model1_problem, 0.02, 2500 * PI2),
    (model3_problem, 1.0, 9.0), (model3_problem, 0.03, 8836 * PI2),
    (_closed_problem, 1.0, 14.0)])
@pytest.mark.parametrize("M", [16, 255, 1024, 4099])
def test_fd_eigenvalue_raw_without_a_start_vector_is_the_golden_iteration(
        problem, lam, guess, M):
    prob = problem()
    bands = oracles._fd_bands(prob, lam, M)
    try:
        expected = _golden_iteration(*bands, guess)
    except OracleError:
        with pytest.raises(OracleError):
            fd_eigenvalue_raw(prob, lam, guess, M)
        return
    assert fd_eigenvalue_raw(prob, lam, guess, M) == expected


def _inline_bands(problem, lam, M):
    """The FD bands in their closed form, with whole-grid arrays for every
    coefficient, constants included: the summed couplings C2, C1 and C0,
    then main = 2/h^2 - (2 C2/h^2 - C0) and upper, lower =
    -1/h^2 + (C2/h^2 +- C1/(2h))."""
    a, b = problem.domain
    h = (b - a) / (M + 1)
    x = a + h * np.arange(1, M + 1)
    c2, c1 = np.zeros(M), np.zeros(M)
    c0 = ex.evaluate(problem.v0, x)
    for k, op in enumerate(problem.perturbations, start=1):
        c = lam ** k
        if c != 0.0:
            c2 = c2 + c * ex.evaluate(op.p2, x)
            c1 = c1 + c * ex.evaluate(op.p1, x)
            c0 = c0 + c * ex.evaluate(op.p0, x)
    main = 2.0 / h ** 2 - (2.0 * (c2 / h ** 2) - c0)
    upper = -1.0 / h ** 2 + (c2[:-1] / h ** 2 + c1[:-1] / (2.0 * h))
    lower = -1.0 / h ** 2 + (c2[1:] / h ** 2 - c1[1:] / (2.0 * h))
    return main, upper, lower


@pytest.mark.parametrize("problem", [model1_problem, model3_problem,
                                     _closed_problem])
@pytest.mark.parametrize("lam", [0.0, 1e-5, 0.3, -0.7, 1.0])
def test_fd_bands_match_the_inline_form(problem, lam):
    # scalar constants, C2/h^2 and C1/(2h) formed once and in-place updates
    # give the closed form on whole-grid arrays, bit for bit
    prob = problem()
    for M in (16, 17, 1000, 2048, 3173, 8191):
        got = oracles._fd_bands(prob, lam, M)
        for band, expected in zip(got, _inline_bands(prob, lam, M)):
            assert band.shape == expected.shape
            assert band.tobytes() == expected.tobytes()


def _count_solves(monkeypatch):
    """The length of the right-hand side of every banded solve."""
    sizes, solve = [], oracles.solve_banded
    monkeypatch.setattr(oracles, "solve_banded",
                        lambda lu, b: sizes.append(len(b)) or solve(lu, b))
    return sizes


@pytest.mark.parametrize("problem, v0", [(model1_problem, 0.0),
                                         (model3_problem, 0.0),
                                         (_closed_problem, 5.0)])
@pytest.mark.parametrize("per_half_wave", [20, 80])
def test_fine_grid_starts_from_the_coarse_eigenvector(monkeypatch, problem,
                                                      v0, per_half_wave):
    # on resolved grids the warm start moves the extrapolated value by
    # iteration noise only, and never takes more fine-grid solves than the
    # golden start; from 80 points per half-wave on it takes at most 3
    prob = problem()
    sizes = _count_solves(monkeypatch)
    for n in (1, 5, 20, 50, 100):
        M = per_half_wave * n
        for lam in (0.0, 0.3 / n, 1.0 / n):
            guess = n * n * PI2 + v0
            sizes.clear()
            got = fd_eigenvalue(prob, lam, guess, M)
            warm = sizes.count(2 * M + 1)
            coarse = fd_eigenvalue_raw(prob, lam, guess, M)
            sizes.clear()
            fine = fd_eigenvalue_raw(prob, lam, coarse, 2 * M + 1)
            cold = sizes.count(2 * M + 1)
            expected = (4.0 * fine - coarse) / 3.0
            assert got == pytest.approx(expected, rel=2e-12, abs=0.0)
            assert 2 <= warm <= cold
            if per_half_wave >= 80:
                assert warm <= 3


@pytest.mark.parametrize("M", [16, 17, 255, 1024])
def test_fine_start_interpolates_linearly_with_zero_ends(M):
    # the half-step grid holds every coarse point; between two of them the
    # linear interpolant is their mean, next to a wall half the end value
    coarse = np.sin(np.arange(1, M + 1) * 0.37) + 0.5
    fine = oracles._fine_start(coarse)
    ends = np.r_[0.0, coarse, 0.0]
    expected = np.empty(2 * M + 1)
    expected[1::2] = coarse
    expected[0::2] = (ends[:-1] + ends[1:]) / 2.0
    assert fine.shape == (2 * M + 1,)
    assert fine.tobytes() == expected.tobytes()
    x_coarse = np.arange(M + 2) / (M + 1)
    x_fine = np.arange(1, 2 * M + 2) / (2 * M + 2)
    np.testing.assert_allclose(fine, np.interp(x_fine, x_coarse, ends),
                               rtol=0, atol=1e-12)


def test_fd_eigenvalue_calls_the_raw_oracle_once_per_grid(monkeypatch):
    # a profiler may wrap fd_eigenvalue_raw and pair its last two results,
    # coarse then fine, with each fd_eigenvalue result
    calls, raw = [], oracles.fd_eigenvalue_raw

    def recording(problem, lam, e_guess, M, **kwargs):
        value = raw(problem, lam, e_guess, M, **kwargs)
        calls.append((M, value))
        return value

    monkeypatch.setattr(oracles, "fd_eigenvalue_raw", recording)
    got = fd_eigenvalue(model3_problem(), 1.0, 9.0, 512)
    assert [M for M, _ in calls] == [512, 1025]
    assert all(type(value) is float for _, value in calls)
    (_, coarse), (_, fine) = calls
    assert got == (4.0 * fine - coarse) / 3.0


@pytest.mark.parametrize("lam, n, M, changes", [
    (0.0, 100, 512, (101, 100)), (0.006, 50, 255, (50, 49))])
def test_fd_eigenvalue_rejects_two_states_on_the_two_grids(lam, n, M,
                                                           changes):
    # on these grids the coarse and the fine eigenvector nearest the guess
    # belong to different states, which Richardson must not combine
    with pytest.raises(OracleError, match=f"{changes[0]} sign changes on "
                                          f"M = {M} points and {changes[1]} "
                                          f"on {2 * M + 1}"):
        fd_eigenvalue(model1_problem(), lam, (n * math.pi) ** 2, M)


def test_sign_changes_count_nodes():
    assert oracles._sign_changes(np.array([1.0, 2.0, 3.0])) == 0
    assert oracles._sign_changes(np.array([1.0, -2.0, 3.0, 0.0, -1.0])) == 3
    xs = np.arange(1, 1000) / 1000
    for n in (1, 2, 7):
        assert oracles._sign_changes(np.sin(n * np.pi * xs)) == n - 1


def test_inverse_iteration_factors_once_per_grid(monkeypatch):
    factors, solves = [], []
    lu, solve = oracles._tridiagonal_lu, oracles.solve_banded
    monkeypatch.setattr(oracles, "_tridiagonal_lu",
                        lambda *a: factors.append(a) or lu(*a))
    monkeypatch.setattr(oracles, "solve_banded",
                        lambda *a: solves.append(a) or solve(*a))
    fd_eigenvalue(model3_problem(), 1.0, 9.0, 512)
    assert len(factors) == 2 and len(solves) > 2


def test_singular_shift_is_nudged_once(monkeypatch):
    # a pivot that is exactly zero raises LinAlgError from the
    # factorization; the oracle retries once with the shift nudged
    with pytest.raises(np.linalg.LinAlgError):
        # rows 1 and 2 of [[1, 1, 0], [1, 1, 0], [0, 0, 1]] are equal
        oracles._tridiagonal_lu(np.array([1.0, 1.0, 1.0]),
                                np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    shifts = []
    lu = oracles._tridiagonal_lu

    def singular_first(main, upper, lower):
        shifts.append(main[0])
        if len(shifts) == 1:
            raise np.linalg.LinAlgError("singular matrix")
        return lu(main, upper, lower)

    monkeypatch.setattr(oracles, "_tridiagonal_lu", singular_first)
    got = fd_eigenvalue_raw(model1_problem(), 0.0, PI2, 64)
    assert len(shifts) == 2 and shifts[0] - shifts[1] == pytest.approx(1e-8)
    assert got == pytest.approx(PI2, rel=1e-3)


@pytest.mark.parametrize("p1", [1e20, 1e100, 1e300])
def test_fd_bands_reject_opposite_neighbour_signs(p1):
    # 1e300 would overflow the product upper * lower; the signs are compared
    prob = load_problem(model1_config().replace("p1 = 1\n", f"p1 = {p1!r}\n"))
    with pytest.raises(OracleError, match="neighbour coupling that is not "
                                          "positive"):
        oracles._fd_bands(prob, 0.5, 64)
    main, upper, lower = oracles._fd_bands(model1_problem(), 0.5, 64)
    assert np.all(upper < 0.0) and np.all(lower < 0.0)


@pytest.mark.parametrize("M", [128, 512, 2048])
def test_fd_bands_reject_a_second_order_coefficient_past_zero(M):
    # model 3 at lam = 2: 1 - lam 3x^2/5 changes sign at x ~ 0.91, where
    # both neighbour couplings flip sign together
    with pytest.raises(OracleError, match="not positive"):
        oracles._fd_bands(model3_problem(), 2.0, M)


#: two couplings, so lam^2 is formed: it overflows at lam = 1e200
_TWO_COUPLINGS = ("domain = 0 1\nv0 = 0\n"
                  "perturbation.1.p2 = 0\nperturbation.1.p1 = 0\n"
                  "perturbation.1.p0 = x\nperturbation.2.p2 = 0\n"
                  "perturbation.2.p1 = 0\nperturbation.2.p0 = x\n")


def test_fd_bands_name_the_power_that_overflows():
    # the powers come from engine.lambda_powers, as on the series paths
    with pytest.raises(EngineError) as info:
        oracles._fd_bands(load_problem(_TWO_COUPLINGS), 1e200, 64)
    assert str(info.value) == "lambda^2 overflows at lambda = 1e+200"


@pytest.mark.parametrize("M", [255, 1024])
@pytest.mark.parametrize("n", [2, 4])
def test_fd_start_vector_reaches_odd_parity_states(monkeypatch, n, M):
    # at lam = 0 model 1 is symmetric about x = 1/2, and its n-th state is
    # odd there for even n: a start vector symmetric about the midpoint has
    # no part along it but rounding, which a shift this close still grows
    starts, solve = [], oracles.solve_banded
    monkeypatch.setattr(oracles, "solve_banded",
                        lambda lu, b: starts.append(b.copy()) or solve(lu, b))
    exact = (n * math.pi) ** 2
    got = fd_eigenvalue(model1_problem(), 0.0, exact, M)
    kh = n * math.pi / (M + 1)  # the tolerance of perfbench's fd_tol
    assert abs(got - exact) <= (1e-3 * kh * kh + 1e-10) * exact
    v = starts[0]
    assert len(v) == M and np.max(np.abs(v - v[::-1])) >= 1e-4 / math.sqrt(M)


def test_oracle_errors_are_engine_errors():
    # the CLI reports every oracle failure as a computational one (exit 2)
    assert issubclass(OracleError, EngineError)


@pytest.mark.parametrize("call, message", [
    (lambda: model1_series_exact(0, 1), r"invalid \(n, j\) = \(0, 1\)"),
    (lambda: model1_series_exact(1, -1), r"invalid \(n, j\) = \(1, -1\)"),
    (lambda: model3_E_coeffs(0), "quantum number must be >= 1, got 0"),
    (lambda: model3_y1_exact(-2), "quantum number must be >= 1, got -2"),
], ids=["model1-series-n", "model1-series-j", "model3-E", "model3-y1"])
def test_exact_oracles_reject_bad_indices(call, message):
    with pytest.raises(OracleError, match=f"^{message}$"):
        call()
