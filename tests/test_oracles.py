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
from pertbvp.funcspace import SpectralFun
from pertbvp.oracles import (OracleError, fd_eigenvalue, fd_eigenvalue_raw,
                             model1_exact, model1_problem, model1_series_exact,
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


def test_fd_rejects_small_grid():
    with pytest.raises(OracleError):
        fd_eigenvalue_raw(model1_problem(), 0.0, PI2, 8)


def test_import_loads_no_scipy_until_fd_oracle():
    # fresh interpreter: importing the CLI must not pull in scipy; the FD
    # oracle loads scipy.linalg on its first banded solve
    probe = (
        "import json, sys\n"
        "import pertbvp.cli\n"
        "before = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "from pertbvp.oracles import fd_eigenvalue, model3_problem\n"
        "e = fd_eigenvalue(model3_problem(), 1.0, 9.0, 512)\n"
        "print(json.dumps({'before': before, 'E': e,\n"
        "                  'linalg': 'scipy.linalg' in sys.modules}))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    got = json.loads(done.stdout)
    assert got["before"] == []
    assert got["linalg"]
    assert got["E"] == pytest.approx(6.0, abs=1e-4)


def _closed_problem():
    """Model 3's coupling on v0 = 5 with the closed-form state sin(pi x)."""
    return load_problem(
        f"domain = 0 1\nv0 = 5\ny0 = sin(pi*x)\nE0 = {PI2 + 5.0!r}\n"
        "perturbation.1.p2 = 3*x^2/5\nperturbation.1.p1 = 6*x/5\n"
        "perturbation.1.p0 = -6/5\n")


def _count_evaluate(monkeypatch):
    calls = []
    real = ex.evaluate

    def counting(e, x):
        calls.append(e)
        return real(e, x)

    monkeypatch.setattr(ex, "evaluate", counting)
    return calls


@pytest.mark.parametrize("problem", [model1_problem, model3_problem,
                                     _closed_problem])
def test_fd_bands_evaluate_each_coefficient_once(monkeypatch, problem):
    # one whole-grid call for v0 and each of p2, p1, p0, whatever M is
    calls = _count_evaluate(monkeypatch)
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
    real = ex.evaluate

    def pointwise(e, x):
        if np.ndim(x) == 0:
            return real(e, x)
        return np.array([real(e, float(v)) for v in x])

    monkeypatch.setattr(ex, "evaluate", pointwise)
    reference = fd_eigenvalue(prob, 1.0, guess, 8192)
    assert got == pytest.approx(reference, rel=1e-12)
