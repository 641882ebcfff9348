"""Oracle checks for every op, and the accuracy measures built on them.

Each check returns a :class:`Verdict`: the failures it found and the
relative errors it measured (``E``, ``y``, ``norm``, ``fd``; absent when the
op has no reference for that quantity).  Tolerances scale with the problem:
energy errors are relative to the reference coefficient (or to ``E_0`` where
the reference is zero), FD tolerances follow the grid's ``(k h)^2``, and the
y_j tolerance widens with the order, because the model-1 drift at high order
is a known defect that is reported through ``y_digits``, not hidden.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from pertbvp import engine, oracles
from pertbvp import problem as pb

__all__ = ["Verdict", "digits", "closed_config", "problem_text",
           "check_series", "check_fd", "check_cli"]

E_TOL = 1e-9
NORM_TOL = 1e-9
FD_EXTRA_M = 1024  # FD grid for the cross-check of ops that run no oracle
_XS = np.linspace(0.0, 1.0, 257)

#: closed-form problem: model 3's coupling on v0 = 5, so E_j (j >= 1) and
#: y_j equal model 3's ground-state ones and E(1) = 6 + 5
CLOSED_E0 = math.pi ** 2 + 5.0


def closed_config() -> str:
    return (f"domain = 0 1\nv0 = 5\ny0 = sin(pi*x)\nE0 = {CLOSED_E0!r}\n"
            "perturbation.1.p2 = 3*x^2/5\nperturbation.1.p1 = 6*x/5\n"
            "perturbation.1.p0 = -6/5\n")


def problem_text(model: str) -> str:
    if model == "model1":
        return oracles.model1_config()
    if model == "model3":
        return oracles.model3_config()
    return closed_config()


@dataclass
class Verdict:
    failures: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)

    def measure(self, kind: str, err: float, tol: float, what: str):
        """Record ``err`` under ``kind`` (keeping the worst) and fail above tol."""
        self.errors[kind] = max(self.errors.get(kind, 0.0), err)
        if not err <= tol:
            self.failures.append(f"{what}: error {err:.3e} > tol {tol:.3e}")

    def merge(self, other: "Verdict"):
        self.failures += other.failures
        for kind, err in other.errors.items():
            self.errors[kind] = max(self.errors.get(kind, 0.0), err)


def digits(err: float) -> float:
    """Correct decimal digits of a relative error, capped at 16."""
    return -math.log10(max(err, 1e-16))


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------

def _ref_energy_coeffs(model: str, n: int, J: int) -> list:
    if model == "model1":
        return [oracles.model1_series_exact(n, j)[0] for j in range(J + 1)]
    coeffs = list(oracles.model3_E_coeffs(n if model == "model3" else 1))
    if model == "closed":
        coeffs[0] = CLOSED_E0
    return coeffs[: J + 1]


def _ref_wavefun(model: str, n: int, j: int):
    """Exact y_j in the engine's internal unit-L2 scale, or None."""
    if model == "model1":
        return oracles.model1_series_exact(n, j)[1]
    if model == "closed":
        n = 1
    if j == 0:
        return lambda x: math.sqrt(2.0) * np.sin(n * math.pi * np.asarray(x))
    if j == 1:
        return oracles.model3_y1_exact(n)
    return None


def _ref_energy(model: str, n: int, lam: float):
    """Exact eigenvalue E(lam), where one is known."""
    if model == "model1":
        return oracles.model1_exact(n, lam)[0]
    if n == 1 and lam == 1.0:
        return 6.0 if model == "model3" else 11.0
    return None


def y_tol(j: int) -> float:
    return max(1e-9, 1e-13 * 2.0 ** j)


def fd_tol(energy: float, M: int) -> float:
    """Relative FD tolerance: the Richardson value keeps an O((k h)^2) error."""
    kh = math.sqrt(abs(energy)) / (M + 1)
    return 1e-3 * kh * kh + 1e-10


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def _check_coeffs(case, energies, wavefun_values, norm_coeffs) -> Verdict:
    """E_j and y_j against the references; ``wavefun_values(j)`` samples y_j
    on ``_XS``."""
    v = Verdict()
    refs = _ref_energy_coeffs(case.model, case.n, case.J)
    if len(energies) != case.J + 1 or len(norm_coeffs) != case.J + 1:
        v.failures.append(f"expected {case.J + 1} orders, got {len(energies)}")
        return v
    for j, ref in enumerate(refs):
        scale = abs(ref) if ref != 0.0 else abs(refs[0])
        v.measure("E", abs(energies[j] - ref) / scale, E_TOL, f"E_{j}")
    for j in range(case.J + 1):
        ref = _ref_wavefun(case.model, case.n, j)
        if ref is None:
            continue
        exact = ref(_XS)
        err = np.max(np.abs(wavefun_values(j) - exact)) / np.max(np.abs(exact))
        v.measure("y", float(err), y_tol(j), f"y_{j}")
    return v


def _check_norm(series, lam: float, y) -> Verdict:
    """The normalized partial sum ``y`` at ``lam`` must have unit L2 norm up
    to the series truncation, estimated from the last order's terms."""
    v = Verdict()
    J = series.order
    y_J = series.wavefuns[J]
    last = abs(lam) ** J * (math.sqrt((y_J * y_J).definite_integral())
                            + abs(series.norm_coeffs[J] / series.norm_coeffs[0]))
    v.measure("norm", abs((y * y).definite_integral() - 1.0),
              NORM_TOL + 3.0 * last, "normalized norm")
    return v


def _truncation(energies, lam: float) -> float:
    return 10.0 * abs(energies[-1] * lam ** (len(energies) - 1))


def check_fd(case, fd: float, M: int, series_sum=None, energies=None) -> Verdict:
    """FD eigenvalue against the exact value and against the series sum."""
    v = Verdict()
    exact = _ref_energy(case.model, case.n, case.lam)
    tol = fd_tol(fd, M)
    if exact is not None:
        v.measure("fd", abs(fd - exact) / abs(exact), tol, "fd vs exact")
    if series_sum is not None:
        gap = abs(fd - series_sum) / abs(fd)
        trunc = _truncation(energies, case.lam) / abs(fd)
        if not gap <= tol + trunc:
            v.failures.append(f"series vs fd: gap {gap:.3e} > "
                              f"tol {tol + trunc:.3e}")
    return v


def check_series(case, result) -> Verdict:
    """Full check of an in-process op: ``result`` is (series, E(lam),
    normalized y(lam), FD eigenvalue or None)."""
    series, energy, y, fd = result
    v = _check_coeffs(case, series.energies, lambda j: series.wavefuns[j](_XS),
                      series.norm_coeffs)
    v.merge(_check_norm(series, case.lam, y))
    summed = sum(series.energies[j] * case.lam ** j for j in range(case.J + 1))
    if energy != summed:
        v.failures.append(f"sum_series E={energy!r} != {summed!r}")
    if fd is not None:
        v.merge(check_fd(case, fd, case.M, energy, series.energies))
    elif _ref_energy(case.model, case.n, case.lam) is not None:
        # no oracle in the op: cross-check once on a fixed grid
        problem = pb.load_problem(problem_text(case.model))
        fd_val = oracles.fd_eigenvalue(problem, case.lam, energy, FD_EXTRA_M)
        v.merge(check_fd(case, fd_val, FD_EXTRA_M, energy, series.energies))
    return v


# ----------------------------------------------------------------------
# CLI outputs
# ----------------------------------------------------------------------

def _series_from_bytes(data: bytes):
    return engine.series_from_dict(json.loads(data.decode("utf-8")))


def check_cli(case, rc: int, stdout: str, out_bytes, fixture: bytes) -> Verdict:
    """Check one CLI call.  ``fixture`` is the series JSON that set-up wrote
    for this problem; ``out_bytes`` is the file the call wrote, if any."""
    v = Verdict()
    if rc != 0:
        v.failures.append(f"{case.command}: exit code {rc}")
        return v
    series = _series_from_bytes(fixture)
    cmd = case.command
    if cmd in ("solve", "solve-again"):
        if out_bytes != fixture:
            v.failures.append(f"{cmd}: output differs from the first solve")
            return v
        v.merge(_check_coeffs(case, series.energies,
                              lambda j: series.wavefuns[j](_XS),
                              series.norm_coeffs))
        _, y = engine.sum_series(series, case.lam, series.order, normalize=True)
        v.merge(_check_norm(series, case.lam, y))
        table = [float(line.split()[1]) for line in stdout.splitlines()[1:]]
        if table != series.energies:
            v.failures.append(f"{cmd}: printed E_j differ from the JSON")
    elif cmd == "eval":
        last = float(stdout.splitlines()[-1].split()[1])
        summed, _ = engine.sum_series(series, case.lam, series.order)
        if last != summed:
            v.failures.append(f"eval: E(lambda)={last!r} != {summed!r}")
        exact = _ref_energy(case.model, case.n, case.lam)
        if exact is not None:
            err = abs(last - exact) / abs(exact)
            tol = E_TOL + _truncation(series.energies, case.lam) / abs(exact)
            if not err <= tol:
                v.failures.append(f"eval vs exact: error {err:.3e} > tol {tol:.3e}")
    elif cmd == "export":
        lines = out_bytes.decode().splitlines()
        header = "x," + ",".join(f"y{j}" for j in range(series.order + 1))
        if lines[0] != header:
            v.failures.append(f"export: header {lines[0]!r} != {header!r}")
            return v
        rows = np.array([[float(c) for c in line.split(",")]
                         for line in lines[1:]])
        x = rows[:, 0]
        for j in range(series.order + 1):
            ref = _ref_wavefun(case.model, case.n, j)
            if ref is None:
                continue
            exact = ref(x)
            err = np.max(np.abs(rows[:, j + 1] - exact)) / np.max(np.abs(exact))
            v.measure("y", float(err), y_tol(j), f"export y_{j}")
    elif cmd == "oracle":
        values = {}
        for line in stdout.splitlines():
            name, _, val = line.partition("=")
            values[name.strip()] = float(val)
        if case.model == "model3":
            oracle_case = dataclasses.replace(case, n=1, lam=1.0)
            v.merge(check_fd(oracle_case, values["fd_eigenvalue"], case.M))
        else:
            v.merge(check_fd(case, values["fd_eigenvalue"], case.M,
                             values["series_sum"], series.energies))
    elif cmd == "validate":
        if "state OK" not in stdout:
            v.failures.append("validate: state not OK")
    return v
