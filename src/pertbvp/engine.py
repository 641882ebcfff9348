"""Order-by-order perturbation recurrence built on the Wronskian identity.

Each correction solves ``y_j'' - (v0 - E0) y_j = g_j - E_j y0`` with the
two-term variation-of-parameters map

    V(r)(x) = u(x) * int_a^x y0 r  -  y0(x) * int_a^x u r,

where ``u`` is the second, Wronskian-normalized solution of the unperturbed
equation (W(u, y0) = 1).  ``V`` enforces y_j(a) = y_j'(a) = 0; the energy
coefficient E_j is fixed by the remaining boundary condition y_j(b) = 0,
which is affine in E_j.

The boundary solution V(-y0) is computed once per ghost.  Each order then
makes one pass on the N+1 Chebyshev extrema of its VP map: the problem's
operator kernel samples g_j there straight from the lower orders, and
:func:`_vp_samples` integrates it on the same grid.  :func:`order_rhs` and
:func:`residual` run the same kernel on their own alias-free grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .funcspace import (SpectralError, SpectralFun, UnresolvedError,
                        _clenshaw_at_minus_one, _clenshaw_curtis_weights,
                        _coeffs_from_samples, _grid_size, _integrate_rows,
                        _rows, _truncate, _values_at_extrema,
                        solve_linear_ivp)
from .problem import PerturbationProblem, UnperturbedState

__all__ = [
    "GhostFunction",
    "PerturbationSeries",
    "EngineError",
    "ghost",
    "order_rhs",
    "solve_order",
    "solvability_energy",
    "compute_series",
    "normalization_coeffs",
    "sum_series",
    "residual",
    "series_to_dict",
    "series_from_dict",
]


class EngineError(Exception):
    """Recurrence failure (degenerate state, broken Wronskian, ...)."""


@dataclass(frozen=True)
class GhostFunction:
    """Second unperturbed solution with W(u, y0) = u' y0 - y0' u = 1.

    ``wronskian`` is the measured W: the mean of the samples that
    :func:`ghost` checks (1 for a ghost built by hand).  ``_grid`` holds the
    values of y0 and u on the Chebyshev grids of :func:`_vp`, per grid size,
    and under ``"phi_b"`` the boundary solution V(-y0), solved once per
    ghost; each entry is kept with the y0 it was computed for.
    """

    u: SpectralFun
    du: SpectralFun
    wronskian: float = 1.0
    _grid: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)


@dataclass
class PerturbationSeries:
    """Corrections (E_j, y_j) for j = 0..J plus normalization coefficients.

    ``wavefuns`` are in the internal unit-L2 scale of the state's y0;
    ``norm_coeffs`` are reported in the state's user amplitude convention.
    """

    state: UnperturbedState | None
    n: int
    energies: list  # E_0 .. E_J
    wavefuns: list  # y_0 .. y_J
    norm_coeffs: list  # N_0 .. N_J

    @property
    def order(self) -> int:
        return len(self.energies) - 1


def _wronskian_samples(gh: GhostFunction,
                       state: UnperturbedState) -> np.ndarray:
    """W = u' y0 - y0' u at the N+1 Chebyshev extrema, N >= 64 and above
    every degree, from one batched transform of u, u', y0, y0'."""
    funs = [f.coeffs for f in (gh.u, gh.du, state.y0, state.dy0)]
    width = max(len(c) for c in funs)
    n = max(64, _grid_size(width - 1))
    u, du, y0, dy0 = _values_at_extrema(_rows(funs, width), n)
    return du * y0 - dy0 * u


def _wronskian_defect(samples: np.ndarray) -> float:
    """max |W - 1| over the samples of :func:`_wronskian_samples`."""
    return float(np.max(np.abs(samples - 1.0)))


def ghost(state: UnperturbedState, problem: PerturbationProblem) -> GhostFunction:
    """Construct u with u(a) = -1/y0'(a), u'(a) = 0, so that W(u, y0) = 1.

    u solves the unperturbed equation u'' = (v0 - E0) u.  When v0 is
    identically zero that is the closed form u = -cos(w (x - a)) / (c w)
    with w = sqrt(E0), fitted adaptively.  Otherwise u comes from a
    Chebyshev initial-value solve of the equation in integral form
    (:func:`~pertbvp.funcspace.solve_linear_ivp`), with an adaptive degree
    and the same tail rule; an unresolved solve raises
    :class:`EngineError`.  Either way the Wronskian is sampled on the
    Chebyshev grid of :func:`_wronskian_samples`: a defect above 1e-10
    raises :class:`EngineError`, and the samples' mean is kept as
    ``wronskian``, by which :func:`_vp` divides.
    """
    a, b = problem.domain
    # y0'(a) by Clenshaw on Python floats: bit for bit as chebval gives it
    dc = state.dy0.coeffs.tolist()
    d0 = dc[0] if len(dc) == 1 else _clenshaw_at_minus_one(dc)
    if abs(d0) < 1e-12:
        raise EngineError("degenerate state: y0'(a) vanishes")

    if problem.v0_is_zero():
        w = np.sqrt(state.E0)
        c = d0 / w  # y0 = c sin(w (x-a))
        u = SpectralFun.from_function(
            lambda x: -np.cos(w * (x - a)) / (c * w), problem.domain)
    else:
        q = problem.v0_fun - SpectralFun.constant(state.E0, problem.domain)
        try:
            u = solve_linear_ivp(q, -1.0 / d0)
        except UnresolvedError as exc:
            raise EngineError(f"ghost solve failed: {exc}") from exc

    gh = GhostFunction(u=u, du=u.derivative())
    samples = _wronskian_samples(gh, state)
    defect = _wronskian_defect(samples)
    if defect > 1e-10:
        raise EngineError(f"Wronskian defect {defect:.3e} exceeds 1e-10")
    return replace(gh, wronskian=float(np.mean(samples)))


def _rhs_terms(problem: PerturbationProblem, energies, wavefuns, j: int):
    """The operator terms (k, y_(j-k)), k = 1..min(m, j), of g_j and its
    energy sum sum_(k<j) E_k y_(j-k): one product of the energies with the
    lower orders, stacked as wide as the longest series.  Raises
    :class:`EngineError` unless j >= 1 and orders 0..j-1 are given."""
    if j < 1 or len(wavefuns) < j or len(energies) < j:
        raise EngineError(f"orders 0..{j - 1} required before order {j}")
    ys = [y.coeffs for y in wavefuns[j - 1::-1]]  # y_(j-1), ..., y_0
    mm = min(len(problem.perturbations), j)
    width = max(map(len, ys[:max(mm, j - 1)]))
    return (list(enumerate(ys[:mm], start=1)),
            np.asarray(energies[1:j], dtype=float) @ _rows(ys[:j - 1], width))


def order_rhs(problem: PerturbationProblem, energies, wavefuns,
              j: int) -> SpectralFun:
    """Known part g_j of the order-j right-hand side (E_j still open)."""
    return problem._operator_fun(*_rhs_terms(problem, energies, wavefuns, j))


def _ghost_grid(gh: GhostFunction, y0: SpectralFun, n: int) -> np.ndarray:
    """Rows (y0, u) of values at the n+1 extrema, cached on ``gh`` per n."""
    hit = gh._grid.get(n)
    if hit is None or hit[0] is not y0:
        funs = (y0.coeffs, gh.u.coeffs)
        hit = (y0, _values_at_extrema(_rows(funs, max(map(len, funs))), n))
        gh._grid[n] = hit
    return hit[1]


def _vp_samples(state: UnperturbedState, gh: GhostFunction,
                r: np.ndarray) -> np.ndarray:
    """Coefficients of V(r) = (u int_a^x y0 r - y0 int_a^x u r) / W from
    the values ``r`` of r at the N+1 Chebyshev extrema, untruncated.

    W is ``gh.wronskian``, which makes V exact for any constant Wronskian.
    The caller picks N above the degree of the result, so every product
    below is exact up to rounding: the products y0 r and u r go to
    coefficients in one batched DCT, are integrated from a in coefficient
    form, come back in one batched inverse DCT, are combined with u and y0
    pointwise, and one DCT gives V(r).
    """
    a, b = state.y0.domain
    n = len(r) - 1
    y0_u = _ghost_grid(gh, state.y0, n)
    # an overflow turns into NaN in the transforms; _truncate reports it
    with np.errstate(invalid="ignore"):
        ints = _integrate_rows(_coeffs_from_samples(y0_u * r))
        int_y0, int_u = _values_at_extrema(ints, n)
        out = _coeffs_from_samples(y0_u[1] * int_y0 - y0_u[0] * int_u)
    out *= 0.5 * (b - a) / gh.wronskian
    return out


def _vp(state: UnperturbedState, gh: GhostFunction,
        r: SpectralFun) -> SpectralFun:
    """V(r) for a series r: r sampled on the N+1 extrema, N the smallest
    power of two above the degree of the result, then
    :func:`_vp_samples` and one truncation."""
    n = _grid_size(len(gh.u.coeffs) + len(state.y0.coeffs)
                   + len(r.coeffs) - 2)
    with np.errstate(invalid="ignore"):
        values = _values_at_extrema(r.coeffs, n)
    return SpectralFun._adopt(r.a, r.b, _truncate(_vp_samples(state, gh,
                                                              values)))


def _boundary_solution(state: UnperturbedState, gh: GhostFunction):
    """(phi_b, phi_b(b)) with phi_b = V(-y0): the E_j-part of every order,
    solved on first use and kept on ``gh`` for this y0.

    Raises :class:`EngineError` when phi_b(b) vanishes, because then the
    boundary condition y_j(b) = 0 cannot fix E_j.
    """
    hit = gh._grid.get("phi_b")
    if hit is None or hit[0] is not state.y0:
        phi_b = _vp(state, gh, -state.y0)
        denom = float(phi_b.coeffs.sum())  # phi_b(b): T_k(1) = 1
        if abs(denom) < 1e-12:
            raise EngineError(
                "boundary equation degenerate (u(b) ~ 0): invalid state")
        hit = (state.y0, phi_b, denom)
        gh._grid["phi_b"] = hit
    return hit[1:]


def solve_order(problem: PerturbationProblem, state: UnperturbedState,
                gh: GhostFunction, energies, wavefuns, j: int):
    """Return (E_j, y_j) given all lower orders.

    y_j = V(g_j) + E_j phi_b with the boundary solution phi_b = V(-y0),
    which is solved once per ghost, and E_j fixed by y_j(b) = 0.
    g_j = sum_k P_k y_(j-k) - sum_(k<j) E_k y_(j-k) is sampled by
    :meth:`PerturbationProblem._operator_samples` straight onto the grid of
    :func:`_vp_samples`, N above the degree bound of g_j plus deg u +
    deg y0 (V(g_j) has one degree more).  E_j comes from the coefficient
    sums (the values at b), and y_j is truncated once.
    """
    phi_b, denom = _boundary_solution(state, gh)
    # an overflow turns into NaN in the transforms; _truncate reports it
    with np.errstate(over="ignore", invalid="ignore"):
        phi_a = _vp_samples(state, gh, problem._operator_samples(
            *_rhs_terms(problem, energies, wavefuns, j),
            pad=gh.u.degree + state.y0.degree))
        # phi_a(b) as the correctly rounded sum of all N+1 coefficients:
        # the untruncated rounding tail would add noise to a plain sum
        try:
            e_j = -math.fsum(phi_a.tolist()) / denom
        except (ValueError, OverflowError):  # inf - inf, or an overflow
            e_j = math.nan
        if not math.isfinite(e_j):
            raise SpectralError("series coefficients not finite")
        y_j = np.zeros(max(len(phi_a), len(phi_b.coeffs)))
        y_j[:len(phi_a)] = phi_a
        y_j[:len(phi_b.coeffs)] += phi_b.coeffs * e_j
    return e_j, SpectralFun._adopt(problem.a, problem.b, _truncate(y_j))


def solvability_energy(state: UnperturbedState, g: SpectralFun) -> float:
    """Independent route to E_j: ratio of projections onto y0."""
    num = (state.y0 * g).definite_integral()
    den = (state.y0 * state.y0).definite_integral()
    return num / den


def compute_series(problem: PerturbationProblem, state: UnperturbedState,
                   J: int) -> PerturbationSeries:
    """Run the recurrence through order J with :func:`solve_order` and
    attach normalization.

    The series builds one ghost, and the boundary solution V(-y0) is solved
    once per ghost (when J >= 1), so the series costs J + 1
    variation-of-parameters solves.
    """
    if J < 0:
        raise EngineError(f"order must be >= 0, got {J}")
    gh = ghost(state, problem)
    energies = [state.E0]
    wavefuns = [state.y0]
    for j in range(1, J + 1):
        e_j, y_j = solve_order(problem, state, gh, energies, wavefuns, j)
        energies.append(e_j)
        wavefuns.append(y_j)
    norm = normalization_coeffs(state, wavefuns, J)
    return PerturbationSeries(state=state, n=state.n, energies=energies,
                              wavefuns=wavefuns, norm_coeffs=norm)


def _inv_sqrt_series(s: list) -> list:
    """Coefficients of S(t)^(-1/2) for a power series S with S_0 > 0.

    Term-by-term recurrence from 2 S T' = -S' T.
    """
    s0 = s[0]
    if s0 <= 0.0:
        raise EngineError(f"series constant term must be positive, got {s0}")
    shat = [v / s0 for v in s]
    t = [1.0] + [0.0] * (len(s) - 1)
    for m in range(1, len(s)):
        acc = 0.0
        for k in range(1, m + 1):
            acc -= (m - k) * shat[k] * t[m - k] if k < m else 0.0
            acc -= 0.5 * k * shat[k] * t[m - k]
        t[m] = acc / m
    scale = 1.0 / np.sqrt(s0)
    return [scale * v for v in t]


def normalization_coeffs(state: UnperturbedState, wavefuns, J: int) -> list:
    """Normalization coefficients N_0..N_J in the user amplitude convention.

    Internally these are the power-series inverse square root of
    S(t) = sum_m t^m S_m, S_m = sum_{i+j=m} G_ij, rescaled by the state's
    report factor so the caller's amplitude convention is honored.  The
    Gram matrix G_ij = int y_i y_j comes from one Clenshaw-Curtis rule:
    every y_j is sampled at the same N+1 Chebyshev extrema (one batched
    inverse DCT-I, N >= twice the largest degree, so each product y_i y_j
    is integrated exactly up to rounding), and G = V diag(w) V^T.
    """
    ys = wavefuns[:J + 1]
    a, b = ys[0].domain
    width = max(len(y.coeffs) for y in ys)
    n = max(2 * (width - 1), 2)
    values = _values_at_extrema(_rows([y.coeffs for y in ys], width), n)
    gram = (values * (0.5 * (b - a) * _clenshaw_curtis_weights(n))) @ values.T
    order = np.add.outer(np.arange(len(ys)), np.arange(len(ys)))
    s = np.bincount(order.ravel(), weights=gram.ravel())[:J + 1].tolist()
    t = _inv_sqrt_series(s)
    return [state.report_scale * v for v in t]


def sum_series(series: PerturbationSeries, lam: float, upto: int,
               normalize: bool = False):
    """Partial sums E(lam), y(lam) truncated at order ``upto``.

    With ``normalize`` the summed wavefunction is multiplied by the
    normalization series (N_j / N_0, matching the internal wavefunction
    scale), so its L2 norm is 1 + O(lam^(upto+1)).
    """
    if upto > series.order or upto < 0:
        raise EngineError(f"truncation order {upto} outside 0..{series.order}")
    energy = sum(series.energies[j] * lam ** j for j in range(upto + 1))
    y = series.wavefuns[0]
    if upto > 0:
        # y_0 + y_1 lam + ... accumulated in one padded array, with the
        # additions (and so the bits) of the chain of SpectralFun sums
        ys = series.wavefuns[:upto + 1]
        acc = np.zeros(max(len(f.coeffs) for f in ys))
        for j, f in enumerate(ys):
            acc[:len(f.coeffs)] += f.coeffs * (lam ** j)
        y = SpectralFun._adopt(y.a, y.b, acc)
    if normalize:
        n0 = series.norm_coeffs[0]
        factor = sum(series.norm_coeffs[j] / n0 * lam ** j
                     for j in range(upto + 1))
        y = y * factor
    return energy, y


def residual(problem: PerturbationProblem, lam: float, energy: float,
             y: SpectralFun) -> float:
    """Relative sup-norm defect of (E, y) in the original equation:
    P_0 y + E y - sum_k lam^k P_k y from one pass of the operator kernel."""
    c = y.coeffs
    terms = [(0, c)] + [(k, -(lam ** k) * c)
                        for k in range(1, len(problem.perturbations) + 1)]
    r = problem._operator_fun(terms, -energy * c)
    xs = np.linspace(problem.a, problem.b, 256)
    return float(np.max(np.abs(r(xs)))) / y.sup_norm()


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def series_to_dict(series: PerturbationSeries) -> dict:
    return {
        "n": series.n,
        "E0": series.energies[0],
        "orders": [
            {"j": j, "E": series.energies[j], "y": series.wavefuns[j].to_dict()}
            for j in range(series.order + 1)
        ],
        "norm": list(series.norm_coeffs),
    }


def _finite_number(value, what: str) -> float:
    """``value`` as a float if it is a finite JSON number (not a boolean),
    else :class:`EngineError` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(float(value)):
        raise EngineError(f"series file {what} is not a finite number: "
                          f"{value!r}")
    return float(value)


def series_from_dict(data: dict) -> PerturbationSeries:
    """Inverse of :func:`series_to_dict`; raises :class:`EngineError` unless
    the orders are 0..J on one finite interval with finite coefficients,
    every ``E`` and ``norm`` entry is a finite number, one ``norm`` entry
    per order, and N_0 is not zero."""
    orders = sorted(data["orders"], key=lambda o: o["j"])
    if not orders or [o["j"] for o in orders] != list(range(len(orders))):
        raise EngineError("series file orders are not contiguous from 0")
    wavefuns = [SpectralFun.from_dict(o["y"]) for o in orders]
    if len({y.domain for y in wavefuns}) != 1:
        raise EngineError("series file orders lie on different domains")
    if not all(np.all(np.isfinite(y.coeffs)) and math.isfinite(y.b - y.a)
               for y in wavefuns):
        raise EngineError("series file holds a non-finite domain or "
                          "coefficient")
    energies = [_finite_number(o["E"], f"E of order {o['j']}")
                for o in orders]
    norm_coeffs = [_finite_number(v, "norm entry") for v in data["norm"]]
    if len(norm_coeffs) != len(orders):
        raise EngineError(f"series file has {len(norm_coeffs)} norm entries "
                          f"for {len(orders)} orders")
    if norm_coeffs[0] == 0.0:
        raise EngineError("series file norm entry N_0 is zero")
    return PerturbationSeries(
        state=None,
        n=int(data["n"]),
        energies=energies,
        wavefuns=wavefuns,
        norm_coeffs=norm_coeffs,
    )
