"""Order-by-order perturbation recurrence built on the Wronskian identity.

Each correction solves ``y_j'' - (v0 - E0) y_j = g_j - E_j y0`` with the
two-term variation-of-parameters map

    V(r)(x) = u(x) * int_a^x y0 r  -  y0(x) * int_a^x u r,

where ``u`` is the second, Wronskian-normalized solution of the unperturbed
equation (W(u, y0) = 1).  ``V`` enforces y_j(a) = y_j'(a) = 0; the energy
coefficient E_j is fixed by the remaining boundary condition y_j(b) = 0,
which is affine in E_j.

The recurrence needs y_j, y_j' and y_j'' only as values on the grid where
V integrates, so it runs there (after Greengard, SIAM J. Numer. Anal. 28,
1991).  One ``_Recurrence`` per series, sized for its order J, owns what
is carried from one order to the next: the values of every lower order
as returned (cut and truncated), y', y'' of the last m, and the boundary
solution V(-y0), solved once per recurrence.  Each order forms g_j
pointwise, and :func:`_vp_values` gives V(g_j) and its derivative

    V(r)'(x) = u'(x) * int_a^x y0 r  -  y0'(x) * int_a^x u r

in one integration pass; y_j'' comes from the order equation itself.  An
order is four transforms and no coefficient derivative, and they run in
the recurrence's two transform batches for its grid (each a
:class:`~pertbvp.funcspace._Batch`: the even-extension and spectrum
buffers of the 2-row VP batch and of the 1-row y_j), so a warm order
allocates no transform buffer; the batches live as long as their grid and
their recurrence.  The grid only grows: an order that needs more degrees
moves every carried row onto the larger grid in one transform pair, a
batched DCT and a batched inverse DCT, and takes fresh batches.  The
Wronskian check reuses the ghost rows of the VP map.
:func:`order_rhs` and :func:`residual` run the problem's operator kernel
on their own alias-free grid; :func:`solve_order` samples g_j from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .funcspace import (_QUIET, SpectralError, SpectralFun, UnresolvedError,
                        _Batch, _clenshaw_curtis_weights,
                        _coeffs_from_samples, _coeffs_in, _grid_size,
                        _integrate_rows, _rows, _truncate, _values_at_extrema,
                        _values_in, _values_of, solve_linear_ivp)
from ._record import Record
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
    "lambda_powers",
    "sum_series",
    "residual",
    "series_to_dict",
    "series_from_dict",
]


class EngineError(Exception):
    """Recurrence failure (degenerate state, broken Wronskian, ...)."""


class GhostFunction(Record):
    """Second unperturbed solution with W(u, y0) = u' y0 - y0' u = 1.

    The fields are ``u``, ``du`` (SpectralFun) and ``wronskian``, the
    measured W: the mean of the values that :func:`ghost` checks (1 for a
    ghost built by hand).  It can be weakly referenced.
    """

    __slots__ = ("u", "du", "wronskian", "__weakref__")
    _defaults = {"wronskian": 1.0}


@dataclass  # a dataclass, for the dataclasses.replace of its callers
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


def _wronskian_defect(samples: np.ndarray) -> float:
    """max |W - 1| over the values of W that :func:`ghost` checks."""
    return float(np.max(np.abs(samples - 1.0)))


def ghost(state: UnperturbedState, problem: PerturbationProblem) -> GhostFunction:
    """Construct u with u(a) = -1/y0'(a), u'(a) = 0, so that W(u, y0) = 1.

    u solves the unperturbed equation u'' = (v0 - E0) u.  For a constant
    v0 = c below E0 that is the closed form u = -cos(w (x - a)) / (A w),
    with y0 = A sin(w (x - a)) and w = sqrt(E0 - c), fitted adaptively.
    Otherwise u comes from a Chebyshev initial-value solve of the equation
    in integral form (:func:`~pertbvp.funcspace.solve_linear_ivp`), with an
    adaptive degree and the same tail rule; an unresolved solve raises
    :class:`EngineError`.  Either way W = u' y0 - y0' u is formed from
    the rows of :func:`_ghost_rows` on the N+1 Chebyshev extrema, N >= 64
    and above every degree: a defect above 1e-10 raises
    :class:`EngineError`, and the mean of W there is kept as
    ``wronskian``, by which :func:`_vp_values` divides.  A y0'(a) within
    1e-12 of the sup of y0' on the Chebyshev extrema is degenerate.
    """
    a, b = problem.domain
    d0 = state.dy0(a)
    sup = np.max(np.abs(_values_at_extrema(
        state.dy0.coeffs, _grid_size(len(state.dy0.coeffs)))))
    if abs(d0) <= 1e-12 * sup:
        raise EngineError("degenerate state: y0'(a) vanishes")

    c = problem.v0_constant()
    if c is not None and state.E0 > c:
        w = np.sqrt(state.E0 - c)
        amp = d0 / w  # y0 = amp sin(w (x-a))
        u = SpectralFun.from_function(
            lambda x: -np.cos(w * (x - a)) / (amp * w), problem.domain)
    else:
        q = problem.v0_fun - SpectralFun.constant(state.E0, problem.domain)
        try:
            u = solve_linear_ivp(q, -1.0 / d0)
        except UnresolvedError as exc:
            raise EngineError(f"ghost solve failed: {exc}") from exc

    du = u.derivative()
    y0v, uv, dy0v, duv = _ghost_rows(
        state, u, du, max(64, _grid_size(max(u.degree, state.y0.degree))))
    samples = duv * y0v - dy0v * uv
    defect = _wronskian_defect(samples)
    if defect > 1e-10:
        raise EngineError(f"Wronskian defect {defect:.3e} exceeds 1e-10")
    return GhostFunction(u, du, float(np.mean(samples)))


def order_rhs(problem: PerturbationProblem, energies, wavefuns,
              j: int) -> SpectralFun:
    """Known part g_j of the order-j right-hand side (E_j still open): the
    operator terms (k, y_(j-k)), k = 1..min(m, j), less the energy sum
    sum_(k<j) E_k y_(j-k), the energies times the lower orders stacked as
    wide as the longest series, in one pass of the operator kernel.  Raises
    :class:`EngineError` unless j >= 1 and orders 0..j-1 are given."""
    if j < 1 or len(wavefuns) < j or len(energies) < j:
        raise EngineError(f"orders 0..{j - 1} required before order {j}")
    ys = [y.coeffs for y in wavefuns[j - 1::-1]]  # y_(j-1), ..., y_0
    mm = min(len(problem.perturbations), j)
    width = max(map(len, ys[:max(mm, j - 1)]))
    return problem._operator_fun(list(enumerate(ys[:mm], start=1)),
                                 np.asarray(energies[1:j], dtype=float),
                                 _rows(ys[:j - 1], np.empty((j - 1, width))))


def _ghost_rows(state: UnperturbedState, u: SpectralFun, du: SpectralFun,
                n: int) -> np.ndarray:
    """Rows (y0, u, y0', u') of values at the n+1 extrema."""
    return _values_at_extrema(
        [f.coeffs for f in (state.y0, u, state.dy0, du)], n)


def _vp_values(state: UnperturbedState, gh: GhostFunction, rows: np.ndarray,
               r: np.ndarray, pair: _Batch) -> np.ndarray:
    """Rows (V(r), V(r)') of values at the N+1 Chebyshev extrema from the
    values ``r`` of r there and the ghost rows ``rows`` of
    :func:`_ghost_rows` on the same grid, with

        V(r)' = (u' int_a^x y0 r - y0' int_a^x u r) / W,

    because the terms u y0 r - y0 u r of the product rule cancel.

    W is ``gh.wronskian``, which makes V exact for any constant Wronskian.
    The caller picks N above the degree of V(r), so every product below is
    exact up to rounding: the products y0 r and u r go to coefficients in
    one batched DCT, are integrated from a in coefficient form and come
    back in one batched inverse DCT; the rest is pointwise.  The products
    go straight into the head of the 2-row batch ``pair`` on the grid, and
    the integrals into the head its inverse DCT reads.  Callers run it
    under ``_QUIET``.
    """
    a, b = state.y0.domain
    np.multiply(rows[:2], r, out=pair.head)
    _integrate_rows(_coeffs_in(pair), pair.head)
    int_y0, int_u = _values_in(pair)
    out = rows[1::2] * int_y0 - rows[0::2] * int_u
    out *= 0.5 * (b - a) / gh.wronskian
    return out


def _vp(state: UnperturbedState, gh: GhostFunction,
        r: SpectralFun) -> SpectralFun:
    """V(r) for a series r: r sampled on the N+1 extrema, N the smallest
    power of two above the degree of the result, then the value row of
    :func:`_vp_values`, one DCT and one truncation.  The recurrence does
    not call it: it is V as a map of series."""
    n = _grid_size(len(gh.u.coeffs) + len(state.y0.coeffs)
                   + len(r.coeffs) - 2)
    with np.errstate(**_QUIET):
        values = _vp_values(state, gh, _ghost_rows(state, gh.u, gh.du, n),
                            _values_at_extrema(r.coeffs, n),
                            _Batch((2,), n))[0]
        return SpectralFun._adopt(r.a, r.b,
                                  _truncate(_coeffs_from_samples(values)))


def _boundary_solution(state: UnperturbedState,
                       gh: GhostFunction) -> np.ndarray:
    """Coefficients of the rows (phi_b, phi_b') with phi_b = V(-y0), the
    E_j-part of every order, untruncated, on the smallest grid above the
    degree of phi_b.  Raises :class:`EngineError` when phi_b(b) vanishes
    against the sup of phi_b there: then y_j(b) = 0 cannot fix E_j.  The
    callers of :meth:`_Recurrence._place` run it under ``_QUIET``."""
    n = _grid_size(gh.u.degree + 2 * state.y0.degree)
    rows = _ghost_rows(state, gh.u, gh.du, n)
    values = _vp_values(state, gh, rows, -rows[0], _Batch((2,), n))
    coeffs = _coeffs_from_samples(values)
    # phi_b(b): T_k(1) = 1
    if abs(coeffs[0].sum()) <= 1e-12 * np.max(np.abs(values[0])):
        raise EngineError(
            "boundary equation degenerate (u(b) ~ 0): invalid state")
    return coeffs


def _rhs_degree(problem: PerturbationProblem, wavefuns, j: int,
                maxdeg: int) -> int:
    """D, the degree bound of g_j: the largest degree ``maxdeg`` of y_0 ..
    y_(j-1) and of every P_k y_(j-k)."""
    return max([maxdeg] + [
        problem._operator_degree(k, wavefuns[j - k].degree)
        for k in range(1, min(len(problem.perturbations), j) + 1)])


def _room(problem: PerturbationProblem, state: UnperturbedState,
          gh: GhostFunction, wavefuns, j: int, maxdeg: int) -> int:
    """The room of order j, deg u + deg y0 + D + 2, D the degree bound of
    g_j (:func:`_rhs_degree`).  y_j = V(g_j) + E_j phi_b has degree
    room - 1 at most, and V(g_j) is exact on the N+1 extrema, N a power of
    two above room - 2."""
    return (gh.u.degree + state.y0.degree + 2
            + _rhs_degree(problem, wavefuns, j, maxdeg))


class _Recurrence:
    """The recurrence of one state from its y_0 through order J:
    ``energies`` and ``wavefuns`` start as [E_0] and [y_0], and each of the
    at most J calls of :meth:`step` appends (E_j, y_j) to them.

    It carries values on the N+1 extrema of one grid (``n``, 0 before the
    first step), where :meth:`_place` puts them: y_0 .. y_(j-1) in the
    first j of the J + 1 rows of ``values``, a block (y'', y', y) for each
    of the last m orders in ``derivs``, the block (phi_b'', phi_b', phi_b)
    in ``phi`` and max|phi_b| in ``phi_sup``, v0 - E0 in ``q``, the ghost
    rows of :func:`_ghost_rows` in ``rows`` and the rows
    (p2, p1, p0) of each P_k in ``ops``.  Every transform of an order runs
    in one of the grid's two transform batches
    (:class:`~pertbvp.funcspace._Batch`), ``pair`` for the 2-row VP batch
    and ``row`` for y_j: :meth:`_place` makes them with the grid and
    replaces them when the grid grows, and they die with the recurrence
    (no two recurrences share one).  E_(j-1) .. E_1 are the last j - 1
    of the J entries of the contiguous ``ereverse`` (E_k at index -k), so
    the energy sum is one matrix-vector product.  ``ereverse`` is
    allocated once, ``values`` once per grid.  ``base`` is deg u + deg y0
    + 2, the part of :func:`_room` that no order changes; ``maxdeg`` is the
    largest degree of the orders, and ``full`` tells whether the last step
    kept every coefficient up to its exact degree.  (A mutable plain class,
    not a :class:`~pertbvp._record.Record`: the steps change it in place.)
    """

    __slots__ = ("problem", "state", "gh", "energies", "wavefuns", "n",
                 "values", "derivs", "phi", "phi_sup", "q", "rows", "ops",
                 "pair", "row", "ereverse", "base", "maxdeg", "full")

    def __init__(self, problem: PerturbationProblem, state: UnperturbedState,
                 gh: GhostFunction, J: int):
        self.problem, self.state, self.gh = problem, state, gh
        self.energies, self.wavefuns = [state.E0], [state.y0]
        self.ereverse = np.empty(J)
        self.base = _room(problem, state, gh, (), 0, 0)  # the room at D = 0
        self.maxdeg = state.y0.degree
        self.n, self.full = 0, False

    def _place(self, n: int):
        """Put what is carried on the n+1 extrema: one batched inverse DCT
        samples the ghost rows (y0, u, y0', u'), v0 and the coefficients of
        y_0 .. y_(j-1) and (phi_b, phi_b'), and of (y'', y') of each carried
        block when the grid grows.  The first placement takes y_0 and the
        boundary solution, solved here, and carries y_0's block (q y0, y0',
        y0) from the unperturbed equation; a later one takes every row from
        one batched DCT of the carried values.  phi_b'' = q phi_b - y0
        comes from the equation phi_b = V(-y0) solves.  No carried array is
        a view of the batch.  Fresh transform batches on the grid replace
        the last ones, and the operator rows of the grid replace theirs.
        """
        problem, state, gh = self.problem, self.state, self.gh
        j = len(self.wavefuns)
        if self.n:
            rows = list(_coeffs_from_samples(np.concatenate(
                [self.values[:j], self.phi[2:0:-1]]
                + [d[:2] for d in self.derivs])))
        else:
            rows = [state.y0.coeffs, *_boundary_solution(state, gh)]
        out = _values_at_extrema(
            [f.coeffs for f in (state.y0, gh.u, state.dy0, gh.du,
                                problem.v0_fun)] + rows, n)
        self.rows = out[:4].copy()
        self.q = out[4] - state.E0
        self.values = np.empty((len(self.ereverse) + 1, n + 1))
        self.values[:j] = out[5:5 + j]
        y0 = self.values[0]
        phi_b, dphi_b = out[5 + j:7 + j]
        self.phi = np.stack((self.q * phi_b - y0, dphi_b, phi_b))
        self.phi_sup = np.abs(phi_b).max()
        if self.n:
            pairs = out[7 + j:]
            self.derivs = [np.stack(block) for block in zip(
                pairs[0::2], pairs[1::2], self.values[j - len(self.derivs):j])]
        else:
            self.derivs = [np.stack((self.q * y0, self.rows[2], y0))]
        self.ops = [problem._operator_values(k, n)
                    for k in range(1, len(problem.perturbations) + 1)]
        self.pair, self.row = _Batch((2,), n), _Batch((), n)
        self.n = n

    def step(self):
        """Append and return (E_j, y_j), j the number of orders held; it
        runs at most J times (past J it raises IndexError before it appends
        anything).  It holds no ``np.errstate``: :func:`compute_series` runs
        its steps under ``_QUIET``.

        The grid is the smallest power of two above :func:`_room` - 2,
        where V(g_j) is exact.  The first step, and a step that needs a
        larger grid, first put what is carried on it (:meth:`_place`).
        g_j = sum_k P_k y_(j-k) - sum_(k<j) E_k y_(j-k) is formed pointwise
        from the carried y, y' and y'' and one product of the energies with
        the carried values, :meth:`_order` finishes y_j, and one inverse DCT
        gives its values as returned, cut and truncated, which the next
        orders use: four transforms in all.

        When the truncation keeps every coefficient up to the exact degree
        in two orders in a row, their rounding noise has reached the top of
        the room V leaves, and each further order would add deg u + deg y0
        + 1 degrees of noise: that raises :class:`EngineError` naming the
        order.  One such order alone does not (a spike in the last
        coefficients).
        """
        problem = self.problem
        j = len(self.wavefuns)
        mm = min(len(problem.perturbations), j)
        room = self.base + _rhs_degree(problem, self.wavefuns, j, self.maxdeg)
        n = _grid_size(room - 2)
        if n > self.n:
            self._place(n)
        ops, derivs = self.ops, self.derivs
        g = np.einsum("ij,ij->j", ops[0], derivs[-1])
        for k in range(2, mm + 1):
            g += np.einsum("ij,ij->j", ops[k - 1], derivs[-k])
        if j > 1:  # the energy sum of order 1 is empty
            g -= self.ereverse[1 - j:] @ self.values[1:j]
        e_j, block, coeffs = self._order(g, room)
        full = len(coeffs) == room
        if full and self.full:
            raise EngineError(
                f"order {j}: y_{j - 1} and y_{j} are rounding noise up to "
                f"their exact degree (y_{j} has degree {room - 1}); the "
                "series is not resolved from here on")
        # carry the values of y_j as returned, cut and truncated
        block[2] = _values_of(self.row, coeffs)
        y_j = SpectralFun._adopt(problem.a, problem.b, coeffs)
        self.values[j] = block[2]
        self.ereverse[-j] = e_j
        self.energies.append(e_j)
        self.wavefuns.append(y_j)
        derivs.append(block)
        del derivs[:-len(problem.perturbations)]
        self.maxdeg = max(self.maxdeg, len(coeffs) - 1)
        self.full = full
        return e_j, y_j

    def _order(self, g: np.ndarray, room: int):
        """E_j, the block (y_j'', y_j', y_j) of values and the coefficients
        of y_j = V(g_j) + E_j phi_b from the values ``g`` of g_j on the
        carried grid, for :meth:`step` and :func:`solve_order` alike, both
        with overflow and invalid operations ignored:

        - :func:`_vp_values` gives V(g_j) and V(g_j)', so y_j and y_j' are
          pointwise sums, and E_j comes from the values at b;
        - y_j'' = (v0 - E0) V(g_j) + g_j + E_j phi_b'' by the order equation;
        - a y_j within 1e-13 of E_j phi_b (then as large as V(g_j)) is an
          order that vanishes exactly: the block is 0;
        - one DCT gives the coefficients of y_j; those from ``room`` (see
          :func:`_room`) on, above the exact degree of V(g_j) + E_j phi_b,
          are rounding noise and are dropped before the truncation.
        """
        phi_a = _vp_values(self.state, self.gh, self.rows, g, self.pair)
        e_j = float(-phi_a[0, 0] / self.phi[2, 0])
        if not math.isfinite(e_j):
            raise SpectralError("series coefficients not finite")
        block = self.phi * e_j  # becomes y_j'', y_j', y_j
        block[:0:-1] += phi_a
        block[0] += self.q * phi_a[0]
        block[0] += g
        noise = 1e-13 * abs(e_j) * self.phi_sup
        if np.maximum.reduce(np.abs(block[2])) <= noise < math.inf:
            block[:] = 0.0  # an order that vanishes exactly
        self.row.head[...] = block[2]
        coeffs = _coeffs_in(self.row)
        coeffs[room:] = 0.0
        return e_j, block, _truncate(coeffs)


def solve_order(problem: PerturbationProblem, state: UnperturbedState,
                gh: GhostFunction, energies, wavefuns, j: int):
    """Return (E_j, y_j) given all lower orders: g_j from :func:`order_rhs`
    on the grid a step would pick, finished by :meth:`_Recurrence._order`
    of a recurrence from y_0 placed there, so the step's cut and its rule
    for an order that vanishes hold.  Nothing is carried from one call to
    the next, and the stop on two full orders in a row acts only in
    :func:`compute_series`.  A non-finite result raises SpectralError."""
    g = order_rhs(problem, energies, wavefuns, j)
    room = _room(problem, state, gh, wavefuns, j,
                 max(y.degree for y in wavefuns[:j]))
    rec = _Recurrence(problem, state, gh, 0)
    with np.errstate(**_QUIET):
        rec._place(_grid_size(room - 2))
        e_j, _, coeffs = rec._order(_values_at_extrema(g.coeffs, rec.n),
                                    room)
    return e_j, SpectralFun._adopt(problem.a, problem.b, coeffs)


def solvability_energy(state: UnperturbedState, g: SpectralFun) -> float:
    """Independent route to E_j: ratio of projections onto y0."""
    num = (state.y0 * g).definite_integral()
    den = (state.y0 * state.y0).definite_integral()
    return num / den


def compute_series(problem: PerturbationProblem, state: UnperturbedState,
                   J: int) -> PerturbationSeries:
    """Run the recurrence through order J and attach normalization.

    The series builds one ghost and one :class:`_Recurrence`, stepped J
    times: the boundary solution V(-y0) is solved once (when J >= 1), and
    every order runs on the values that the previous one left.  A series
    that sinks into its rounding raises :class:`EngineError` (see
    :meth:`_Recurrence.step`).
    """
    if J < 0:
        raise EngineError(f"order must be >= 0, got {J}")
    rec = _Recurrence(problem, state, ghost(state, problem), J)
    with np.errstate(**_QUIET):
        for _ in range(J):
            rec.step()
    energies, wavefuns = rec.energies, rec.wavefuns
    del rec  # and the values it carries, before the normalization's grid
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
    n = max(2 * max(y.degree for y in ys), 2)
    values = _values_at_extrema([y.coeffs for y in ys], n)
    gram = (values * (0.5 * (b - a) * _clenshaw_curtis_weights(n))) @ values.T
    order = np.add.outer(np.arange(len(ys)), np.arange(len(ys)))
    s = np.bincount(order.ravel(), weights=gram.ravel())[:J + 1].tolist()
    t = _inv_sqrt_series(s)
    return [state.report_scale * v for v in t]


def lambda_powers(lam: float, upto: int) -> list:
    """lam^0 ... lam^upto, each the Python float ``lam ** j``; a power that
    overflows raises EngineError naming its order."""
    powers = []
    for j in range(upto + 1):
        try:
            powers.append(lam ** j)
        except OverflowError:
            raise EngineError(
                f"lambda^{j} overflows at lambda = {lam!r}") from None
    return powers


def sum_series(series: PerturbationSeries, lam: float, upto: int,
               normalize: bool = False):
    """Partial sums E(lam), y(lam) truncated at order ``upto``.

    With ``normalize`` the summed wavefunction is multiplied by the
    normalization series (N_j / N_0, matching the internal wavefunction
    scale), so its L2 norm is 1 + O(lam^(upto+1)).
    """
    if upto > series.order or upto < 0:
        raise EngineError(f"truncation order {upto} outside 0..{series.order}")
    powers = lambda_powers(lam, upto)
    energy = sum(e * p for e, p in zip(series.energies, powers))
    y = series.wavefuns[0]
    if upto > 0:
        # y_0 + y_1 lam + ... accumulated in one padded array, with the
        # additions (and so the bits) of the chain of SpectralFun sums
        ys = series.wavefuns[:upto + 1]
        acc = np.zeros(max(len(f.coeffs) for f in ys))
        for f, p in zip(ys, powers):
            acc[:len(f.coeffs)] += f.coeffs * p
        y = SpectralFun._adopt(y.a, y.b, acc)
    if normalize:
        n0 = series.norm_coeffs[0]
        factor = sum(nj / n0 * p for nj, p in zip(series.norm_coeffs, powers))
        y = y * factor
    return energy, y


def residual(problem: PerturbationProblem, lam: float, energy: float,
             y: SpectralFun) -> float:
    """Relative sup-norm defect of (E, y) in the original equation:
    P_0 y + E y - sum_k lam^k P_k y from one pass of the operator kernel."""
    c = y.coeffs
    powers = lambda_powers(lam, len(problem.perturbations))
    terms = [(0, c)] + [(k, -powers[k] * c) for k in range(1, len(powers))]
    r = problem._operator_fun(terms, -energy, c)
    return r.sup_norm() / y.sup_norm()


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


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer (not a boolean), else
    :class:`EngineError` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise EngineError(f"series file {what} is not an integer: {value!r}")
    return value


def series_from_dict(data: dict) -> PerturbationSeries:
    """Inverse of :func:`series_to_dict`; raises :class:`EngineError` unless
    ``n`` is an integer >= 1, the orders are integers 0..J on one finite
    interval with finite coefficients, every ``E`` and ``norm`` entry is a
    finite number, one ``norm`` entry per order, and N_0 is not zero."""
    n = _json_int(data["n"], "n")
    if n < 1:
        raise EngineError(f"series file n must be >= 1, got {n}")
    for o in data["orders"]:
        _json_int(o["j"], "order index j")
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
        n=n,
        energies=energies,
        wavefuns=wavefuns,
        norm_coeffs=norm_coeffs,
    )
