"""Problem definition: canonical eigenproblem, config files, unperturbed states.

The canonical form is

    y''(x) = v0(x) y - E y + sum_k lambda^k P_k(y),   y(a) = y(b) = 0,

where each perturbation operator acts as ``P(f) = p2 f'' + p1 f' + p0 f``
with closed-form coefficient functions.  Order 0 is the unperturbed
operator P_0 f = f'' - v0 f.  One grid kernel applies any sum of them.
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import expr as ex
from ._record import Record
from .funcspace import (_QUIET, SpectralFun, _coeffs_from_samples,
                        _derivatives, _grid_size, _truncate,
                        _values_at_extrema)

__all__ = [
    "LinearOperator",
    "PerturbationProblem",
    "UnperturbedState",
    "ProblemConfigError",
    "StateError",
    "load_problem",
    "analytic_sine_state",
    "state_from_expr",
    "state_verdict",
]


class ProblemConfigError(Exception):
    """Malformed or incomplete problem config text."""


class StateError(Exception):
    """An unperturbed state failed a precondition or validation; ``state``
    is the state that failed validation, else None."""

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


class LinearOperator(Record):
    """Action ``f -> p2 f'' + p1 f' + p0 f`` with expression coefficients."""

    __slots__ = ("p2", "p1", "p0")  # ex.Expr each


class PerturbationProblem(Record):
    """The fields ``domain`` (a, b), ``v0``, ``perturbations`` (one
    :class:`LinearOperator` per order 1..m) and the optional closed form
    ``y0_expr``, ``e0_value``.  ``_cache`` holds the Chebyshev fits and
    operator values computed from them; it is no field, so it takes no
    part in equality, hashing or repr."""

    __slots__ = ("domain", "v0", "perturbations", "y0_expr", "e0_value",
                 "_cache")
    _defaults = {"y0_expr": None, "e0_value": None}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "_cache", {})

    @property
    def a(self) -> float:
        return self.domain[0]

    @property
    def b(self) -> float:
        return self.domain[1]

    def _fit(self, key, e: ex.Expr) -> SpectralFun:
        if key not in self._cache:
            self._cache[key] = SpectralFun.from_function(
                lambda nodes: ex.evaluate(e, nodes), self.domain)
        return self._cache[key]

    @property
    def v0_fun(self) -> SpectralFun:
        return self._fit("v0", self.v0)

    def v0_constant(self) -> float | None:
        """The value c of a constant v0, whose fit :attr:`v0_fun` is one
        coefficient (0.0 for ``0`` or ``x - x``), else None: a v0 that
        varies at all, however little (``1e-13*x``), is not constant."""
        c = self.v0_fun.coeffs
        return float(c[0]) if len(c) == 1 else None

    def v0_is_zero(self) -> bool:
        """Whether v0 is identically zero: :meth:`v0_constant` is 0.0."""
        return self.v0_constant() == 0.0

    def _operator_degree(self, k: int, deg: int) -> int:
        """Degree bound of P_k f for a series f of degree ``deg``, and of
        every coefficient of P_k: a grid of N+1 extrema with N above it
        resolves the result and every factor it samples."""
        key = (k, "degrees")
        if key not in self._cache:
            self._cache[key] = tuple(len(c) - 1
                                     for c in self._operator_coeffs(k))
        p2, p1, p0 = self._cache[key]
        return max(deg + max(p2 - 2, p1 - 1, p0), deg, p2, p1, p0)

    def _operator_coeffs(self, k: int) -> tuple:
        """Chebyshev coefficients of (p2, p1, p0) of the order-k operator;
        order 0 is the unperturbed operator P_0 f = f'' - v0 f."""
        if k == 0:
            return np.ones(1), np.zeros(1), -self.v0_fun.coeffs
        op = self.perturbations[k - 1]
        return tuple(self._fit((k, part), getattr(op, part)).coeffs
                     for part in ("p2", "p1", "p0"))

    def _operator_values(self, k: int, n: int) -> np.ndarray:
        """Rows (p2, p1, p0) of the order-k operator at the n+1 Chebyshev
        extrema, cached per n."""
        key = (k, "grid", n)
        if key not in self._cache:
            self._cache[key] = _values_at_extrema(
                self._operator_coeffs(k), n)
        return self._cache[key]

    def _operator_fun(self, terms, weights, rows) -> SpectralFun:
        """sum_i P_(k_i) f_i - r as a series, for pairs (k, coefficients of
        f) in ``terms`` and the coefficient row r = ``weights`` . ``rows``:
        one number times one row, or one number per row of a 2-d array.

        The grid is the N+1 Chebyshev extrema, N the smallest power of two
        above the degree bound of the sum (:meth:`_operator_degree`).  One
        batched inverse DCT samples f'', f' and f of every term and r, the
        operator rows are summed pointwise with the cached p-values, and
        one DCT and one truncation give the series.
        """
        scl = 2.0 / (self.b - self.a)
        with np.errstate(**_QUIET):
            series, deg = [], 0
            for k, c in terms:
                series.extend(_derivatives(c, scl))
                deg = max(deg, self._operator_degree(k, len(c) - 1))
            series.append(np.dot(weights, rows))
            n = _grid_size(max(deg, max(map(len, series)) - 1))
            ps = np.concatenate([self._operator_values(k, n)
                                 for k, _ in terms])
            values = _values_at_extrema(series, n)
            out = _coeffs_from_samples(
                np.einsum("ij,ij->j", ps, values[:-1]) - values[-1])
        return SpectralFun._adopt(self.a, self.b, _truncate(out))

    def apply_perturbation(self, k: int, f: SpectralFun) -> SpectralFun:
        """Apply the order-k operator to a spectral function: one pass of
        :meth:`_operator_fun` over the single term (k, f)."""
        return self._operator_fun([(k, f.coeffs)], 0.0, np.zeros(1))


#: the order ``k`` has at most nine digits and no sign or leading zero
_PERTURBATION_KEY = re.compile(r"perturbation\.([1-9][0-9]{0,8})\.p[210]")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _domain(text: str) -> tuple:
    parts = text.split()
    if len(parts) != 2:
        raise ProblemConfigError("key 'domain' must hold two numbers")
    a, b = _finite(parts[0]), _finite(parts[1])
    if not a < b:
        raise ValueError(f"need a < b, got {a} {b}")
    if not math.isfinite(b - a):
        raise ValueError(f"b - a = {b - a} is not finite")
    return a, b


def load_problem(config_text: str) -> PerturbationProblem:
    """Parse config text of ``key = value`` lines and ``#`` comments.

    Keys: ``domain`` (two finite numbers a < b), ``v0``, optionally ``y0``
    with a finite ``E0``, and ``perturbation.<k>.<p2|p1|p0>`` for k = 1..m;
    the other values are expressions for :func:`pertbvp.expr.parse`.  A
    fault raises :class:`ProblemConfigError` naming the key or line.
    """
    entries = {}
    for lineno, raw in enumerate(config_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise ProblemConfigError(f"line {lineno}: expected 'key = value'")
        if key in entries:
            raise ProblemConfigError(f"duplicate key {key!r}")
        entries[key] = value

    def take(key, convert):
        """Remove ``key`` and convert its value, naming the key in errors."""
        if key not in entries:
            raise ProblemConfigError(f"missing key {key!r}")
        try:
            return convert(entries.pop(key))
        except (ValueError, ex.ExprSyntaxError) as exc:
            raise ProblemConfigError(f"key {key!r}: {exc}") from exc

    domain, v0 = take("domain", _domain), take("v0", ex.parse)
    if ("y0" in entries) != ("E0" in entries):
        given, other = ("y0", "E0") if "y0" in entries else ("E0", "y0")
        raise ProblemConfigError(f"key {given!r} given without key {other!r}")
    closed_form = ((take("y0", ex.parse), take("E0", _finite))
                   if "y0" in entries else (None, None))

    orders = set()
    for key in entries:
        match = _PERTURBATION_KEY.fullmatch(key)
        if match is None:
            raise ProblemConfigError(f"unrecognized key {key!r}")
        orders.add(int(match[1]))
    if not orders:
        raise ProblemConfigError("empty perturbation list")
    if len(orders) != max(orders):
        raise ProblemConfigError("perturbation orders must be contiguous "
                                 f"from 1, got {sorted(orders)}")
    operators = tuple(
        LinearOperator(*(take(f"perturbation.{k}.{part}", ex.parse)
                         for part in ("p2", "p1", "p0")))
        for k in range(1, len(orders) + 1))
    return PerturbationProblem(domain, v0, operators, *closed_form)


class UnperturbedState(Record):
    """Solution of the unperturbed problem, normalized internally to unit L2.

    The fields are ``n``, ``E0``, ``y0`` and ``dy0`` (SpectralFun) and
    ``report_scale``, which converts internally-scaled normalization
    coefficients back to the amplitude convention the caller asked for.
    """

    __slots__ = ("n", "E0", "y0", "dy0", "report_scale")


def _normalized_state(n, E0, y0_raw, norm) -> UnperturbedState:
    """The state y0_raw / norm, ``norm`` the L2 norm of ``y0_raw``."""
    if norm == 0.0:
        raise StateError("unperturbed state is identically zero")
    y0 = y0_raw * (1.0 / norm)
    return UnperturbedState(n=n, E0=float(E0), y0=y0, dy0=y0.derivative(),
                            report_scale=1.0 / norm)


def analytic_sine_state(problem: PerturbationProblem, n: int,
                        amplitude: float = np.sqrt(2.0)) -> UnperturbedState:
    """Sine eigenstate sin(w (x - a)), w = n pi / L, at E0 = w^2 + c for a
    constant v0 = c, normalized by its L2 norm in closed form,
    |amplitude| sqrt((b - a) / 2) (exactly 1 at the default amplitude on an
    interval of length 1)."""
    if n < 1:
        raise StateError(f"quantum number must be >= 1, got {n}")
    c = problem.v0_constant()
    if c is None:
        raise StateError("analytic sine state requires a constant v0")
    a, b = problem.domain
    length = b - a
    w = n * np.pi / length
    E0 = w ** 2 + c
    y0_raw = SpectralFun.from_function(
        lambda x: amplitude * np.sin(w * (x - a)), problem.domain)
    norm = abs(amplitude) / math.sqrt(2.0 / length)
    return _normalized_state(n, E0, y0_raw, norm)


def state_from_expr(problem: PerturbationProblem, n: int = 1) -> UnperturbedState:
    """Closed-form unperturbed state from the config's ``y0``/``E0`` keys;
    one :func:`state_verdict` rejects raises a StateError that holds it."""
    if problem.y0_expr is None or problem.e0_value is None:
        raise StateError("problem config carries no y0/E0 closed form")
    y0_raw = SpectralFun.from_function(
        lambda nodes: ex.evaluate(problem.y0_expr, nodes), problem.domain)
    norm = float(np.sqrt((y0_raw * y0_raw).definite_integral()))
    state = _normalized_state(n, problem.e0_value, y0_raw, norm)
    ok, res, left, right, changes = state_verdict(problem, state)
    if not ok:
        raise StateError(
            f"closed-form state fails validation: residual {res:.3e}, "
            f"|y0(a)|={left:.3e}, |y0(b)|={right:.3e}, {changes} sign "
            f"changes where state n = {n} has {n - 1}", state)
    return state


def _sign_changes(v) -> int:
    """Sign changes between neighbouring entries of ``v`` (a zero counts
    as positive): n - 1 for the n-th state of a Sturm-Liouville problem."""
    negative = np.signbit(v)
    return int(np.count_nonzero(negative[1:] != negative[:-1]))


def state_verdict(problem: PerturbationProblem,
                  state: UnperturbedState) -> tuple:
    """Return (ok, residual, |y0(a)|, |y0(b)|, sign changes): the residual
    sup |y0'' - v0 y0 + E0 y0| is the :meth:`~SpectralFun.sup_norm` of
    P_0 y0 + E0 y0 from one pass of the operator kernel, and the sign
    changes are y0's on the interior N+1 extrema, N = _grid_size(2 len).

    ``ok`` holds when the residual is at most ``1e-9 sup |y0''|``, both
    boundary values are at most ``1e-10 sup |y0|`` (bounds that scale with
    the state, whatever the length of the interval) and the state's n has
    n - 1 sign changes.
    """
    c = state.y0.coeffs
    res = problem._operator_fun([(0, c)], -state.E0, c).sup_norm()
    left, right = abs(state.y0(problem.a)), abs(state.y0(problem.b))
    edge = 1e-10 * state.y0.sup_norm()
    changes = _sign_changes(
        _values_at_extrema(c, _grid_size(2 * len(c)))[1:-1])
    ok = (res <= 1e-9 * state.dy0.derivative().sup_norm()
          and left <= edge and right <= edge and changes == state.n - 1)
    return ok, res, left, right, changes
