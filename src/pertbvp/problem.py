"""Problem definition: canonical eigenproblem, config files, unperturbed states.

The canonical form is

    y''(x) = v0(x) y - E y + sum_k lambda^k P_k(y),   y(a) = y(b) = 0,

where each perturbation operator acts as ``P(f) = p2 f'' + p1 f' + p0 f``
with closed-form coefficient functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .funcspace import SpectralFun

__all__ = [
    "LinearOperator",
    "PerturbationProblem",
    "UnperturbedState",
    "ProblemConfigError",
    "StateError",
    "load_problem",
    "analytic_sine_state",
    "state_from_expr",
    "validate_state",
    "state_verdict",
]


class ProblemConfigError(Exception):
    """Malformed or incomplete problem config text."""


class StateError(Exception):
    """An unperturbed state failed a precondition or validation."""


@dataclass(frozen=True)
class LinearOperator:
    """Action ``f -> p2 f'' + p1 f' + p0 f`` with expression coefficients."""

    p2: ex.Expr
    p1: ex.Expr
    p0: ex.Expr


@dataclass(frozen=True)
class PerturbationProblem:
    domain: tuple
    v0: ex.Expr
    perturbations: tuple  # LinearOperator, orders 1..m
    y0_expr: ex.Expr | None = None
    e0_value: float | None = None
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def a(self) -> float:
        return self.domain[0]

    @property
    def b(self) -> float:
        return self.domain[1]

    def _fit(self, key, e: ex.Expr) -> SpectralFun:
        if key not in self._cache:
            self._cache[key] = SpectralFun.from_function(
                lambda x: ex.evaluate(e, x), self.domain)
        return self._cache[key]

    @property
    def v0_fun(self) -> SpectralFun:
        return self._fit("v0", self.v0)

    def v0_is_zero(self) -> bool:
        xs = np.linspace(self.a, self.b, 64)
        return bool(np.all(np.abs(ex.evaluate(self.v0, xs)) < 1e-12))

    def apply_perturbation(self, k: int, f: SpectralFun) -> SpectralFun:
        """Apply the order-k operator to a spectral function."""
        op = self.perturbations[k - 1]
        df = f.derivative()
        out = self._fit((k, "p2"), op.p2) * df.derivative()
        out = out + self._fit((k, "p1"), op.p1) * df
        out = out + self._fit((k, "p0"), op.p0) * f
        return out

    def serialize(self) -> str:
        """Config text that :func:`load_problem` maps back to this problem."""
        lines = [f"domain = {self.a!r} {self.b!r}",
                 f"v0 = {ex.to_string(self.v0)}"]
        if self.y0_expr is not None:
            lines.append(f"y0 = {ex.to_string(self.y0_expr)}")
            lines.append(f"E0 = {self.e0_value!r}")
        for k, op in enumerate(self.perturbations, start=1):
            lines.append(f"perturbation.{k}.p2 = {ex.to_string(op.p2)}")
            lines.append(f"perturbation.{k}.p1 = {ex.to_string(op.p1)}")
            lines.append(f"perturbation.{k}.p0 = {ex.to_string(op.p0)}")
        return "\n".join(lines) + "\n"


def load_problem(config_text: str) -> PerturbationProblem:
    """Parse line-based config text (``key = value``, ``#`` comments)."""
    entries = {}
    for lineno, raw in enumerate(config_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProblemConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key in entries:
            raise ProblemConfigError(f"duplicate key {key!r}")
        entries[key] = value

    if "domain" not in entries:
        raise ProblemConfigError("missing key 'domain'")
    parts = entries.pop("domain").split()
    if len(parts) != 2:
        raise ProblemConfigError("key 'domain' must hold two numbers")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ProblemConfigError(f"key 'domain': {exc}") from exc
    if not a < b:
        raise ProblemConfigError(f"key 'domain': need a < b, got {a} {b}")

    if "v0" not in entries:
        raise ProblemConfigError("missing key 'v0'")
    try:
        v0 = ex.parse(entries.pop("v0"))
    except ex.ExprSyntaxError as exc:
        raise ProblemConfigError(f"key 'v0': {exc}") from exc

    y0_expr = None
    e0_value = None
    if "y0" in entries:
        if "E0" not in entries:
            raise ProblemConfigError("key 'y0' given without key 'E0'")
        try:
            y0_expr = ex.parse(entries.pop("y0"))
        except ex.ExprSyntaxError as exc:
            raise ProblemConfigError(f"key 'y0': {exc}") from exc
        try:
            e0_value = float(entries.pop("E0"))
        except ValueError as exc:
            raise ProblemConfigError(f"key 'E0': {exc}") from exc
    elif "E0" in entries:
        raise ProblemConfigError("key 'E0' given without key 'y0'")

    # perturbation.k.{p2,p1,p0}, orders contiguous from 1
    pert_keys = [k for k in entries if k.startswith("perturbation.")]
    orders = set()
    for key in pert_keys:
        parts = key.split(".")
        if len(parts) != 3 or parts[2] not in ("p2", "p1", "p0"):
            raise ProblemConfigError(f"unrecognized key {key!r}")
        try:
            orders.add(int(parts[1]))
        except ValueError as exc:
            raise ProblemConfigError(f"unrecognized key {key!r}") from exc
    unknown = set(entries) - set(pert_keys)
    if unknown:
        raise ProblemConfigError(f"unrecognized key {sorted(unknown)[0]!r}")
    if not orders:
        raise ProblemConfigError("empty perturbation list")
    m = max(orders)
    if orders != set(range(1, m + 1)):
        raise ProblemConfigError(
            f"perturbation orders must be contiguous from 1, got {sorted(orders)}")

    operators = []
    for k in range(1, m + 1):
        coeffs = []
        for part in ("p2", "p1", "p0"):
            key = f"perturbation.{k}.{part}"
            if key not in entries:
                raise ProblemConfigError(f"missing key {key!r}")
            try:
                coeffs.append(ex.parse(entries[key]))
            except ex.ExprSyntaxError as exc:
                raise ProblemConfigError(f"key {key!r}: {exc}") from exc
        operators.append(LinearOperator(*coeffs))

    return PerturbationProblem((a, b), v0, tuple(operators), y0_expr, e0_value)


@dataclass(frozen=True)
class UnperturbedState:
    """Solution of the unperturbed problem, normalized internally to unit L2.

    ``user_scale`` records the amplitude the caller asked for;
    ``report_scale`` converts internally-scaled normalization coefficients
    back to that convention.
    """

    n: int
    E0: float
    y0: SpectralFun
    dy0: SpectralFun
    user_scale: float
    report_scale: float


def _normalized_state(n, E0, y0_raw, user_scale) -> UnperturbedState:
    norm = float(np.sqrt((y0_raw * y0_raw).definite_integral()))
    if norm == 0.0:
        raise StateError("unperturbed state is identically zero")
    y0 = y0_raw * (1.0 / norm)
    return UnperturbedState(n=n, E0=float(E0), y0=y0, dy0=y0.derivative(),
                            user_scale=float(user_scale),
                            report_scale=1.0 / norm)


def analytic_sine_state(problem: PerturbationProblem, n: int,
                        amplitude: float = np.sqrt(2.0)) -> UnperturbedState:
    """Sine eigenstate of the free unperturbed problem (v0 identically 0)."""
    if n < 1:
        raise StateError(f"quantum number must be >= 1, got {n}")
    if not problem.v0_is_zero():
        raise StateError("analytic sine state requires v0 identically zero")
    a, b = problem.domain
    length = b - a
    E0 = (n * np.pi / length) ** 2
    w = n * np.pi / length
    y0_raw = SpectralFun.from_function(
        lambda x: amplitude * np.sin(w * (x - a)), problem.domain)
    return _normalized_state(n, E0, y0_raw, amplitude)


def state_from_expr(problem: PerturbationProblem, n: int = 1) -> UnperturbedState:
    """Closed-form unperturbed state from the config's ``y0``/``E0`` keys."""
    if problem.y0_expr is None or problem.e0_value is None:
        raise StateError("problem config carries no y0/E0 closed form")
    y0_raw = SpectralFun.from_function(
        lambda x: ex.evaluate(problem.y0_expr, x), problem.domain)
    user_scale = y0_raw.sup_norm()
    state = _normalized_state(n, problem.e0_value, y0_raw, user_scale)
    ok, res, left, right = state_verdict(problem, state)
    if not ok:
        raise StateError(
            f"closed-form state fails validation: residual {res:.3e}, "
            f"|y0(a)|={left:.3e}, |y0(b)|={right:.3e}")
    return state


def validate_state(problem: PerturbationProblem,
                   state: UnperturbedState) -> tuple:
    """Return (sup |y0'' - v0 y0 + E0 y0|, |y0(a)|, |y0(b)|)."""
    ypp = state.dy0.derivative()
    resid = ypp - problem.v0_fun * state.y0 + state.y0 * state.E0
    xs = np.linspace(problem.a, problem.b, 256)
    res = float(np.max(np.abs(resid(xs))))
    return res, abs(state.y0(problem.a)), abs(state.y0(problem.b))


def state_verdict(problem: PerturbationProblem,
                  state: UnperturbedState) -> tuple:
    """Return (ok, residual, |y0(a)|, |y0(b)|) from :func:`validate_state`.

    ``ok`` holds when the residual is at most ``1e-9 max(1, sup |y0''|)``
    and both boundary values of the unit-L2 ``y0`` are at most ``1e-10``.
    """
    res, left, right = validate_state(problem, state)
    bound = 1e-9 * max(1.0, state.dy0.derivative().sup_norm())
    ok = res <= bound and left <= 1e-10 and right <= 1e-10
    return ok, res, left, right
