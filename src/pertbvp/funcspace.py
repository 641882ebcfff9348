"""Chebyshev-series representation of smooth functions on an interval.

A :class:`SpectralFun` stores Chebyshev-T coefficients in the variable mapped
linearly from ``[a, b]`` onto ``[-1, 1]``.  Construction is adaptive: node
counts double (17, 33, 65, ...) until the trailing coefficients fall below a
relative tolerance, so downstream calculus (differentiation, products,
integrals) stays accurate to near machine precision for smooth inputs.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as _cheb

__all__ = ["SpectralFun", "SpectralError", "UnresolvedError",
           "DomainMismatchError", "solve_linear_ivp"]

#: smallest and largest sampled degree in the adaptive loop
MIN_DEGREE = 16
MAX_DEGREE = 16384
#: degree cap of :func:`solve_linear_ivp`, whose dense solve is O(degree^3)
IVP_MAX_DEGREE = 2048

DEFAULT_TOL = 1e-13

#: coefficients below this relative size are dropped after construction and
#: products; kept well under DEFAULT_TOL so repeated differentiation (which
#: amplifies a degree-k truncation error by O(k^4)) still meets 1e-9 targets
TRUNCATION_TOL = 5e-15


class SpectralError(Exception):
    """Base class for function-space failures."""


class UnresolvedError(SpectralError):
    """The adaptive loop hit the degree cap without tail decay."""


class DomainMismatchError(SpectralError):
    """Binary operation between functions on different intervals."""


def _coeffs_from_samples(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from samples at the N+1 extrema cos(pi*j/N).

    DCT-I as the real FFT of the even extension, the way pocketfft computes
    it (bit-identical to ``scipy.fft.dct(values, type=1)``).
    """
    n = len(values) - 1
    c = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real / n
    c[0] *= 0.5
    c[-1] *= 0.5
    return c


def _truncate(coeffs: np.ndarray, tol_rel: float) -> np.ndarray:
    scale = np.max(np.abs(coeffs))
    if scale == 0.0:
        return np.zeros(1)
    keep = np.nonzero(np.abs(coeffs) > tol_rel * scale)[0]
    if len(keep) == 0:
        return np.zeros(1)
    return np.array(coeffs[: keep[-1] + 1], dtype=float)


class SpectralFun:
    """Immutable Chebyshev series on a fixed interval ``[a, b]``."""

    __slots__ = ("a", "b", "coeffs")

    def __init__(self, domain, coeffs):
        a, b = float(domain[0]), float(domain[1])
        if not a < b:
            raise SpectralError(f"invalid domain [{a}, {b}]")
        coeffs = np.atleast_1d(np.array(coeffs, dtype=float, copy=True))
        if coeffs.ndim != 1 or len(coeffs) == 0:
            raise SpectralError("coeffs must be a non-empty 1-d array")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "coeffs", coeffs)
        coeffs.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("SpectralFun is immutable")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_function(cls, f, domain, tol_rel: float = DEFAULT_TOL) -> "SpectralFun":
        """Adaptively fit ``f`` on ``domain`` to relative tail tolerance.

        ``f`` is called on one float at a time and must return a float.
        Raises :class:`UnresolvedError` if a sample is not finite or if the
        coefficient tail has not decayed below ``tol_rel`` by degree
        ``MAX_DEGREE``.
        """
        a, b = float(domain[0]), float(domain[1])

        def coeffs(m):
            """Coefficients of ``f`` sampled at the m+1 Chebyshev extrema."""
            t = np.cos(np.pi * np.arange(m + 1) / m)
            nodes = 0.5 * (b - a) * t + 0.5 * (a + b)
            values = np.array([float(f(node)) for node in nodes])
            if not np.all(np.isfinite(values)):
                raise UnresolvedError("function not finite at sample nodes")
            return _coeffs_from_samples(values)

        n = MIN_DEGREE
        while n <= MAX_DEGREE:
            c = coeffs(n)
            scale = np.max(np.abs(c))
            if scale == 0.0:
                return cls((a, b), [0.0])
            if max(abs(c[-2]), abs(c[-1])) <= tol_rel * scale:
                # refit once at 2n: the stopping grid's trailing coefficients
                # are aliased, which costs digits under repeated differentiation
                c = coeffs(2 * n)
                return cls((a, b), _truncate(c, min(tol_rel, TRUNCATION_TOL)))
            n *= 2
        raise UnresolvedError(
            f"no coefficient decay below {tol_rel:g} up to degree {MAX_DEGREE}")

    @classmethod
    def constant(cls, value, domain) -> "SpectralFun":
        return cls(domain, [float(value)])

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def __call__(self, x):
        """Clenshaw evaluation at scalar or array ``x`` inside the domain."""
        xv = np.asarray(x, dtype=float)
        slack = 1e-12 * (self.b - self.a)
        if np.any(xv < self.a - slack) or np.any(xv > self.b + slack):
            raise SpectralError(
                f"argument outside domain [{self.a}, {self.b}]")
        t = (2.0 * xv - self.a - self.b) / (self.b - self.a)
        t = np.clip(t, -1.0, 1.0)
        out = _cheb.chebval(t, self.coeffs)
        return float(out) if np.isscalar(x) or xv.ndim == 0 else out

    @property
    def domain(self):
        return (self.a, self.b)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def sup_norm(self, samples: int = 257) -> float:
        grid = np.linspace(self.a, self.b, samples)
        return float(np.max(np.abs(self(grid))))

    # ------------------------------------------------------------------
    # calculus
    # ------------------------------------------------------------------
    def derivative(self) -> "SpectralFun":
        """Coefficient-space differentiation, rescaled to the interval."""
        if len(self.coeffs) == 1:
            return SpectralFun(self.domain, [0.0])
        dc = _cheb.chebder(self.coeffs) * (2.0 / (self.b - self.a))
        return SpectralFun(self.domain, dc)

    def cumulative_integral(self) -> "SpectralFun":
        """Antiderivative F with F(a) = 0, computed in coefficient space."""
        ci = _cheb.chebint(self.coeffs, lbnd=-1, scl=0.5 * (self.b - self.a))
        return SpectralFun(self.domain, ci)

    def definite_integral(self) -> float:
        """Integral over [a, b] from the even-index coefficients."""
        c = self.coeffs
        k = np.arange(0, len(c), 2)
        weights = 2.0 / (1.0 - k.astype(float) ** 2)
        return float(0.5 * (self.b - self.a) * np.dot(c[::2], weights))

    # ------------------------------------------------------------------
    # algebra (re-truncated to keep degrees from compounding)
    # ------------------------------------------------------------------
    def _check_domain(self, other: "SpectralFun"):
        if (self.a, self.b) != (other.a, other.b):
            raise DomainMismatchError(
                f"domains differ: [{self.a}, {self.b}] vs [{other.a}, {other.b}]")

    def __mul__(self, other):
        if isinstance(other, SpectralFun):
            self._check_domain(other)
            prod = _cheb.chebmul(self.coeffs, other.coeffs)
            return SpectralFun(self.domain, _truncate(prod, TRUNCATION_TOL))
        return SpectralFun(self.domain, self.coeffs * float(other))

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, SpectralFun):
            return NotImplemented
        self._check_domain(other)
        n = max(len(self.coeffs), len(other.coeffs))
        c = np.zeros(n)
        c[: len(self.coeffs)] += self.coeffs
        c[: len(other.coeffs)] += other.coeffs
        return SpectralFun(self.domain, c)

    def __sub__(self, other):
        if not isinstance(other, SpectralFun):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return SpectralFun(self.domain, -self.coeffs)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"domain": [self.a, self.b], "coeffs": [float(c) for c in self.coeffs]}

    @classmethod
    def from_dict(cls, data: dict) -> "SpectralFun":
        return cls(tuple(data["domain"]), data["coeffs"])

    def __repr__(self):
        return (f"SpectralFun(domain=[{self.a}, {self.b}], "
                f"degree={self.degree})")


def solve_linear_ivp(q: SpectralFun, u_a: float) -> SpectralFun:
    """Solve ``u'' = q u`` on q's interval with ``u(a) = u_a``, ``u'(a) = 0``.

    Integral (Volterra) form, after Greengard (SIAM J. Numer. Anal. 28,
    1991): the unknown is ``w = u''`` as a degree-N series, with
    ``u = u_a + K w`` and ``K`` the double cumulative integral from ``a``.
    Collocating ``w = q u`` at the N+1 Chebyshev extrema gives a dense
    second-kind system.  N doubles from ``MIN_DEGREE`` until u's
    coefficient tail falls below ``DEFAULT_TOL`` (the stopping rule of
    :meth:`SpectralFun.from_function`); raises :class:`UnresolvedError`
    past ``IVP_MAX_DEGREE``.
    """
    a, b = q.domain
    half = 0.5 * (b - a)
    n = MIN_DEGREE
    while n <= IVP_MAX_DEGREE:
        t = np.cos(np.pi * np.arange(n + 1) / n)
        qx = q(half * t + 0.5 * (a + b))
        kmat = _cheb.chebint(np.eye(n + 1), m=2, lbnd=-1, scl=half, axis=0)
        lhs = _cheb.chebvander(t, n) - qx[:, None] * (
            _cheb.chebvander(t, n + 2) @ kmat)
        try:
            w = np.linalg.solve(lhs, u_a * qx)
        except np.linalg.LinAlgError as exc:
            raise UnresolvedError(f"initial-value solve: {exc}") from exc
        c = kmat @ w
        c[0] += u_a
        if not np.all(np.isfinite(c)):
            raise UnresolvedError("initial-value solve not finite")
        if max(abs(c[-2]), abs(c[-1])) <= DEFAULT_TOL * np.max(np.abs(c)):
            return SpectralFun((a, b), _truncate(c, TRUNCATION_TOL))
        n *= 2
    raise UnresolvedError(
        f"no coefficient decay below {DEFAULT_TOL:g} up to degree "
        f"{IVP_MAX_DEGREE}")
