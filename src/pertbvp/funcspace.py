"""Chebyshev-series representation of smooth functions on an interval.

A :class:`SpectralFun` stores Chebyshev-T coefficients in the variable mapped
linearly from ``[a, b]`` onto ``[-1, 1]``.  Construction is adaptive: node
counts double (17, 33, 65, ...) until the trailing coefficients fall below a
relative tolerance, so downstream calculus (differentiation, products,
integrals) stays accurate to near machine precision for smooth inputs.

The grid helpers below move batches of series between coefficients and
values at the N+1 Chebyshev extrema, one DCT-I (a real FFT) per batch.  With
N from :func:`_grid_size` a pointwise product on that grid is the exact
product series up to rounding.  There is one route for each operation:
every sampling of coefficients on that grid is :func:`_values_at_extrema`,
which takes any batch of series, ragged or not; every product
(``SpectralFun.__mul__`` and the kernels of the order recurrence) is a
pointwise product on that grid; and every integral
(``cumulative_integral``, the VP map, the operator of
:func:`solve_linear_ivp`) is :func:`_integrate_rows` in coefficient space.
"""

from __future__ import annotations

import math

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


def _dct1(x: np.ndarray) -> np.ndarray:
    """DCT-I along the last axis, as the real FFT of the even extension
    (the way pocketfft computes it: bit-identical to
    ``scipy.fft.dct(x, type=1)``)."""
    return np.fft.rfft(np.concatenate([x, x[..., -2:0:-1]], axis=-1)).real


def _coeffs_from_samples(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients from samples at the N+1 extrema cos(pi*j/N),
    along the last axis of ``values`` (one series per row)."""
    n = values.shape[-1] - 1
    c = _dct1(values) / n
    c[..., ::n] *= 0.5  # the columns 0 and n
    return c


def _rows(series, width: int) -> np.ndarray:
    """The coefficient arrays in ``series`` as the rows of one array,
    zero-padded to ``width`` columns."""
    out = np.zeros((len(series), width))
    for row, c in zip(out, series):
        row[:len(c)] = c
    return out


def _values_at_extrema(coeffs, n: int) -> np.ndarray:
    """Values at the n+1 extrema cos(pi*k/n) of the Chebyshev series
    ``coeffs`` (1-d), or of each series in ``coeffs`` (the rows of a 2-d
    array, or a list of 1-d arrays of any lengths up to n + 1), one row of
    values per series: the inverse of :func:`_coeffs_from_samples`, a
    DCT-I of the zero-padded coefficients with the interior halved."""
    single = np.ndim(coeffs[0]) == 0
    x = _rows([coeffs] if single else coeffs, n + 1)
    x[:, 1:n] *= 0.5
    return _dct1(x[0] if single else x)


def _grid_size(degree: int) -> int:
    """The smallest power of two above ``degree``: on the N+1 extrema for
    this N, samples determine a series of that degree exactly."""
    return 1 << int(degree).bit_length()


def _integrate_rows(c: np.ndarray) -> np.ndarray:
    """Antiderivatives in t, zero at t = -1, of the series in each row of
    ``c``, truncated to the same n + 1 columns.

    The dropped degree-(n+1) term is c_n / (2n + 2); callers pick n above
    the degree of every row, so c_n is rounding noise.  The constant term
    is the alternating sum that makes the value at -1 vanish.
    """
    n = c.shape[-1] - 1
    out = np.empty_like(c)
    out[..., 1:] = c[..., :-1]
    out[..., 1] += c[..., 0]
    out[..., 1:-1] -= c[..., 2:]
    out[..., 1:] /= np.arange(2.0, 2 * n + 1, 2.0)  # 2k, k = 1..n
    out[..., 0] = out[..., 1::2].sum(-1) - out[..., 2::2].sum(-1)
    return out


def _derivative(c: np.ndarray, scl: float) -> np.ndarray:
    """Coefficients of the derivative of the series ``c``, times ``scl``
    ([0.0] for a constant).

    The derivative's k-th coefficient is the sum of 2 m c_m over m > k with
    m - k odd (halved at k = 0): a reverse cumulative sum over each parity
    of m, in place of numpy's Python-loop ``chebder``.
    """
    if len(c) == 1:
        return np.zeros(1)
    w = (2.0 * scl) * np.arange(1, len(c)) * c[1:]  # w[i] = 2 (i+1) c_(i+1)
    d = np.empty(len(w))
    d[0::2] = np.cumsum(w[0::2][::-1])[::-1]
    d[1::2] = np.cumsum(w[1::2][::-1])[::-1]
    d[0] *= 0.5
    return d


def _derivatives(c: np.ndarray, scl: float) -> tuple:
    """Coefficients (f'', f', f) of the series ``c`` on an interval of
    length 2 / ``scl``."""
    dc = _derivative(c, scl)
    return _derivative(dc, scl), dc, c


def _clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Weights of the (n+1)-point Clenshaw-Curtis rule on [-1, 1], n even.

    The rule integrates the interpolant, so w = D^T m with D the map of
    :func:`_coeffs_from_samples` and m_k = int T_k (2/(1-k^2), k even).  D
    is the symmetric DCT-I scaled by 1/2 at both ends on both sides, so
    D^T = D: the weights are the transform of the moments.
    """
    moments = np.zeros(n + 1)
    k = np.arange(0, n + 1, 2)
    moments[::2] = 2.0 / (1.0 - k.astype(float) ** 2)
    return _coeffs_from_samples(moments)


def _truncate(coeffs: np.ndarray) -> np.ndarray:
    """``coeffs`` without the trailing ones below ``TRUNCATION_TOL`` times
    the largest; raises :class:`SpectralError` if any is inf or NaN."""
    mag = np.abs(coeffs)
    scale = mag.max()
    if not math.isfinite(scale):  # np.isfinite costs ~40x more per call
        raise SpectralError("series coefficients not finite")
    if scale == 0.0:
        return np.zeros(1)
    # the last coefficient above the tolerance: the first one from the end
    keep = len(mag) - int(np.argmax(mag[::-1] > TRUNCATION_TOL * scale))
    return coeffs[:keep].copy()


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

    @classmethod
    def _adopt(cls, a: float, b: float, coeffs: np.ndarray) -> "SpectralFun":
        """Wrap a fresh 1-d float array the class itself just computed, on
        the already-checked interval [a, b], without copying it."""
        fun = object.__new__(cls)
        object.__setattr__(fun, "a", a)
        object.__setattr__(fun, "b", b)
        object.__setattr__(fun, "coeffs", coeffs)
        coeffs.setflags(write=False)
        return fun

    def __setattr__(self, name, value):
        raise AttributeError("SpectralFun is immutable")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_function(cls, f, domain) -> "SpectralFun":
        """Adaptively fit ``f`` on ``domain`` to relative tail tolerance
        ``DEFAULT_TOL``.

        ``f`` maps a whole array of nodes to the array of values there (or
        to one number, a constant); it is called once per grid.  Raises
        :class:`UnresolvedError` if a sample is not finite or if the
        coefficient tail has not decayed below ``DEFAULT_TOL`` by degree
        ``MAX_DEGREE``.
        """
        a, b = float(domain[0]), float(domain[1])

        def coeffs(m):
            """Coefficients from samples at the m+1 Chebyshev extrema."""
            t = np.cos(np.pi * np.arange(m + 1) / m)
            nodes = 0.5 * (b - a) * t + 0.5 * (a + b)
            values = np.empty_like(nodes)
            values[...] = f(nodes)  # one number is a constant
            if not np.all(np.isfinite(values)):
                raise UnresolvedError("function not finite at sample nodes")
            return _coeffs_from_samples(values)

        n = MIN_DEGREE
        while n <= MAX_DEGREE:
            c = coeffs(n)
            scale = np.max(np.abs(c))
            if scale == 0.0:
                return cls((a, b), [0.0])
            if max(abs(c[-2]), abs(c[-1])) <= DEFAULT_TOL * scale:
                # refit once at 2n: the stopping grid's trailing coefficients
                # are aliased, which costs digits under repeated differentiation
                return cls((a, b), _truncate(coeffs(2 * n)))
            n *= 2
        raise UnresolvedError(
            f"no coefficient decay below {DEFAULT_TOL:g} up to degree "
            f"{MAX_DEGREE}")

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

    def sup_norm(self) -> float:
        """Largest |value| on 257 equispaced points."""
        grid = np.linspace(self.a, self.b, 257)
        return float(np.max(np.abs(self(grid))))

    # ------------------------------------------------------------------
    # calculus
    # ------------------------------------------------------------------
    def derivative(self) -> "SpectralFun":
        """Derivative, rescaled to the interval: vectorised reverse sums of
        the coefficients (see :func:`_derivative`)."""
        dc = _derivative(self.coeffs, 2.0 / (self.b - self.a))
        return SpectralFun._adopt(self.a, self.b, dc)

    def cumulative_integral(self) -> "SpectralFun":
        """Antiderivative F with F(a) = 0: :func:`_integrate_rows` on the
        coefficients padded by one zero (so nothing is dropped), rescaled
        to the interval."""
        c = np.zeros(len(self.coeffs) + 1)
        c[:-1] = self.coeffs
        ci = _integrate_rows(c) * (0.5 * (self.b - self.a))
        return SpectralFun._adopt(self.a, self.b, ci)

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
        """Product with a series or a number.  Two series are sampled at the
        N+1 Chebyshev extrema, N the smallest power of two above the degree
        of the product (one batched inverse DCT), multiplied pointwise, and
        transformed back and truncated."""
        if isinstance(other, SpectralFun):
            self._check_domain(other)
            c1, c2 = self.coeffs, other.coeffs
            n = _grid_size(len(c1) + len(c2) - 2)
            # an overflow turns into inf or NaN; _truncate reports it
            with np.errstate(over="ignore", invalid="ignore"):
                f, g = _values_at_extrema([c1, c2], n)
                prod = _coeffs_from_samples(f * g)
            return SpectralFun._adopt(self.a, self.b, _truncate(prod))
        return SpectralFun._adopt(self.a, self.b, self.coeffs * float(other))

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, SpectralFun):
            return NotImplemented
        self._check_domain(other)
        n = max(len(self.coeffs), len(other.coeffs))
        c = np.zeros(n)
        c[: len(self.coeffs)] += self.coeffs
        c[: len(other.coeffs)] += other.coeffs
        return SpectralFun._adopt(self.a, self.b, c)

    def __sub__(self, other):
        if not isinstance(other, SpectralFun):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return SpectralFun._adopt(self.a, self.b, -self.coeffs)

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
    ``u = u_a + K w`` and ``K`` the double cumulative integral from ``a``,
    two passes of :func:`_integrate_rows` over the identity padded to N + 3
    columns (exact: no row reaches the dropped degree).
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
        kmat = (half * half) * _integrate_rows(
            _integrate_rows(np.eye(n + 1, n + 3))).T
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
            return SpectralFun((a, b), _truncate(c))
        n *= 2
    raise UnresolvedError(
        f"no coefficient decay below {DEFAULT_TOL:g} up to degree "
        f"{IVP_MAX_DEGREE}")
