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
every sampling of coefficients on that grid is the DCT-I of the
coefficients with their interior halved, by :func:`_values_in`, which
:func:`_values_at_extrema` runs on any batch of series, ragged or not,
or by :func:`_values_of`, which writes one series into a 1-row batch
already halved;
every product
(``SpectralFun.__mul__`` and the kernels of the order recurrence) is a
pointwise product on that grid; and every integral
(``cumulative_integral``, the VP map, the operator of
:func:`solve_linear_ivp`) is :func:`_integrate_rows` in coefficient space.
Every transform runs in a :class:`_Batch`, the even-extension and spectrum
buffers of one batch shape on one grid, and reads the batch alone:
:func:`_coeffs_in` and :func:`_values_in` transform what its head holds.
A caller that transforms on the same grid order after order (the
recurrence of :mod:`pertbvp.engine`) keeps its batches and writes into
their heads; :func:`_coeffs_from_samples` and :func:`_values_at_extrema`
fill a fresh batch and call the same two, so both give the same bits.
The spectra are filled by the gufunc that NumPy's real FFT ends in on an
even length, ``numpy.fft._pocketfft_umath.rfft_n_even``, called directly
with ``out=`` (NumPy 2.0 or later): the same bits without the Python
wrapper around it.  The first transform resolves it, so importing this
module loads no ``numpy.fft``.  The constants of a grid (the DCT scaling,
the divisors of the integral, the Chebyshev nodes, the Clenshaw-Curtis
weights) are made once per grid size and kept read-only.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

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


class _Batch:
    """Buffers for the DCT-Is of a batch of ``shape`` series on the n+1
    extrema: the even extensions ``ext``, 2n wide, whose first n+1
    columns ``head`` take the samples or coefficients, and the complex
    spectra ``spec`` that the real FFT fills."""

    __slots__ = ("n", "ext", "head", "spec")

    def __init__(self, shape: tuple, n: int):
        self.n = n
        self.ext = np.empty(shape + (2 * n,))
        self.head = self.ext[..., :n + 1]
        self.spec = np.empty(shape + (n + 1,), complex)


def _resolve_rfft(*args, **kwargs):
    """:data:`_rfft` until the first transform, which imports the gufunc
    from ``numpy.fft`` and puts it in its place."""
    global _rfft
    from numpy.fft._pocketfft_umath import rfft_n_even as _rfft
    return _rfft(*args, **kwargs)


#: the real FFT of an even length along the last axis, called as NumPy's
#: own wrapper calls it (scale factor 1, core axes)
_rfft = _resolve_rfft
_RFFT_AXES = [(-1,), (), (-1,)]


def _dct1(batch: _Batch) -> np.ndarray:
    """DCT-I along the last axis of the head of ``batch``, as the real FFT
    of the even extension (the way pocketfft computes it: bit-identical
    to ``scipy.fft.dct(x, type=1)``).  The extension is mirrored in
    place; the result is the real part of the batch's spectra, a view
    that its next transform overwrites."""
    n = batch.n
    batch.ext[..., n + 1:] = batch.ext[..., n - 1:0:-1]
    _rfft(batch.ext, 1, axes=_RFFT_AXES, out=(batch.spec,))
    return batch.spec.real


#: how many grid sizes each cache of grid constants keeps (the last used)
_SIZES_KEPT = 32


def _constant(values: np.ndarray) -> np.ndarray:
    """``values`` made read-only: every caller on its grid shares it."""
    values.setflags(write=False)
    return values


@lru_cache(maxsize=_SIZES_KEPT)
def _dct_divisors(n: int) -> np.ndarray:
    """2n, n, ..., n, 2n: the DCT-I of samples over these is the
    Chebyshev coefficients (the same bits as dividing by n and halving
    the ends)."""
    d = np.full(n + 1, float(n))
    d[::n] = 2.0 * n
    return _constant(d)


@lru_cache(maxsize=_SIZES_KEPT)
def _end_factors(n: int) -> np.ndarray:
    """1, 1/2, ..., 1/2, 1: coefficients times these are the DCT-I input
    that gives the values at the n+1 extrema."""
    h = np.full(n + 1, 0.5)
    h[::n] = 1.0
    return _constant(h)


@lru_cache(maxsize=_SIZES_KEPT)
def _integral_divisors(n: int) -> np.ndarray:
    """2k, k = 1..n: the divisors of :func:`_integrate_rows`."""
    return _constant(np.arange(2.0, 2 * n + 1, 2.0))


@lru_cache(maxsize=_SIZES_KEPT)
def _extrema(n: int) -> np.ndarray:
    """The n+1 Chebyshev extrema cos(pi*j/n), j = 0..n, in [-1, 1]."""
    return _constant(np.cos(np.pi * np.arange(n + 1) / n))


def _coeffs_in(batch: _Batch) -> np.ndarray:
    """Chebyshev coefficients from the samples at the N+1 extrema
    cos(pi*j/N) in the head of ``batch`` (one series per row), in its
    spectra as :func:`_dct1` returns them."""
    c = _dct1(batch)
    c /= _dct_divisors(batch.n)
    return c


def _coeffs_from_samples(values: np.ndarray) -> np.ndarray:
    """:func:`_coeffs_in` on a fresh batch holding ``values``."""
    batch = _Batch(values.shape[:-1], values.shape[-1] - 1)
    batch.head[...] = values
    return _coeffs_in(batch)


def _rows(series, out: np.ndarray) -> np.ndarray:
    """``out`` with the coefficient arrays in ``series`` as its rows,
    zero-padded."""
    out[...] = 0.0
    for row, c in zip(out, series):
        row[:len(c)] = c
    return out


def _values_in(batch: _Batch) -> np.ndarray:
    """Values at the n+1 extrema cos(pi*k/n) of the Chebyshev series in
    the head of ``batch`` (zero-padded, one series per row): the inverse
    of :func:`_coeffs_in`, a DCT-I with the interior of the head halved
    in place, in the spectra as :func:`_dct1` returns them."""
    batch.head[..., 1:batch.n] *= 0.5
    return _dct1(batch)


def _values_of(batch: _Batch, coeffs: np.ndarray) -> np.ndarray:
    """:func:`_values_in` of the 1-row ``batch`` holding the series
    ``coeffs`` (up to n + 1 long): the coefficients go into its head
    already halved, in one product, and the rest of it is zeroed."""
    k = len(coeffs)
    np.multiply(coeffs, _end_factors(batch.n)[:k], out=batch.head[:k])
    batch.head[k:] = 0.0
    return _dct1(batch)


def _values_at_extrema(coeffs, n: int) -> np.ndarray:
    """:func:`_values_in` on a fresh batch holding the series ``coeffs``
    (1-d), or each series in ``coeffs`` (the rows of a 2-d array, or a
    list of 1-d arrays of any lengths up to n + 1), one row of values per
    series."""
    single = np.ndim(coeffs[0]) == 0
    batch = _Batch(() if single else (len(coeffs),), n)
    _rows([coeffs] if single else coeffs,
          batch.head[None] if single else batch.head)
    return _values_in(batch)


def _grid_size(degree: int) -> int:
    """The smallest power of two above ``degree``: on the N+1 extrema for
    this N, samples determine a series of that degree exactly."""
    return 1 << int(degree).bit_length()


def _integrate_rows(c: np.ndarray, out: np.ndarray | None = None
                    ) -> np.ndarray:
    """Antiderivatives in t, zero at t = -1, of the series in each row of
    ``c``, truncated to the same n + 1 columns, in ``out`` (fresh when
    not given; not ``c``).

    The dropped degree-(n+1) term is c_n / (2n + 2); callers pick n above
    the degree of every row, so c_n is rounding noise.  The constant term
    is the alternating sum that makes the value at -1 vanish.
    """
    n = c.shape[-1] - 1
    if out is None:
        out = np.empty_like(c)
    out[..., 1:] = c[..., :-1]
    out[..., 1] += c[..., 0]
    out[..., 1:-1] -= c[..., 2:]
    out[..., 1:] /= _integral_divisors(n)
    np.subtract(np.add.reduce(out[..., 1::2], -1),
                np.add.reduce(out[..., 2::2], -1), out=out[..., 0])
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


def _chebval(t, c: np.ndarray):
    """The series ``c`` at ``t`` (a float or an array of points in
    [-1, 1]) by Clenshaw's recurrence: the operations of numpy's
    ``chebval``, one for one, so its bits, without importing
    ``numpy.polynomial``."""
    if len(c) == 1:
        c0, c1 = c[0], 0
    elif len(c) == 2:
        c0, c1 = c[0], c[1]
    else:
        t2 = 2 * t
        c0, c1 = c[-2], c[-1]
        for i in range(3, len(c) + 1):
            c0, c1 = c[-i] - c1, c0 + c1 * t2
    return c0 + c1 * t


def _chebvander(t: np.ndarray, deg: int) -> np.ndarray:
    """T_0 .. T_deg at the points ``t``, one row per point, by the forward
    recurrence: numpy's ``chebvander``, one operation for one and with its
    memory layout (a transposed view), so the same bits."""
    v = np.empty((deg + 1, len(t)))
    v[0] = t * 0 + 1
    if deg > 0:
        t2 = 2 * t
        v[1] = t
        for i in range(2, deg + 1):
            v[i] = v[i - 1] * t2 - v[i - 2]
    return v.T


@lru_cache(maxsize=_SIZES_KEPT)
def _clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Weights of the (n+1)-point Clenshaw-Curtis rule on [-1, 1], n even.

    The rule integrates the interpolant, so w = D^T m with D the map of
    :func:`_coeffs_from_samples` and m_k = int T_k (2/(1-k^2), k even).  D
    is the symmetric DCT-I scaled by 1/2 at both ends on both sides, so
    D^T = D: the weights are the transform of the moments.  They are made
    once per n and shared, read-only.
    """
    moments = np.zeros(n + 1)
    k = np.arange(0, n + 1, 2)
    moments[::2] = 2.0 / (1.0 - k.astype(float) ** 2)
    return _constant(_coeffs_from_samples(moments).copy())


#: the kernels' one fault policy, as ``np.errstate(**_QUIET)``: an overflow
#: or an invalid operation becomes inf or NaN, which _truncate reports (the
#: FD oracle checks its bands itself)
_QUIET = dict(over="ignore", invalid="ignore")


def _truncate(coeffs: np.ndarray) -> np.ndarray:
    """``coeffs`` without the trailing ones below ``TRUNCATION_TOL`` times
    the largest; raises :class:`SpectralError` if any is inf or NaN."""
    mag = np.abs(coeffs)
    scale = np.maximum.reduce(mag)
    if not math.isfinite(scale):  # np.isfinite costs ~40x more per call
        raise SpectralError("series coefficients not finite")
    if scale == 0.0:
        return np.zeros(1)
    # the last coefficient above the tolerance: the first one from the end
    keep = len(mag) - int((mag[::-1] > TRUNCATION_TOL * scale).argmax())
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
            nodes = 0.5 * (b - a) * _extrema(m) + 0.5 * (a + b)
            values = np.empty_like(nodes)
            values[...] = f(nodes)  # one number is a constant
            if not np.isfinite(values).all():
                raise UnresolvedError("function not finite at sample nodes")
            return _coeffs_from_samples(values)

        n = MIN_DEGREE
        while n <= MAX_DEGREE:
            c = coeffs(n)
            scale = np.maximum.reduce(np.abs(c))
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
        out = _chebval(t, self.coeffs)
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
            with np.errstate(**_QUIET):
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
        t = _extrema(n)
        qx = q(half * t + 0.5 * (a + b))
        kmat = (half * half) * _integrate_rows(
            _integrate_rows(np.eye(n + 1, n + 3))).T
        vander = _chebvander(t, n + 2)
        lhs = vander[:, :n + 1] - qx[:, None] * (vander @ kmat)
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
