"""Couplings whose series is known in closed form, over domains from 1e-9
to 1e9 long: a constant p0 alone shifts every level, E = E0 + lam p0, and
a constant p2 alone scales it, E = E0 (1 - lam p2).  The eigenfunctions do
not move, so y_j = 0 and E_j = 0 for j >= 2."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from pertbvp import problem as pb  # noqa: E402
from pertbvp.engine import compute_series  # noqa: E402

J = 6

lengths = st.integers(-18, 18).map(lambda k: 10.0 ** (k / 2))
# c = m / 64 is exact in the file and in binary
numerators = st.integers(-999, 999).filter(bool)


def _series(part: str, m: int, length: float, n: int):
    terms = {"p2": "0", "p1": "0", "p0": "0", part: f"{m}/64"}
    prob = pb.load_problem(
        f"domain = 0 {length!r}\nv0 = 0\n"
        + "".join(f"perturbation.1.{k} = {v}\n" for k, v in terms.items()))
    state = pb.analytic_sine_state(prob, n)
    return state, compute_series(prob, state, J)


def _check(ser, e0: float, exact: float):
    assert abs(ser.energies[1] - exact) <= 1e-13 * abs(exact)
    assert all(abs(e) <= 1e-13 * e0 for e in ser.energies[2:])
    assert not any(y.coeffs.any() for y in ser.wavefuns[1:])


def _false_alarms(test):
    """The lengths that used to raise: y0'(a) below an absolute 1e-12 at
    1e9, phi_b(b) below it at 1e-8 and 1e-9, and at 1 an exact zero y_1
    taken for rounding noise up to its exact degree."""
    for length in (1e9, 1e-8, 1e-9, 1.0):
        test = example(m=192, length=length, n=1)(test)
    return test


@_false_alarms
@given(m=numerators, length=lengths, n=st.integers(1, 12))
def test_constant_p0_shifts_the_energy(m, length, n):
    state, ser = _series("p0", m, length, n)
    _check(ser, state.E0, m / 64)


@_false_alarms
@given(m=numerators, length=lengths, n=st.integers(1, 12))
def test_constant_p2_scales_the_energy(m, length, n):
    state, ser = _series("p2", m, length, n)
    _check(ser, state.E0, -state.E0 * m / 64)
