import math

import numpy as np
import pytest

from pertbvp import engine, funcspace
from pertbvp.engine import (EngineError, compute_series, ghost, order_rhs,
                            residual, series_from_dict, series_to_dict,
                            solvability_energy, solve_order, sum_series)
from pertbvp.funcspace import SpectralError, SpectralFun
from pertbvp.oracles import (model1_config, model1_problem, model3_E_coeffs,
                             model3_problem, model1_exact)
from pertbvp.problem import (UnperturbedState, analytic_sine_state,
                             load_problem, state_from_expr, state_verdict)

PI2 = math.pi ** 2
XS = np.linspace(0, 1, 64)


@pytest.fixture(scope="module")
def m1():
    return model1_problem()


@pytest.fixture(scope="module")
def m3():
    return model3_problem()


# ----------------------------------------------------------------------
# ghost construction
# ----------------------------------------------------------------------

def test_ghost_closed_form_ground(m1):
    st = analytic_sine_state(m1, 1)
    gh = ghost(st, m1)
    # y0 = sqrt(2) sin(pi x)  =>  u = -cos(pi x) / (sqrt(2) pi)
    expected = -np.cos(np.pi * XS) / (np.sqrt(2) * np.pi)
    assert np.max(np.abs(gh.u(XS) - expected)) <= 1e-12
    w = gh.du(XS) * st.y0(XS) - st.dy0(XS) * gh.u(XS)
    assert np.max(np.abs(w - 1.0)) <= 1e-12


def test_ghost_finite_at_interior_zero(m1):
    st = analytic_sine_state(m1, 2)
    gh = ghost(st, m1)
    x0 = 0.5  # interior zero of sin(2 pi x)
    w = gh.du(x0) * st.y0(x0) - st.dy0(x0) * gh.u(x0)
    assert w == pytest.approx(1.0, abs=1e-10)
    assert abs(gh.u(x0)) > 1e-3


def test_ghost_ambiguity_preserves_wronskian(m1):
    st = analytic_sine_state(m1, 1)
    gh = ghost(st, m1)
    shifted = type(gh)(u=gh.u + st.y0 * 0.3, du=gh.du + st.dy0 * 0.3)
    w = shifted.du(XS) * st.y0(XS) - st.dy0(XS) * shifted.u(XS)
    assert np.max(np.abs(w - 1.0)) <= 1e-10


def test_ghost_numeric_path_nonzero_v0():
    text = ("domain = 0 1\nv0 = 5\ny0 = sin(pi*x)\nE0 = "
            + repr(PI2 + 5.0)
            + "\nperturbation.1.p2 = 0\nperturbation.1.p1 = 1\n"
              "perturbation.1.p0 = 0\n")
    prob = load_problem(text)
    from pertbvp.problem import state_from_expr
    st = state_from_expr(prob, n=1)
    gh = ghost(st, prob)
    w = gh.du(XS) * st.y0(XS) - st.dy0(XS) * gh.u(XS)
    assert np.max(np.abs(w - 1.0)) <= 1e-10


def _closed_problem(n):
    """v0 = 5 with the closed-form state sin(n pi x), E0 = (n pi)^2 + 5."""
    text = (f"domain = 0 1\nv0 = 5\ny0 = sin({n}*pi*x)\n"
            f"E0 = {n * n * PI2 + 5.0!r}\nperturbation.1.p2 = 0\n"
            "perturbation.1.p1 = 1\nperturbation.1.p0 = 0\n")
    prob = load_problem(text)
    return prob, state_from_expr(prob, n=n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ghost_spectral_solve_matches_cosine_constant_v0(n):
    prob, st = _closed_problem(n)
    gh = ghost(st, prob)
    w = n * math.pi  # u'' = (5 - E0) u = -w^2 u
    c = st.dy0(0.0) / w
    expected = -np.cos(w * XS) / (c * w)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(gh.u(XS) - expected)) <= 1e-13 * scale
    # W on the ghost's own grid: N >= 64 and above every degree
    n = max(64, funcspace._grid_size(max(gh.u.degree, st.y0.degree)))
    y0, u, dy0, du = engine._ghost_rows(st, gh.u, gh.du, n)
    assert engine._wronskian_defect(du * y0 - dy0 * u) <= 1e-11


def test_ghost_spectral_solve_unresolved_is_engine_error(monkeypatch):
    prob, st = _closed_problem(20)
    monkeypatch.setattr(funcspace, "IVP_MAX_DEGREE", 32)
    with pytest.raises(EngineError, match="ghost solve failed"):
        ghost(st, prob)


def test_linear_ivp_that_overflows_is_unresolved():
    # u'' = 1e300 u grows like cosh(1e150 x): the coefficients overflow
    q = SpectralFun.constant(1e300, (0.0, 1.0))
    with pytest.raises(funcspace.UnresolvedError,
                       match="^initial-value solve not finite$"):
        funcspace.solve_linear_ivp(q, 1.0)


def test_linear_ivp_on_a_singular_system_is_unresolved(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(funcspace.np.linalg, "solve", singular)
    q = SpectralFun.constant(-3.0, (0.0, 1.0))
    with pytest.raises(funcspace.UnresolvedError,
                       match="^initial-value solve: Singular matrix$"):
        funcspace.solve_linear_ivp(q, 1.0)


def test_linear_ivp_matches_scipy_solve_ivp():
    from scipy.integrate import solve_ivp  # reference only
    prob = load_problem("domain = 0 1\nv0 = 20*x^2\nperturbation.1.p2 = 0\n"
                        "perturbation.1.p1 = 1\nperturbation.1.p0 = 0\n")
    e0, u_a = 30.0, -0.3
    q = prob.v0_fun - SpectralFun.constant(e0, prob.domain)
    u = funcspace.solve_linear_ivp(q, u_a)
    sol = solve_ivp(lambda x, z: [z[1], (20.0 * x * x - e0) * z[0]],
                    (0.0, 1.0), [u_a, 0.0], method="DOP853", rtol=1e-13,
                    atol=1e-13, dense_output=True)
    ref = sol.sol(XS)[0]
    assert u.degree <= 32
    assert np.max(np.abs(u(XS) - ref)) <= 1e-11 * np.max(np.abs(ref))
    assert u(0.0) == pytest.approx(u_a, abs=1e-14)
    assert abs(u.derivative()(0.0)) <= 1e-11


@pytest.mark.parametrize("n", [1, 50, 100])
def test_sine_state_and_ghost_grid_fits_match_per_point_sampling(m3, n):
    # the whole-grid fits of sin and cos reproduce the scalar route bit
    # for bit: each reference evaluates at one float at a time
    def per_point(f):
        return SpectralFun.from_function(
            lambda nodes: np.array([float(f(x)) for x in nodes]), (0.0, 1.0))

    w = n * np.pi
    y0 = per_point(lambda x: np.sqrt(2.0) * np.sin(w * x))
    st = analytic_sine_state(m3, n)
    expected = y0 * (1.0 / (np.sqrt(2.0) / math.sqrt(2.0 / 1.0)))
    assert st.y0.coeffs.tobytes() == expected.coeffs.tobytes()
    root = np.sqrt(st.E0)
    c = st.dy0(0.0) / root
    u = per_point(lambda x: -np.cos(root * x) / (c * root))
    assert ghost(st, m3).u.coeffs.tobytes() == u.coeffs.tobytes()


def test_ghost_rejects_degenerate_left_slope(m1):
    flat = SpectralFun.from_function(lambda x: (x * (1 - x)) ** 2, (0, 1))
    st = UnperturbedState(n=1, E0=PI2, y0=flat, dy0=flat.derivative(),
                          report_scale=1.0)
    with pytest.raises(EngineError, match="degenerate"):
        ghost(st, m1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_wronskian_invariant_both_models(n, m1, m3):
    for prob in (m1, m3):
        st = analytic_sine_state(prob, n)
        gh = ghost(st, prob)
        w = gh.du(XS) * st.y0(XS) - st.dy0(XS) * gh.u(XS)
        assert np.max(np.abs(w - 1.0)) <= 1e-10


# ----------------------------------------------------------------------
# order-by-order recurrence
# ----------------------------------------------------------------------

def test_order_rhs_model1_first_order(m1):
    st = analytic_sine_state(m1, 2)
    g = order_rhs(m1, [st.E0], [st.y0], 1)
    assert np.max(np.abs(g(XS) - st.dy0(XS))) <= 1e-11 * st.dy0.sup_norm()


def test_order_rhs_model3_first_order(m3):
    st = analytic_sine_state(m3, 1)
    g = order_rhs(m3, [st.E0], [st.y0], 1)
    ypp = st.dy0.derivative()
    expected = (0.6 * XS**2 * ypp(XS)
                + 1.2 * (XS * st.dy0(XS) - st.y0(XS)))
    assert np.max(np.abs(g(XS) - expected)) <= 1e-10


def test_order_rhs_zero_operator():
    text = ("domain = 0 1\nv0 = 0\nperturbation.1.p2 = 0\n"
            "perturbation.1.p1 = 0\nperturbation.1.p0 = 0\n")
    prob = load_problem(text)
    st = analytic_sine_state(prob, 1)
    g = order_rhs(prob, [st.E0], [st.y0], 1)
    assert g.sup_norm() <= 1e-13


def test_solve_order_model1_first_two(m1):
    st = analytic_sine_state(m1, 1)
    gh = ghost(st, m1)
    e1, y1 = solve_order(m1, st, gh, [st.E0], [st.y0], 1)
    assert abs(e1) <= 1e-10
    expected = 0.5 * XS * st.y0(XS)
    assert np.max(np.abs(y1(XS) - expected)) <= 1e-10
    e2, _ = solve_order(m1, st, gh, [st.E0, e1], [st.y0, y1], 2)
    assert e2 == pytest.approx(0.25, abs=1e-10)


def test_solve_order_model3_first(m3):
    st = analytic_sine_state(m3, 1)
    gh = ghost(st, m3)
    e1, _ = solve_order(m3, st, gh, [st.E0], [st.y0], 1)
    assert e1 == pytest.approx(-(2 * PI2 + 15) / 10, rel=1e-12)
    assert e1 == pytest.approx(-3.4739209, rel=1e-7)


def test_compute_series_model1_terminates(m1):
    st = analytic_sine_state(m1, 1)
    ser = compute_series(m1, st, 6)
    assert ser.energies[0] == pytest.approx(PI2, rel=1e-12)
    assert ser.energies[2] == pytest.approx(0.25, abs=1e-10)
    for j in (1, 3, 4, 5, 6):
        assert abs(ser.energies[j]) <= 1e-9


def test_compute_series_model3(m3):
    st = analytic_sine_state(m3, 1)
    ser = compute_series(m3, st, 3)
    e0, e1, e2, e3 = model3_E_coeffs(1)
    assert ser.energies[1] == pytest.approx(e1, rel=1e-10)
    assert ser.energies[2] == pytest.approx(e2, rel=1e-10)
    assert ser.energies[2] == pytest.approx(-0.2623, abs=5e-5)
    assert ser.energies[3] == pytest.approx(e3, rel=1e-10)
    assert ser.energies[3] == pytest.approx(-0.0791, abs=5e-5)


def test_compute_series_order_zero(m1):
    st = analytic_sine_state(m1, 2)
    ser = compute_series(m1, st, 0)
    assert ser.order == 0
    assert ser.energies == [st.E0]
    assert ser.norm_coeffs[0] == pytest.approx(st.report_scale)


@pytest.mark.parametrize("J", [0, 1, 5, 12])
def test_compute_series_solves_boundary_once(J, m3, monkeypatch):
    # the boundary solution and every order make one pass of the value
    # kernel each
    calls, kernel_calls = [], []
    boundary, kernel = engine._boundary_solution, engine._vp_values

    def counted(*args):
        calls.append(args)
        return boundary(*args)

    def counted_kernel(*args):
        kernel_calls.append(len(args[3]))
        return kernel(*args)

    monkeypatch.setattr(engine, "_boundary_solution", counted)
    monkeypatch.setattr(engine, "_vp_values", counted_kernel)
    compute_series(m3, analytic_sine_state(m3, 2), J)
    assert len(calls) == (1 if J >= 1 else 0)
    assert len(kernel_calls) == (J + 1 if J >= 1 else 0)


@pytest.mark.parametrize("model,n,J", [("m1", 3, 12), ("m3", 2, 10)])
def test_compute_series_equals_order_by_order_solves(model, n, J, m1, m3):
    # bit for bit the steps of one recurrence; a chain of solve_order
    # calls, each forming g_j from the series of the lower orders, agrees
    # to rounding, which grows as model 1's y_j fall to 1e-13 at j = 12
    prob = m1 if model == "m1" else m3
    st = analytic_sine_state(prob, n)
    gh = ghost(st, prob)
    rec = engine._Recurrence(prob, st, gh, J)
    for _ in range(J):
        rec.step()
    ser = compute_series(prob, st, J)
    assert ser.energies == rec.energies
    for got, ref in zip(ser.wavefuns, rec.wavefuns):
        assert got.coeffs.tobytes() == ref.coeffs.tobytes()
    energies, wavefuns = [st.E0], [st.y0]
    for j in range(1, J + 1):
        e_j, y_j = solve_order(prob, st, gh, energies, wavefuns, j)
        assert abs(e_j - ser.energies[j]) <= 1e-12 * st.E0
        scale = np.max(np.abs(ser.wavefuns[j](XS)))
        assert np.max(np.abs(y_j(XS) - ser.wavefuns[j](XS))) <= 1e-11 * scale
        energies.append(e_j)
        wavefuns.append(y_j)


@pytest.mark.parametrize("model,n,J", [("m3", 3, 8), ("m1", 3, 12)])
def test_order_rhs_matches_chain_of_function_sums(model, n, J, m1, m3):
    # reference: the sum built one SpectralFun operation at a time, each
    # operator term on its own grid
    prob = m1 if model == "m1" else m3
    ser = compute_series(prob, analytic_sine_state(prob, n), J)
    for j in range(1, J + 1):
        ref = SpectralFun.constant(0.0, prob.domain)
        for k in range(1, min(len(prob.perturbations), j) + 1):
            ref = ref + prob.apply_perturbation(k, ser.wavefuns[j - k])
        for k in range(1, j):
            ref = ref + (-(ser.wavefuns[j - k] * ser.energies[k]))
        got = order_rhs(prob, ser.energies, ser.wavefuns, j).coeffs
        width = max(len(got), len(ref.coeffs))
        diff = np.zeros(width)
        diff[:len(got)] = got
        diff[:len(ref.coeffs)] -= ref.coeffs
        assert np.max(np.abs(diff)) <= 1e-14 * np.max(np.abs(ref.coeffs))


def test_operator_callers_multiply_no_series(m3, monkeypatch):
    # order_rhs, apply_perturbation, residual and state_verdict apply the
    # operators through the grid kernel, not through SpectralFun products
    st = analytic_sine_state(m3, 2)
    ser = compute_series(m3, st, 4)
    energy, y = sum_series(ser, 0.1, 4)

    def boom(self, other):
        raise AssertionError("SpectralFun product")

    monkeypatch.setattr(SpectralFun, "__mul__", boom)
    monkeypatch.setattr(SpectralFun, "__rmul__", boom)
    for j in range(1, 5):
        order_rhs(m3, ser.energies, ser.wavefuns, j)
    m3.apply_perturbation(1, ser.wavefuns[2])
    assert residual(m3, 0.1, energy, y) <= 1e-3
    _, res, _, _ = state_verdict(m3, st)
    assert res <= 1e-9 * st.dy0.derivative().sup_norm()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_state_fails_on_the_error_path_without_warnings():
    # on [0, 1e-150] y0 is ~1e75 and E0 ~1e301, so (v0 - E0) y0 and E0 y0
    # overflow: every entry raises SpectralError, and no numpy warning
    # (an error here) comes first
    prob = load_problem(model1_config().replace("domain = 0 1",
                                                "domain = 0 1e-150"))
    st = analytic_sine_state(prob, 1)
    gh = ghost(st, prob)
    big = SpectralFun(prob.domain, [1e300, 1e300, 1e300])
    for call in (lambda: compute_series(prob, st, 3),
                 lambda: state_verdict(prob, st),
                 lambda: solve_order(prob, st, gh, [st.E0], [st.y0], 1),
                 lambda: engine._vp(st, gh, big),
                 lambda: order_rhs(prob, [st.E0, 1e300], [st.y0, big], 2)):
        with pytest.raises(SpectralError, match="not finite"):
            call()


def test_degenerate_boundary_equation_only_when_orders_requested(
        m1, monkeypatch):
    st = analytic_sine_state(m1, 1)
    monkeypatch.setattr(engine, "_vp_values", lambda state, gh, rows, r, pair:
                        np.zeros((2, len(r))))
    assert compute_series(m1, st, 0).order == 0
    with pytest.raises(EngineError, match="boundary equation degenerate"):
        compute_series(m1, st, 1)
    with pytest.raises(EngineError, match="boundary equation degenerate"):
        solve_order(m1, st, ghost(st, m1), [st.E0], [st.y0], 1)


def test_boundary_is_solved_once_per_recurrence(m3, monkeypatch):
    calls = []
    boundary = engine._boundary_solution

    def counted(*args):
        calls.append(args)
        return boundary(*args)

    monkeypatch.setattr(engine, "_boundary_solution", counted)
    st = analytic_sine_state(m3, 3)
    rec = engine._Recurrence(m3, st, ghost(st, m3), 8)
    for _ in range(8):
        rec.step()
    assert len(calls) == 1 and rec.wavefuns[8].degree > 0
    # solve_order solves the boundary at each call
    solve_order(m3, st, rec.gh, rec.energies, rec.wavefuns, 8)
    assert len(calls) == 2


@pytest.mark.parametrize("J", [0, 1, 7])
def test_compute_series_runs_recurrence_steps_and_solve_order_none(
        J, m3, monkeypatch):
    # compute_series holds one np.errstate around its loop and runs the
    # recurrence's step inside it
    orders = []
    step = engine._Recurrence.step

    def counted(rec):
        orders.append(len(rec.wavefuns))
        return step(rec)

    monkeypatch.setattr(engine._Recurrence, "step", counted)
    st = analytic_sine_state(m3, 2)
    ser = compute_series(m3, st, J)
    assert orders == list(range(1, J + 1))
    if J:
        orders.clear()
        solve_order(m3, st, ghost(st, m3), ser.energies, ser.wavefuns, J)
        assert orders == []


@pytest.mark.parametrize("j,energies,wavefuns",
                         [(-1, 1, 1), (0, 1, 1), (3, 1, 1), (3, 2, 3)])
def test_order_entries_require_the_lower_orders(j, energies, wavefuns, m3):
    # the first j of E_0.. and y_0.. are needed for order j
    st = analytic_sine_state(m3, 1)
    ser = compute_series(m3, st, 2)
    energies, wavefuns = ser.energies[:energies], ser.wavefuns[:wavefuns]
    with pytest.raises(EngineError, match=f"required before order {j}"):
        solve_order(m3, st, ghost(st, m3), energies, wavefuns, j)
    with pytest.raises(EngineError, match=f"required before order {j}"):
        order_rhs(m3, energies, wavefuns, j)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("model", ["m1", "m3"])
def test_series_invariants(n, model, m1, m3):
    prob = m1 if model == "m1" else m3
    st = analytic_sine_state(prob, n)
    gh = ghost(st, prob)
    ser = compute_series(prob, st, 4)
    v0fun = prob.v0_fun
    for j in range(1, ser.order + 1):
        y_j = ser.wavefuns[j]
        sup = max(y_j.sup_norm(), 1e-30)
        # endpoint construction convention
        assert abs(y_j(0.0)) <= 1e-9 * sup
        assert abs(y_j(1.0)) <= 1e-9 * sup
        assert abs(y_j.derivative()(0.0)) <= 1e-9 * sup
        # order-j equation
        g = order_rhs(prob, ser.energies, ser.wavefuns, j)
        lhs = (y_j.derivative().derivative()
               - v0fun * y_j + y_j * st.E0)
        defect = lhs - g + st.y0 * ser.energies[j]
        bound = 1e-8 * max(1.0, g.sup_norm())
        assert np.max(np.abs(defect(XS))) <= bound
        # two routes to E_j agree
        e_route = solvability_energy(st, g)
        assert ser.energies[j] == pytest.approx(
            e_route, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("scale", [0.3, 1.0, math.sqrt(2), 5.0])
def test_amplitude_invariance_of_energies(scale, m3):
    st_ref = analytic_sine_state(m3, 2, amplitude=1.0)
    ref = compute_series(m3, st_ref, 3).energies
    st = analytic_sine_state(m3, 2, amplitude=scale)
    got = compute_series(m3, st, 3).energies
    for a, b in zip(ref, got):
        assert b == pytest.approx(a, rel=1e-11, abs=1e-11)


# ----------------------------------------------------------------------
# normalization
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_model1_normalization_coeffs(n, m1):
    st = analytic_sine_state(m1, n)  # sqrt(2) amplitude: report scale 1
    ser = compute_series(m1, st, 3)
    w2 = n * n * PI2
    assert ser.norm_coeffs[0] == pytest.approx(1.0, rel=1e-12)
    assert ser.norm_coeffs[1] == pytest.approx(-0.25, rel=1e-10)
    assert ser.norm_coeffs[2] == pytest.approx((w2 + 12) / (96 * w2), rel=1e-10)
    assert ser.norm_coeffs[3] == pytest.approx((w2 - 12) / (384 * w2), rel=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_model3_normalization_coeffs_unit_amplitude(n, m3):
    st = analytic_sine_state(m3, n, amplitude=1.0)
    ser = compute_series(m3, st, 2)
    w4 = (n * n * PI2) ** 2
    assert ser.norm_coeffs[0] == pytest.approx(math.sqrt(2), rel=1e-12)
    assert ser.norm_coeffs[1] / ser.norm_coeffs[0] == pytest.approx(
        -3.0 / 20.0, rel=1e-10)
    expected = -3.0 * (29 * w4 + 10 * n * n * PI2 + 30) / (4000 * w4)
    assert ser.norm_coeffs[2] / ser.norm_coeffs[0] == pytest.approx(
        expected, rel=1e-10)


def test_generic_normalization_matches_explicit_second_order(m3):
    st = analytic_sine_state(m3, 1)
    ser = compute_series(m3, st, 2)
    y0, y1, y2 = ser.wavefuns
    o01 = (y0 * y1).definite_integral()
    o02 = (y0 * y2).definite_integral()
    o11 = (y1 * y1).definite_integral()
    n1 = -o01
    n2 = (3 * o01**2 - 2 * o02 - o11) / 2
    rs = st.report_scale
    assert ser.norm_coeffs[1] == pytest.approx(rs * n1, rel=1e-11)
    assert ser.norm_coeffs[2] == pytest.approx(rs * n2, rel=1e-11)


def test_normalization_closure_defect_order(m3):
    st = analytic_sine_state(m3, 1)
    ser = compute_series(m3, st, 3)

    def defect(lam):
        _, y = sum_series(ser, lam, 3, normalize=True)
        return abs((y * y).definite_integral() - 1.0)

    ratio = defect(0.2) / defect(0.1)
    assert 2 ** 4 / 2 <= ratio <= 2 ** 4 * 2


# ----------------------------------------------------------------------
# summation and residuals
# ----------------------------------------------------------------------

def test_sum_series_model1_exact_value(m1):
    st = analytic_sine_state(m1, 1)
    ser = compute_series(m1, st, 2)
    energy, _ = sum_series(ser, 0.8, 2)
    assert energy == pytest.approx(PI2 + 0.16, rel=1e-12)


def test_sum_series_model3_partial(m3):
    st = analytic_sine_state(m3, 1)
    ser = compute_series(m3, st, 3)
    energy, _ = sum_series(ser, 1.0, 3)
    assert energy == pytest.approx(sum(model3_E_coeffs(1)), rel=1e-10)
    assert energy == pytest.approx(6.0543, abs=5e-4)


def test_sum_series_lambda_zero(m3):
    st = analytic_sine_state(m3, 2)
    ser = compute_series(m3, st, 3)
    energy, y = sum_series(ser, 0.0, 3)
    assert energy == st.E0
    assert np.max(np.abs(y(XS) - st.y0(XS))) == 0.0


def _sum_chain(series, lam, upto, normalize):
    """The summed wavefunction as a chain of SpectralFun sums."""
    y = series.wavefuns[0]
    for j in range(1, upto + 1):
        y = y + series.wavefuns[j] * (lam ** j)
    if normalize:
        n0 = series.norm_coeffs[0]
        y = y * sum(series.norm_coeffs[j] / n0 * lam ** j
                    for j in range(upto + 1))
    return y


@pytest.mark.parametrize("n", [1, 3, 20])
@pytest.mark.parametrize("model", ["m1", "m3"])
def test_sum_series_accumulates_the_bits_of_the_chain(model, n, m1, m3):
    prob = m1 if model == "m1" else m3
    ser = compute_series(prob, analytic_sine_state(prob, n), 12)
    for lam in (0.0, 0.3, -0.7, 1.9):
        for upto in (0, 1, 5, 12):
            for normalize in (False, True):
                energy, y = sum_series(ser, lam, upto, normalize=normalize)
                ref = _sum_chain(ser, lam, upto, normalize)
                assert y.coeffs.tobytes() == ref.coeffs.tobytes()
                assert energy == sum(ser.energies[j] * lam ** j
                                     for j in range(upto + 1))


def test_an_overflowing_power_of_lambda_names_its_order():
    assert engine.lambda_powers(-1e200, 1) == [1.0, -1e200]
    with pytest.raises(EngineError,
                       match=r"^lambda\^2 overflows at lambda = -1e\+200$"):
        engine.lambda_powers(-1e200, 8)


def test_residual_exact_model1_solution(m1):
    lam = 0.5
    energy, yfun = model1_exact(1, lam)
    y = SpectralFun.from_function(yfun, (0, 1))
    assert residual(m1, lam, energy, y) <= 1e-9


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.7, 1.0])
def test_residual_model1_deep_sum(lam, m1):
    # the energy series ends at order 2; the wavefunction series converges
    # factorially, so a deep partial sum drives the residual to roundoff
    st = analytic_sine_state(m1, 1)
    ser = compute_series(m1, st, 16)
    energy, y = sum_series(ser, lam, 16)
    assert energy == pytest.approx(PI2 + lam * lam / 4, rel=1e-10)
    assert residual(m1, lam, energy, y) <= 1e-9


def test_residual_scaling_model3(m3):
    st = analytic_sine_state(m3, 1)
    ser = compute_series(m3, st, 3)
    r_half = residual(m3, 0.5, *sum_series(ser, 0.5, 3))
    r_quarter = residual(m3, 0.25, *sum_series(ser, 0.25, 3))
    ratio = r_half / r_quarter
    assert 2 ** 4 / 2 <= ratio <= 2 ** 4 * 2


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def test_series_serialization_roundtrip(m3):
    st = analytic_sine_state(m3, 1)
    ser = compute_series(m3, st, 2)
    data = series_to_dict(ser)
    assert data["n"] == 1
    assert data["E0"] == pytest.approx(PI2)
    back = series_from_dict(data)
    assert back.energies == ser.energies
    assert back.norm_coeffs == [float(v) for v in ser.norm_coeffs]
    for ya, yb in zip(back.wavefuns, ser.wavefuns):
        assert np.array_equal(ya.coeffs, yb.coeffs)
    e1, _ = sum_series(back, 0.5, 2)
    e2, _ = sum_series(ser, 0.5, 2)
    assert e1 == e2


@pytest.mark.parametrize("field,value,message", [
    ("n", 1.5, "n is not an integer: 1.5"),
    ("n", True, "n is not an integer: True"),
    ("n", "2", "n is not an integer: '2'"),
    ("n", None, "n is not an integer: None"),
    ("n", 0, "n must be >= 1, got 0"),
    ("n", -3, "n must be >= 1, got -3"),
    ("j", 1.0, "order index j is not an integer: 1.0"),
    ("j", True, "order index j is not an integer: True"),
    ("j", "1", "order index j is not an integer: '1'"),
])
def test_series_file_integers_are_json_integers(m3, field, value, message):
    data = series_to_dict(compute_series(m3, analytic_sine_state(m3, 2), 2))
    assert series_from_dict(data).n == 2
    if field == "n":
        data["n"] = value
    else:
        data["orders"][1]["j"] = value
    with pytest.raises(EngineError) as err:
        series_from_dict(data)
    assert str(err.value) == f"series file {message}"


@pytest.mark.parametrize("J", [-1, -7])
def test_negative_series_order_is_rejected(m1, J):
    st = analytic_sine_state(m1, 1)
    with pytest.raises(EngineError, match=f"^order must be >= 0, got {J}$"):
        compute_series(m1, st, J)


@pytest.mark.parametrize("upto", [-1, 4])
def test_truncation_order_outside_the_series_is_rejected(m1, upto):
    ser = compute_series(m1, analytic_sine_state(m1, 1), 3)
    with pytest.raises(EngineError,
                       match=f"^truncation order {upto} outside 0..3$"):
        sum_series(ser, 0.1, upto)


@pytest.mark.parametrize("s0", [0.0, -1.5])
def test_inverse_square_root_needs_a_positive_constant_term(s0):
    with pytest.raises(EngineError, match="^series constant term must be "
                                          f"positive, got {s0}$"):
        engine._inv_sqrt_series([s0, 1.0, 2.0])
