"""The grid kernels of the order recurrence against the coefficient-space
code they replace, which is written out here as the reference."""

import math
import time
import weakref

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

from pertbvp import engine, funcspace
from pertbvp import problem as pb
from pertbvp.engine import compute_series, ghost, order_rhs
from pertbvp.funcspace import (SpectralFun, _coeffs_from_samples,
                               _grid_size, _integrate_rows, _truncate,
                               _values_at_extrema)
from pertbvp.oracles import (model1_problem, model1_series_exact,
                             model3_problem)

XS = np.linspace(0.0, 1.0, 257)


@pytest.fixture(scope="module")
def m1():
    return model1_problem()


@pytest.fixture(scope="module")
def m3():
    return model3_problem()


@pytest.fixture(scope="module")
def mp():
    """Coefficients whose degrees raise the degree of the result."""
    return pb.load_problem("domain = 0 1\nv0 = 0\nperturbation.1.p2 = x^4/5\n"
                           "perturbation.1.p1 = x^3\n"
                           "perturbation.1.p0 = x^5 - 1\n")


def _plain_vp(state, gh, r):
    """V(r) = u int y0 r - y0 int u r as four products and two integrals in
    coefficient space, with numpy's ``chebmul`` and ``chebint``, and no
    division by the measured Wronskian."""
    y0, u, rc = state.y0.coeffs, gh.u.coeffs, r.coeffs
    scl = 0.5 * (r.b - r.a)
    int_y0 = cheb.chebint(cheb.chebmul(y0, rc), lbnd=-1, scl=scl)
    int_u = cheb.chebint(cheb.chebmul(u, rc), lbnd=-1, scl=scl)
    return SpectralFun(r.domain, _truncate(cheb.chebsub(
        cheb.chebmul(u, int_y0), cheb.chebmul(y0, int_u))))


def _plain_vp_values(state, gh, rows, r):
    """:func:`_plain_vp` in the form of the value-level kernel: the values
    of V(r) and of V(r)' = u' int y0 r - y0' int u r at the Chebyshev
    extrema of the samples r, from products and integrals in coefficient
    space with W = 1, evaluated with ``chebval`` (the ghost rows go
    unused)."""
    n = len(r) - 1
    rc = _coeffs_from_samples(r)
    y0, u, dy0, du = (f.coeffs for f in (state.y0, gh.u, state.dy0, gh.du))
    scl = 0.5 * (state.y0.b - state.y0.a)
    int_y0 = cheb.chebint(cheb.chebmul(y0, rc), lbnd=-1, scl=scl)
    int_u = cheb.chebint(cheb.chebmul(u, rc), lbnd=-1, scl=scl)
    t = np.cos(np.pi * np.arange(n + 1) / n)
    return np.array([
        cheb.chebval(t, cheb.chebsub(cheb.chebmul(u, int_y0),
                                     cheb.chebmul(y0, int_u))),
        cheb.chebval(t, cheb.chebsub(cheb.chebmul(du, int_y0),
                                     cheb.chebmul(dy0, int_u)))])


def _chain(problem, k, f):
    """p2 f'' + p1 f' + p0 f as three coefficient-space products, with
    numpy's ``chebder`` and ``chebmul``."""
    op = problem.perturbations[k - 1]
    scl = 2.0 / (f.b - f.a)
    df = cheb.chebder(f.coeffs) * scl
    ddf = cheb.chebder(df) * scl
    terms = [cheb.chebmul(problem._fit((k, part), getattr(op, part)).coeffs,
                          c)
             for part, c in (("p2", ddf), ("p1", df), ("p0", f.coeffs))]
    return SpectralFun(f.domain, _truncate(cheb.chebadd(
        cheb.chebadd(*terms[:2]), terms[2])))


def _sup(f):
    return float(np.max(np.abs(f(XS))))


def _boundary(st, gh):
    """(phi_b, phi_b(b)) from the coefficients of the boundary solution."""
    rows = engine._boundary_solution(st, gh)
    return (SpectralFun._adopt(st.y0.a, st.y0.b, _truncate(rows[0])),
            float(rows[0].sum()))


# ----------------------------------------------------------------------
# funcspace helpers
# ----------------------------------------------------------------------

@pytest.mark.parametrize("domain", [(0.0, 1.0), (-3.0, 7.5), (2.0, 2.25)])
def test_derivative_matches_chebder(domain):
    a, b = domain
    scl = 2.0 / (b - a)
    rng = np.random.default_rng(21)
    for size in [2, 3, 4, 5, 8, 17, 64, 65, 200, 513]:
        for decay in (0.0, 0.1):
            c = rng.standard_normal(size) * np.exp(-decay * np.arange(size))
            got = SpectralFun(domain, c).derivative().coeffs
            ref = cheb.chebder(c) * scl
            assert len(got) == len(ref)
            deg = size - 1
            bound = 2e-16 * deg * deg * np.max(np.abs(c)) * scl
            assert np.max(np.abs(got - ref)) <= bound
    const = SpectralFun(domain, [4.0]).derivative()
    assert const.coeffs.tolist() == [0.0]
    d2, d1, c = funcspace._derivatives(np.array([4.0]), scl)
    assert d2.tolist() == d1.tolist() == [0.0] and c.tolist() == [4.0]


def test_integrate_rows_matches_chebint():
    rng = np.random.default_rng(22)
    for n in (1, 2, 7, 64):
        c = np.zeros((3, n + 1))
        c[:, :n] = rng.standard_normal((3, n))
        got = _integrate_rows(c)
        for row, ref in zip(got, c):
            expected = cheb.chebint(ref[:n], lbnd=-1)
            assert np.max(np.abs(row - expected[:n + 1])) <= 1e-15 * n


def test_values_at_extrema_takes_the_degree_n_column():
    rng = np.random.default_rng(23)
    for n in (1, 4, 33):
        coeffs = rng.standard_normal((2, n + 1))
        t = np.cos(np.pi * np.arange(n + 1) / n)
        for row, c in zip(_values_at_extrema(coeffs, n), coeffs):
            assert np.max(np.abs(row - cheb.chebval(t, c))) <= 1e-14 * n


def _two_branch_values(coeffs, n):
    """The values at the n+1 extrema as computed before the ragged form:
    one branch for exactly n + 1 columns, one that zero-pads."""
    if coeffs.shape[-1] == n + 1:
        x = 0.5 * coeffs
        x[..., ::n] = coeffs[..., ::n]
        return funcspace._dct1(x)
    x = np.zeros(coeffs.shape[:-1] + (n + 1,))
    x[..., :coeffs.shape[-1]] = 0.5 * coeffs
    x[..., 0] = coeffs[..., 0]
    return funcspace._dct1(x)


def test_values_at_extrema_of_ragged_rows_is_bit_for_bit_the_old_route():
    rng = np.random.default_rng(31)
    n = 32
    ragged = [rng.standard_normal(k) for k in (1, 6, 20, n + 1)]
    for rows, width in ((ragged[:3], 20), (ragged, n + 1)):
        got = _values_at_extrema(rows, n)
        assert got.tobytes() == _two_branch_values(
            funcspace._rows(rows, width), n).tobytes()
        assert got.tobytes() == _values_at_extrema(
            funcspace._rows(rows, width), n).tobytes()
    for c in ragged:
        got = _values_at_extrema(c, n)
        assert got.shape == (n + 1,)
        assert got.tobytes() == _two_branch_values(c, n).tobytes()


@pytest.mark.parametrize("deg1,deg2", [(0, 0), (1, 1), (3, 4), (20, 43),
                                       (30, 40), (63, 64), (50, 90),
                                       (100, 411)])
def test_grid_size_is_the_smallest_alias_free_grid(deg1, deg2):
    rng = np.random.default_rng(deg1 + 7 * deg2)
    c1, c2 = rng.standard_normal(deg1 + 1), rng.standard_normal(deg2 + 1)
    exact = cheb.chebmul(c1, c2)
    n = _grid_size(deg1 + deg2)
    assert n > deg1 + deg2 >= n // 2 and n & (n - 1) == 0

    def grid_product(m):
        return _coeffs_from_samples(_values_at_extrema(c1, m)
                                    * _values_at_extrema(c2, m))

    got = grid_product(n)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(got[:len(exact)] - exact)) <= 1e-14 * scale * n
    assert np.max(np.abs(got[len(exact):]), initial=0.0) <= 1e-14 * scale * n
    if max(deg1, deg2) < n // 2 < deg1 + deg2:
        # the next smaller grid aliases the product
        small = grid_product(n // 2)
        assert np.max(np.abs(small - exact[:n // 2 + 1])) > 1e-6 * scale


def _spy_grid_sizes(monkeypatch, module):
    seen = []

    def spy(degree):
        n = _grid_size(degree)
        seen.append(n)
        return n

    monkeypatch.setattr(module, "_grid_size", spy)
    return seen


@pytest.mark.parametrize("n", [1, 3, 40])
def test_kernel_grids_are_above_the_exact_degree(m3, mp, monkeypatch, n):
    st = pb.analytic_sine_state(m3, n)
    gh = ghost(st, m3)
    g = order_rhs(m3, [st.E0], [st.y0], 1)
    vp_sizes = _spy_grid_sizes(monkeypatch, engine)
    engine._vp(st, gh, g)
    assert vp_sizes == [vp_sizes[0]]
    assert vp_sizes[0] > gh.u.degree + st.y0.degree + g.degree + 1
    op_sizes = _spy_grid_sizes(monkeypatch, pb)
    for prob in (m3, mp):
        prob.apply_perturbation(1, g)
        p2, p1, p0 = (prob._fit((1, part), getattr(prob.perturbations[0], part))
                      for part in ("p2", "p1", "p0"))
        exact = max(p2.degree + g.degree - 2, p1.degree + g.degree - 1,
                    p0.degree + g.degree)
        assert op_sizes.pop() > exact and not op_sizes


# ----------------------------------------------------------------------
# the kernels against the code they replace
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 5, 30])
@pytest.mark.parametrize("model", ["m1", "m3"])
def test_grid_vp_matches_four_product_formula(model, n, m1, m3):
    prob = m1 if model == "m1" else m3
    st = pb.analytic_sine_state(prob, n)
    gh = ghost(st, prob)
    bump = SpectralFun.from_function(lambda x: np.exp(x) * np.cos(3 * x),
                                     prob.domain)
    for r in (-st.y0, order_rhs(prob, [st.E0], [st.y0], 1), bump):
        ref = _plain_vp(st, gh, r) * (1.0 / gh.wronskian)
        got = engine._vp(st, gh, r)
        assert np.max(np.abs(got(XS) - ref(XS))) <= 1e-13 * _sup(ref)


@pytest.mark.parametrize("n", [1, 2, 5, 30])
@pytest.mark.parametrize("model", ["m1", "m3", "mp"])
def test_grid_apply_perturbation_matches_three_product_chain(
        model, n, m1, m3, mp):
    prob = {"m1": m1, "m3": m3, "mp": mp}[model]
    st = pb.analytic_sine_state(prob, n)
    ser = compute_series(prob, st, 4)
    for f in ser.wavefuns:
        ref = _chain(prob, 1, f)
        got = prob.apply_perturbation(1, f)
        bound = 1e-15 * f.degree ** 2 * max(_sup(ref), _sup(f))
        assert np.max(np.abs(got(XS) - ref(XS))) <= bound


def _relative_gap(got, ref):
    """Largest coefficient difference relative to the largest of ``ref``,
    the shorter array padded with zeros."""
    gap = np.zeros(max(len(got), len(ref)))
    gap[:len(got)] += got
    gap[:len(ref)] -= ref
    return np.max(np.abs(gap)) / np.max(np.abs(ref))


def test_kernels_are_alias_free_at_every_degree(m1, mp):
    # random coefficients that do not decay: a grid one size too small for
    # any degree would fold the top of the product back onto the bottom
    rng = np.random.default_rng(24)
    st = pb.analytic_sine_state(m1, 1)
    gh = ghost(st, m1)
    for deg in range(80):
        f = SpectralFun(mp.domain, rng.standard_normal(deg + 1))
        ref = _chain(mp, 1, f).coeffs
        assert _relative_gap(mp.apply_perturbation(1, f).coeffs, ref) <= 1e-14
        ref = _plain_vp(st, gh, f).coeffs / gh.wronskian
        assert _relative_gap(engine._vp(st, gh, f).coeffs, ref) <= 1e-14


def test_operator_on_series_of_lower_degree_than_its_coefficients():
    prob = pb.load_problem("domain = -1 2\nv0 = 0\nperturbation.1.p2 = x^3\n"
                           "perturbation.1.p1 = x\nperturbation.1.p0 = 2\n")
    xs = np.linspace(-1.0, 2.0, 31)
    const = prob.apply_perturbation(1, SpectralFun(prob.domain, [3.0]))
    assert np.max(np.abs(const(xs) - 6.0)) <= 1e-13
    # 0.5 + 1.5 t with t = (2x - 1) / 3 is f = x, so P f = x + 2x
    line = prob.apply_perturbation(1, SpectralFun(prob.domain, [0.5, 1.5]))
    assert np.max(np.abs(line(xs) - 3.0 * xs)) <= 1e-13


def test_no_ghost_outlives_compute_series(m3, monkeypatch):
    refs = []
    build = engine.ghost

    def recorded(state, problem):
        gh = build(state, problem)
        refs.append(weakref.ref(gh))
        return gh

    monkeypatch.setattr(engine, "ghost", recorded)
    ser = compute_series(m3, pb.analytic_sine_state(m3, 3), 12)
    assert ser.order == 12
    assert len(refs) == 1 and refs[0]() is None


# ----------------------------------------------------------------------
# the measured Wronskian
# ----------------------------------------------------------------------

def _model1_digits(problem, J):
    """Correct digits of the worst model-1 y_j, j = 1..J, n = 1..3."""
    worst = 0.0
    for n in (1, 2, 3):
        ser = compute_series(problem, pb.analytic_sine_state(problem, n), J)
        for j in range(1, J + 1):
            ref = model1_series_exact(n, j)[1](XS)
            err = np.max(np.abs(ser.wavefuns[j](XS) - ref))
            worst = max(worst, err / np.max(np.abs(ref)))
    return -math.log10(worst)


def test_dividing_by_the_measured_wronskian_gains_digits(m1, monkeypatch):
    st = pb.analytic_sine_state(m1, 3)
    gh = ghost(st, m1)
    n = max(64, _grid_size(max(gh.u.degree, st.y0.degree)))
    y0, u, dy0, du = engine._ghost_rows(st, gh.u, gh.du, n)
    assert gh.wronskian == float(np.mean(du * y0 - dy0 * u))
    assert 0.0 < abs(gh.wronskian - 1.0) <= 1e-10
    assert type(gh)(u=gh.u, du=gh.du).wronskian == 1.0
    grid = _model1_digits(m1, 10)
    # every VP pass, the boundary solution's and each order's, becomes
    # the four-product map with W = 1
    monkeypatch.setattr(engine, "_vp_values", _plain_vp_values)
    plain = _model1_digits(m1, 10)
    assert grid >= plain + 0.5


# ----------------------------------------------------------------------
# the fused order step
# ----------------------------------------------------------------------

def _closed_v0():
    """v0 = 5 with the closed-form state sin(pi x) and model 3's coupling."""
    prob = pb.load_problem(
        f"domain = 0 1\nv0 = 5\ny0 = sin(pi*x)\nE0 = {math.pi ** 2 + 5.0!r}\n"
        "perturbation.1.p2 = 3*x^2/5\nperturbation.1.p1 = 6*x/5\n"
        "perturbation.1.p0 = -6/5\n")
    return prob, pb.state_from_expr(prob, 1)


def _second_order():
    """A coupling with a second-order operator, on a shifted interval."""
    prob = pb.load_problem(
        "domain = 0.5 2\nv0 = 0\nperturbation.1.p2 = 3*x^2/5\n"
        "perturbation.1.p1 = 6*x/5\nperturbation.1.p0 = -6/5\n"
        "perturbation.2.p2 = x/4\nperturbation.2.p1 = x^2\n"
        "perturbation.2.p0 = cos(x)\n")
    return prob, pb.analytic_sine_state(prob, 2)


def _gaussian():
    """A coupling of higher degree than y0."""
    prob = pb.load_problem("domain = 0 1\nv0 = 0\nperturbation.1.p2 = 0\n"
                           "perturbation.1.p1 = 0\n"
                           "perturbation.1.p0 = exp(-200*(x-0.3)^2)\n")
    return prob, pb.analytic_sine_state(prob, 1)


def _case(name, m1, m3, mp):
    if name == "closed":
        return _closed_v0()
    if name == "second":
        return _second_order()
    if name == "gauss":
        return _gaussian()
    prob = {"m1": m1, "m3": m3, "mp": mp}[name]
    return prob, pb.analytic_sine_state(prob, 3)


@pytest.mark.parametrize("name", ["m1", "m3", "mp", "closed", "second"])
def test_order_step_matches_vp_of_order_rhs(name, m1, m3, mp):
    # the reference applies V in coefficient space (_plain_vp), not through
    # the value kernel that solve_order runs
    prob, st = _case(name, m1, m3, mp)
    gh = ghost(st, prob)
    phi_b, denom = _boundary(st, gh)
    ser = compute_series(prob, st, 8)
    xs = np.linspace(prob.a, prob.b, 257)
    for j in range(1, 9):
        lower_e, lower_y = ser.energies[:j], ser.wavefuns[:j]
        phi_a = (_plain_vp(st, gh, order_rhs(prob, lower_e, lower_y, j))
                 * (1.0 / gh.wronskian))
        e_ref = -float(phi_a.coeffs.sum()) / denom
        y_ref = phi_a + phi_b * e_ref
        e_j, y_j = engine.solve_order(prob, st, gh, lower_e, lower_y, j)
        assert abs(e_j - e_ref) <= 1e-13 * max(abs(e_ref), abs(st.E0))
        ref = y_ref(xs)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(y_j(xs) - ref)) <= 1e-13 * scale


@pytest.mark.parametrize("name", ["m1", "m3", "mp", "second"])
def test_order_step_grid_is_above_the_exact_degree(name, m1, m3, mp,
                                                   monkeypatch):
    prob, st = _case(name, m1, m3, mp)
    sizes = []
    kernel = engine._vp_values

    def spy(state, gh, rows, r):
        sizes.append(len(r) - 1)
        return kernel(state, gh, rows, r)

    monkeypatch.setattr(engine, "_vp_values", spy)
    gh = ghost(st, prob)
    ser = compute_series(prob, st, 8)
    assert len(sizes) == 9  # the boundary solution, then orders 1..8
    for j in range(1, 9):
        deg = max(ser.wavefuns[j - k].degree for k in range(1, j + 1))
        for k in range(1, min(len(prob.perturbations), j) + 1):
            f = ser.wavefuns[j - k].degree
            p2, p1, p0 = (prob._fit((k, part),
                                    getattr(prob.perturbations[k - 1], part))
                          .degree for part in ("p2", "p1", "p0"))
            deg = max(deg, p2 + f - 2, p1 + f - 1, p0 + f)
        # V(g_j) has degree deg u + deg y0 + deg g_j + 1
        assert sizes[j] >= gh.u.degree + st.y0.degree + deg + 1


def test_order_step_is_alias_free_at_every_degree(m1, mp):
    # lower orders with random coefficients that do not decay: a grid one
    # size too small for any degree would fold the top of V(g_j) back onto
    # its bottom
    rng = np.random.default_rng(25)
    st = pb.analytic_sine_state(m1, 1)
    gh = ghost(st, m1)
    phi_b, denom = _boundary(st, gh)
    for deg in range(0, 80, 3):
        ys = [st.y0] + [SpectralFun(mp.domain, rng.standard_normal(deg + 1))
                        for _ in range(2)]
        energies = [st.E0, 0.7, -1.3]
        g = (_chain(mp, 1, ys[2]) - ys[2] * energies[1]
             - ys[1] * energies[2])
        phi_a = _plain_vp(st, gh, g) * (1.0 / gh.wronskian)
        e_ref = -float(phi_a.coeffs.sum()) / denom
        ref = (phi_a + phi_b * e_ref).coeffs
        e_j, y_j = engine.solve_order(mp, st, gh, energies, ys, 3)
        # rounding grows with the derivatives of a non-decaying series;
        # aliasing would leave an O(1) gap
        bound = 1e-15 * (deg + 2) ** 3
        e_scale = np.max(np.abs(phi_a.coeffs)) / abs(denom)
        assert abs(e_j - e_ref) <= bound * e_scale
        assert _relative_gap(y_j.coeffs, ref) <= bound


@pytest.mark.parametrize("values", [[math.inf, -math.inf, 1.0],
                                    [math.nan, 1.0], [1e308, 1e308, 1.0]],
                         ids=["inf-inf", "nan", "overflow"])
def test_order_step_reports_coefficients_that_are_not_finite(
        m3, monkeypatch, values):
    st = pb.analytic_sine_state(m3, 1)
    gh = ghost(st, m3)
    rows = engine._boundary_solution(st, gh)  # the patch hits order 1 only
    monkeypatch.setattr(engine, "_boundary_solution", lambda state, gh: rows)
    monkeypatch.setattr(engine, "_vp_values", lambda state, gh, rows, r:
                        np.resize(values, (2, len(r))))
    for call in (lambda: compute_series(m3, st, 1),
                 lambda: engine.solve_order(m3, st, gh, [st.E0], [st.y0], 1)):
        with pytest.raises(funcspace.SpectralError, match="not finite"):
            call()


@pytest.mark.parametrize("make,n", [(model3_problem, 2), (model1_problem, 3)],
                         ids=["model3", "model1"])
def test_ten_more_orders_cost_at_most_four_transforms_each(make, n,
                                                           monkeypatch):
    # an order is one inverse DCT of its rows and the three transforms of
    # the VP kernel (the route through order_rhs and _vp took six)
    calls = []
    dct = funcspace._dct1

    def counted(x):
        calls.append(x.shape)
        return dct(x)

    prob = make()
    st = pb.analytic_sine_state(prob, n)
    compute_series(prob, st, 20)  # fill the problem's grid caches
    monkeypatch.setattr(funcspace, "_dct1", counted)
    compute_series(prob, st, 10)
    ten = len(calls)
    calls.clear()
    compute_series(prob, st, 20)
    assert len(calls) - ten <= 40


# ----------------------------------------------------------------------
# the value-space order step
# ----------------------------------------------------------------------

def test_value_space_orders_hold_model1_deep_wavefunctions(m1):
    # y_j' from the VP formula and y_j'' from the order equation: no
    # coefficient derivative feeds the drift at j >= 30
    ser = compute_series(m1, pb.analytic_sine_state(m1, 3), 40)
    worst = 0.0
    for j in range(1, 41):
        ref = model1_series_exact(3, j)[1](XS)
        err = np.max(np.abs(ser.wavefuns[j](XS) - ref))
        worst = max(worst, err / np.max(np.abs(ref)))
    assert worst <= 3e-5


@pytest.mark.parametrize("make,n", [(model3_problem, 2), (model1_problem, 3)],
                         ids=["model3", "model1"])
def test_a_warm_order_makes_four_transforms_and_no_derivative(
        make, n, monkeypatch):
    # the VP kernel's 2-row DCT and inverse DCT, the DCT of y_j and the
    # inverse DCT of y_j as returned (cut and truncated)
    prob = make()
    st = pb.analytic_sine_state(prob, n)
    rec = engine._Recurrence(prob, st, ghost(st, prob))
    for _ in range(10):
        rec.step()
    grid = rec.n
    calls = []
    dct = funcspace._dct1

    def counted(x):
        calls.append(x.shape)
        return dct(x)

    monkeypatch.setattr(funcspace, "_dct1", counted)
    monkeypatch.setattr(funcspace, "_derivative", _boom)
    rec.step()
    assert rec.n == grid  # no resampling in this order
    assert calls == [(2, grid + 1), (2, grid + 1), (grid + 1,), (grid + 1,)]


@pytest.mark.parametrize("name", ["m3", "second"])
def test_a_growing_order_makes_one_transform_pair_more(name, m3, monkeypatch):
    # the placement's DCT of every carried row and its inverse DCT onto the
    # larger grid (with the ghost rows and v0), then the order's four; the
    # second-order case grows while y_0's block is still carried
    prob, st = (m3, pb.analytic_sine_state(m3, 2)) if name == "m3" \
        else _second_order()
    gh = ghost(st, prob)

    def recurrence():
        return engine._Recurrence(prob, st, gh)

    ref, grids = recurrence(), []
    for _ in range(10):  # fills the problem's grid caches
        ref.step()
        grids.append(ref.n)
    grows = next(j for j in range(1, 10) if grids[j] > grids[j - 1])
    rec = recurrence()
    for _ in range(grows):
        rec.step()
    calls = []
    dct = funcspace._dct1

    def counted(x):
        calls.append(x.shape)
        return dct(x)

    monkeypatch.setattr(funcspace, "_dct1", counted)
    monkeypatch.setattr(funcspace, "_derivative", _boom)
    rec.step()
    assert rec.n == grids[grows] > grids[grows - 1]
    assert len(calls) == 6
    # every carried array owns its memory: no view keeps the batch alive
    carried = [rec.values, rec.phi, rec.q, rec.rows] + rec.derivs
    assert all(arr.base is None for arr in carried)


@pytest.mark.parametrize("name", ["m1", "m3", "closed", "gauss"])
def test_cold_orders_agree_with_warm_ones(name, m1, m3, mp):
    # solve_order forms g_j from the series of the lower orders, with
    # coefficient derivatives, where compute_series carries their values
    prob, st = _case(name, m1, m3, mp)
    gh = ghost(st, prob)
    ser = compute_series(prob, st, 8)
    energies, wavefuns = ser.energies, ser.wavefuns
    xs = np.linspace(prob.a, prob.b, 257)
    for j in range(1, 9):
        e_cold, y_cold = engine.solve_order(prob, st, gh, energies, wavefuns,
                                            j)
        assert abs(e_cold - energies[j]) <= 1e-12 * max(abs(energies[j]),
                                                       abs(st.E0))
        ref = wavefuns[j](xs)
        assert np.max(np.abs(y_cold(xs) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_rounding_noise_ends_the_series(m1):
    # model 1 at n = 1: the true y_j fall like 1 / (j! 2^j) while the
    # rounding carried from the lower orders does not; from j ~ 50 y_j is
    # noise up to its exact degree, and each more order would add
    # deg u + deg y0 + 1 degrees of it
    st = pb.analytic_sine_state(m1, 1)
    start = time.perf_counter()
    with pytest.raises(engine.EngineError, match=r"^order \d+: y_\d+ and "):
        compute_series(m1, st, 100)
    assert time.perf_counter() - start < 10.0


def test_one_order_up_to_its_exact_degree_does_not_end_the_series(m3):
    # model 3 at n = 1 keeps every coefficient of a lone order now and then
    # (a spike in the last coefficients) and runs on
    st = pb.analytic_sine_state(m3, 1)
    rec = engine._Recurrence(m3, st, ghost(st, m3))
    full = []
    for _ in range(200):
        rec.step()
        full.append(rec.full)
    assert any(full) and not any(a and b for a, b in zip(full, full[1:]))


def test_coefficients_above_the_exact_degree_are_dropped(m3):
    # y_j = V(g_j) + E_j phi_b has degree deg u + deg y0 + D + 1 at most, D
    # the degree bound of g_j; the full orders of a long run fill the room
    # up to it with rounding noise, and nothing above it survives
    st = pb.analytic_sine_state(m3, 1)
    gh = ghost(st, m3)
    ser = compute_series(m3, st, 200)
    reached = False
    for j in range(1, 201):
        maxdeg = max(y.degree for y in ser.wavefuns[:j])
        top = (gh.u.degree + st.y0.degree + 1
               + engine._input_degree(m3, ser.wavefuns, j, maxdeg))
        assert ser.wavefuns[j].degree <= top
        reached = reached or ser.wavefuns[j].degree == top
    assert reached


def test_solve_order_drops_coefficients_above_the_exact_degree(m1, mp):
    # lower orders of random coefficients fill the room up to the exact
    # degree with rounding noise; solve_order cuts it there as a step does
    rng = np.random.default_rng(26)
    st = pb.analytic_sine_state(m1, 1)
    gh = ghost(st, m1)
    for deg in (5, 30, 70):
        ys = [st.y0] + [SpectralFun(mp.domain, rng.standard_normal(deg + 1))
                        for _ in range(2)]
        _, y_j = engine.solve_order(mp, st, gh, [st.E0, 0.7, -1.3], ys, 3)
        bound = engine._input_degree(mp, ys, 3, max(y.degree for y in ys))
        assert y_j.degree <= gh.u.degree + st.y0.degree + bound + 1


def test_a_chain_of_solve_order_calls_keeps_vanishing_orders_exact():
    # a constant p0 = c shifts E_0 by c and nothing else: E_1 = c, and
    # every y_j and every later E_j is exactly 0 in a chain of cold orders,
    # as in the series, with no rounding noise left to grow in degree
    prob = pb.load_problem("domain = 0 1\nv0 = 0\nperturbation.1.p2 = 0\n"
                           "perturbation.1.p1 = 0\nperturbation.1.p0 = 3\n")
    st = pb.analytic_sine_state(prob, 1)
    gh = ghost(st, prob)
    energies, wavefuns = [st.E0], [st.y0]
    for j in range(1, 7):
        e_j, y_j = engine.solve_order(prob, st, gh, energies, wavefuns, j)
        energies.append(e_j)
        wavefuns.append(y_j)
    ser = compute_series(prob, st, 6)
    assert energies[1] == pytest.approx(3.0, rel=1e-14)
    assert energies[2:] == ser.energies[2:] == [0.0] * 5
    assert all(y.coeffs.tolist() == [0.0] for y in wavefuns[1:])
    assert all(y.coeffs.tolist() == [0.0] for y in ser.wavefuns[1:])


def test_high_degree_couplings_are_not_taken_for_noise():
    # a coupling of higher degree than y0 raises the degree of every order
    # by its own: the noise test counts it in D
    prob, st = _gaussian()
    ser = compute_series(prob, st, 30)
    assert ser.order == 30 and all(map(math.isfinite, ser.energies))


# ----------------------------------------------------------------------
# hot-path guard
# ----------------------------------------------------------------------

def _boom(*args, **kwargs):
    raise AssertionError("Python-loop kernel on the hot path")


@pytest.mark.parametrize("make", [model3_problem, model1_problem],
                         ids=["model3", "model1"])
def test_series_runs_without_python_loop_kernels(make, monkeypatch):
    prob = make()
    st = pb.analytic_sine_state(prob, 3)
    points, chebval = [], cheb.chebval

    def one_point(x, c, *args):
        # the ghost's y0'(a): one point per series is no hot path
        if np.ndim(x):
            _boom()
        points.append(x)
        return chebval(x, c, *args)

    monkeypatch.setattr(cheb, "chebder", _boom)
    monkeypatch.setattr(cheb, "chebval", one_point)
    monkeypatch.setattr(cheb, "chebmul", _boom)
    monkeypatch.setattr(cheb, "chebint", _boom)
    ser = compute_series(prob, st, 30)
    assert ser.order == 30 and all(map(math.isfinite, ser.energies))
    assert points == [-1.0]
