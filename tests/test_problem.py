import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb

from pertbvp import expr as ex
from pertbvp.funcspace import SpectralFun
from pertbvp.oracles import model1_config, model3_config
from pertbvp.problem import (ProblemConfigError, StateError,
                             analytic_sine_state, load_problem,
                             state_from_expr, state_verdict)


def test_load_model1():
    prob = load_problem(model1_config())
    assert prob.domain == (0.0, 1.0)
    assert len(prob.perturbations) == 1
    op = prob.perturbations[0]
    assert ex.evaluate(op.p2, 0.7) == 0.0
    assert ex.evaluate(op.p1, 0.7) == 1.0
    assert ex.evaluate(op.p0, 0.7) == 0.0


def test_load_model3():
    prob = load_problem(model3_config())
    op = prob.perturbations[0]
    assert ex.evaluate(op.p2, 1.0) == pytest.approx(0.6)
    assert ex.evaluate(op.p1, 1.0) == pytest.approx(1.2)
    assert ex.evaluate(op.p0, 1.0) == pytest.approx(-1.2)


def test_missing_domain():
    text = "v0 = 0\nperturbation.1.p2 = 0\nperturbation.1.p1 = 1\nperturbation.1.p0 = 0\n"
    with pytest.raises(ProblemConfigError, match="domain"):
        load_problem(text)


def test_reversed_domain():
    text = model1_config().replace("domain = 0 1", "domain = 1 0")
    with pytest.raises(ProblemConfigError, match="domain"):
        load_problem(text)


def test_malformed_expression_names_key():
    text = model1_config().replace("perturbation.1.p1 = 1",
                                   "perturbation.1.p1 = 2*")
    with pytest.raises(ProblemConfigError, match="perturbation.1.p1"):
        load_problem(text)


def test_empty_perturbation_list():
    with pytest.raises(ProblemConfigError, match="perturbation"):
        load_problem("domain = 0 1\nv0 = 0\n")


def test_noncontiguous_orders():
    text = (model1_config()
            + "perturbation.3.p2 = 0\nperturbation.3.p1 = 0\nperturbation.3.p0 = x\n")
    with pytest.raises(ProblemConfigError, match="contiguous"):
        load_problem(text)


_MINIMAL = ("domain = 0 1\nv0 = 0\nperturbation.1.p2 = 0\n"
            "perturbation.1.p1 = 1\nperturbation.1.p0 = 0\n")


@pytest.mark.parametrize("text, message", [
    (_MINIMAL + "foo\n", "line 6: expected 'key = value'"),
    (_MINIMAL + "v0 = 1\n", "duplicate key 'v0'"),
    (_MINIMAL.replace("domain = 0 1", "domain = 0"),
     "key 'domain' must hold two numbers"),
    (_MINIMAL.replace("domain = 0 1", "domain = 0 1 2"),
     "key 'domain' must hold two numbers"),
    (_MINIMAL.replace("domain = 0 1", "domain = 0 b"),
     "key 'domain': could not convert string to float: 'b'"),
    (_MINIMAL.replace("domain = 0 1", "domain = 1 1"),
     "key 'domain': need a < b, got 1.0 1.0"),
    (_MINIMAL.replace("domain = 0 1\n", ""), "missing key 'domain'"),
    (_MINIMAL.replace("v0 = 0\n", ""), "missing key 'v0'"),
    (_MINIMAL + "y0 = sin(pi*x)\n", "key 'y0' given without key 'E0'"),
    (_MINIMAL + "E0 = 1\n", "key 'E0' given without key 'y0'"),
    (_MINIMAL + "y0 = sin(\nE0 = 1\n",
     "key 'y0': expected a value (at position 5)"),
    (_MINIMAL + "y0 = sin(pi*x)\nE0 = abc\n",
     "key 'E0': could not convert string to float: 'abc'"),
    (_MINIMAL + "perturbation.x.p1 = 1\n",
     "unrecognized key 'perturbation.x.p1'"),
    (_MINIMAL + "perturbation.1.p3 = 1\n",
     "unrecognized key 'perturbation.1.p3'"),
    (_MINIMAL + "perturbation.1.p1.p2 = 1\n",
     "unrecognized key 'perturbation.1.p1.p2'"),
    (_MINIMAL + "foo = 1\n", "unrecognized key 'foo'"),
    (_MINIMAL.replace("perturbation.1.p0 = 0\n", ""),
     "missing key 'perturbation.1.p0'"),
    (_MINIMAL + "perturbation.2.p2 = 0\n", "missing key 'perturbation.2.p1'"),
    (_MINIMAL + "perturbation.3.p2 = 0\n",
     "perturbation orders must be contiguous from 1, got [1, 3]"),
    (_MINIMAL.replace("p1 = 1", "p1 = 1 +"),
     "key 'perturbation.1.p1': expected a value (at position 4)"),
])
def test_config_error_messages(text, message):
    with pytest.raises(ProblemConfigError) as exc:
        load_problem(text)
    assert str(exc.value) == message


def test_config_comments_blank_lines_and_spacing():
    text = ("# a comment\n\n  domain=0   2  # trailing\nv0 = 0\n"
            "y0 = sin(pi*x/2)\nE0 = " + repr(math.pi ** 2 / 4) + "\n"
            "perturbation.1.p2=0\nperturbation.1.p1 = x # note\n"
            "perturbation.1.p0 =0\n")
    prob = load_problem(text)
    assert prob.domain == (0.0, 2.0)
    assert prob.e0_value == math.pi ** 2 / 4
    assert prob.perturbations[0].p1 == ex.Var()


def test_apply_perturbation_is_linear():
    prob = load_problem(model3_config())
    f = SpectralFun.from_function(lambda x: np.sin(math.pi * x), (0, 1))
    g = SpectralFun.from_function(lambda x: x * (1 - x), (0, 1))
    alpha, beta = 1.7, -0.4
    combo = prob.apply_perturbation(1, f * alpha + g * beta)
    split = prob.apply_perturbation(1, f) * alpha + prob.apply_perturbation(1, g) * beta
    xs = np.linspace(0, 1, 64)
    assert np.max(np.abs(combo(xs) - split(xs))) <= 1e-11


# ----------------------------------------------------------------------
# unperturbed states
# ----------------------------------------------------------------------

def test_sine_state_ground():
    prob = load_problem(model1_config())
    st = analytic_sine_state(prob, 1, amplitude=math.sqrt(2))
    assert st.E0 == pytest.approx(math.pi**2, rel=1e-14)
    assert st.E0 == pytest.approx(9.8696044, rel=1e-7)
    assert st.report_scale == pytest.approx(1.0, rel=1e-12)


def test_sine_state_excited_and_scaled_domain():
    prob = load_problem(model1_config())
    assert analytic_sine_state(prob, 3).E0 == pytest.approx(9 * math.pi**2)
    wide = load_problem(model1_config().replace("domain = 0 1", "domain = 0 2"))
    assert analytic_sine_state(wide, 1).E0 == pytest.approx(math.pi**2 / 4)


def test_sine_state_requires_zero_v0():
    text = model1_config().replace("v0 = 0", "v0 = x")
    with pytest.raises(StateError):
        analytic_sine_state(load_problem(text), 1)


def test_v0_is_fitted_once_per_problem(monkeypatch):
    # the sine state, the ghost and the recurrence all ask; v0_is_zero
    # reads the cached fit: one grid for 0, the stopping grid and its
    # refit for x
    calls = []
    evaluate = ex.evaluate

    def counted(e, x):
        calls.append(e)
        return evaluate(e, x)

    for text, zero, fits in (
            (model1_config(), True, 1),
            (model1_config().replace("v0 = 0", "v0 = x"), False, 2)):
        prob = load_problem(text)
        monkeypatch.setattr(ex, "evaluate", counted)
        assert [prob.v0_is_zero() for _ in range(3)] == [zero] * 3
        assert prob.v0_fun.coeffs.any() != zero
        monkeypatch.setattr(ex, "evaluate", evaluate)
        assert calls == [prob.v0] * fits
        calls.clear()


@pytest.mark.parametrize("v0,zero", [
    ("0", True), ("x - x", True), ("0*sin(x)", True), ("1e-13", False),
    ("1e-13*x", False)])
def test_v0_is_zero_exactly_when_its_fit_is(v0, zero):
    prob = load_problem(model1_config().replace("v0 = 0", f"v0 = {v0}"))
    assert prob.v0_is_zero() is zero
    if zero:
        assert analytic_sine_state(prob, 2).E0 == (2 * math.pi) ** 2
    else:
        with pytest.raises(StateError, match="requires v0 identically zero"):
            analytic_sine_state(prob, 2)


@pytest.mark.parametrize("length", [1e-14, 1e-12, 1e-11, 1e9])
def test_state_verdict_scales_with_the_interval(length):
    # the exact sine state passes on any interval: its boundary values and
    # residual are rounding of sup |y0| and sup |y0''|, which scale as
    # L^(-1/2) and L^(-5/2)
    prob = load_problem(f"domain = 0 {length!r}\nv0 = 0\n"
                        "perturbation.1.p2 = 0\nperturbation.1.p1 = 0\n"
                        "perturbation.1.p0 = 3\n")
    assert state_verdict(prob, analytic_sine_state(prob, 1))[0]


def test_state_verdict_rejects_a_wrong_energy_below_the_old_floor():
    # true E0 = (pi / 1e9)^2 = 9.87e-18: E0 = 1e-12 leaves a residual of
    # 4.5e-17, under 1e-9 but far above 1e-9 sup |y0''| = 4.4e-31
    text = ("domain = 0 1e9\nv0 = 0\ny0 = sin(pi*x/1e9)\nE0 = {}\n"
            "perturbation.1.p2 = 0\nperturbation.1.p1 = 0\n"
            "perturbation.1.p0 = 3\n")
    with pytest.raises(StateError, match="fails validation"):
        state_from_expr(load_problem(text.format("1e-12")))
    state_from_expr(load_problem(text.format(repr((math.pi / 1e9) ** 2))))


@pytest.mark.parametrize("n", range(1, 7))
def test_state_invariants(n):
    prob = load_problem(model1_config())
    st = analytic_sine_state(prob, n)
    _, res, left, right = state_verdict(prob, st)
    sup = st.y0.sup_norm()
    assert left <= 1e-11 * sup and right <= 1e-11 * sup
    ypp = st.dy0.derivative()
    assert res <= 1e-9 * ypp.sup_norm()
    norm = (st.y0 * st.y0).definite_integral()
    assert norm == pytest.approx(1.0, abs=1e-11)


def test_validate_detects_perturbed_state():
    prob = load_problem(model1_config())
    st = analytic_sine_state(prob, 1)
    bump = SpectralFun.from_function(lambda x: 0.01 * x * (1 - x), (0, 1))
    bad = type(st)(n=st.n, E0=st.E0, y0=st.y0 + bump,
                   dy0=(st.y0 + bump).derivative(),
                   report_scale=st.report_scale)
    _, res, _, _ = state_verdict(prob, bad)
    assert res > 1e-3


def test_exact_cubic_is_not_the_unperturbed_state():
    prob = load_problem(model3_config())
    cubic = SpectralFun.from_function(lambda x: x * (1 - x**2), (0, 1))
    st = analytic_sine_state(prob, 1)
    fake = type(st)(n=1, E0=math.pi**2, y0=cubic, dy0=cubic.derivative(),
                    report_scale=1.0)
    _, res, _, _ = state_verdict(prob, fake)
    assert res > 1e-1


def test_closed_form_state_from_config():
    # constant v0 shifts the spectrum: y'' = (v0 - E0) y with v0 = 5
    text = ("domain = 0 1\nv0 = 5\ny0 = sin(pi*x)\nE0 = "
            + repr(math.pi**2 + 5.0)
            + "\nperturbation.1.p2 = 0\nperturbation.1.p1 = 1\n"
              "perturbation.1.p0 = 0\n")
    prob = load_problem(text)
    st = state_from_expr(prob, n=1)
    assert st.E0 == pytest.approx(math.pi**2 + 5.0)
    assert st.report_scale == pytest.approx(math.sqrt(2), rel=1e-12)


def test_closed_form_state_rejects_wrong_energy():
    text = ("domain = 0 1\nv0 = 5\ny0 = sin(pi*x)\nE0 = "
            + repr(math.pi**2)  # inconsistent with v0 = 5
            + "\nperturbation.1.p2 = 0\nperturbation.1.p1 = 1\n"
              "perturbation.1.p0 = 0\n")
    with pytest.raises(StateError):
        state_from_expr(load_problem(text), n=1)


CLOSED_V0_5 = ("domain = 0 1\nv0 = 5\ny0 = sin(3*pi*x)\nE0 = "
               + repr(9 * math.pi**2 + 5.0)
               + "\nperturbation.1.p2 = 0\nperturbation.1.p1 = 1\n"
                 "perturbation.1.p0 = x^2 - 1/3\n")


def test_unperturbed_operator_is_order_zero_of_the_kernel():
    # P_0 f = f'' - v0 f with v0 = 5: the kernel's y0'' - v0 y0 + E0 y0
    # against a reference built with numpy's chebder and chebmul
    prob = load_problem(CLOSED_V0_5)
    st = state_from_expr(prob, n=3)
    c = st.y0.coeffs
    got = prob._operator_fun([(0, c)], -st.E0, c).coeffs
    ypp = cheb.chebder(c, 2, scl=2.0 / (prob.b - prob.a))
    ref = cheb.chebadd(cheb.chebsub(ypp, cheb.chebmul(prob.v0_fun.coeffs, c)),
                       st.E0 * c)
    width = max(len(got), len(ref))
    diff = np.zeros(width)
    diff[:len(got)] = got
    diff[:len(ref)] -= ref
    sup_ypp = st.dy0.derivative().sup_norm()
    assert np.max(np.abs(diff)) <= 1e-14 * sup_ypp
    assert np.max(np.abs(got)) <= 1e-9 * sup_ypp  # y0 solves P_0 y0 = -E0 y0


@pytest.mark.parametrize("path", ["model1.prob", "model3.prob", None])
def test_coefficient_fits_match_per_point_sampling(path):
    # the grid sampler must reproduce the scalar route bit for bit: the
    # reference evaluates the expression at one float at a time
    text = (CLOSED_V0_5 if path is None
            else (Path(__file__).parent.parent / "demos" / path).read_text())
    prob = load_problem(text)

    def fit_per_point(e):
        return SpectralFun.from_function(
            lambda nodes: np.array([float(ex.evaluate(e, x)) for x in nodes]),
            prob.domain)

    def per_point(e):
        return fit_per_point(e).coeffs.tobytes()

    assert prob.v0_fun.coeffs.tobytes() == per_point(prob.v0)
    for k, op in enumerate(prob.perturbations, start=1):
        for part in ("p2", "p1", "p0"):
            fit = prob._fit((k, part), getattr(op, part))
            assert fit.coeffs.tobytes() == per_point(getattr(op, part))
    if prob.y0_expr is not None:
        y0 = fit_per_point(prob.y0_expr)
        state = state_from_expr(prob, n=3)
        expected = y0 * (1.0 / np.sqrt((y0 * y0).definite_integral()))
        assert state.y0.coeffs.tobytes() == expected.coeffs.tobytes()


@pytest.mark.parametrize("order", ["01", "+1", " 1", "1_0", "0", "١",
                                   "1234567890"])
def test_perturbation_key_grammar(order):
    # int() reads each of these orders; the key grammar rejects them
    key = f"perturbation.{order}.p1"
    with pytest.raises(ProblemConfigError) as exc:
        load_problem(_MINIMAL + f"{key} = 5\n")
    assert str(exc.value) == f"unrecognized key {key!r}"


def test_far_order_is_not_contiguous():
    # checked by counting, not by building the set 1..999999999
    with pytest.raises(ProblemConfigError,
                       match=r"contiguous from 1, got \[1, 999999999\]"):
        load_problem(_MINIMAL + "perturbation.999999999.p1 = 5\n")


def test_first_unrecognized_key_in_file_order_is_named():
    text = _MINIMAL + "perturbation.1.p3 = 1\nfoo = 1\n"
    with pytest.raises(ProblemConfigError,
                       match="unrecognized key 'perturbation.1.p3'"):
        load_problem(text)


@pytest.mark.parametrize("text, message", [
    (_MINIMAL.replace("domain = 0 1", "domain = 0 inf"),
     "key 'domain': not a finite number: 'inf'"),
    (_MINIMAL.replace("domain = 0 1", "domain = nan 1"),
     "key 'domain': not a finite number: 'nan'"),
    (_MINIMAL.replace("domain = 0 1", "domain = -1e308 1e308"),
     "key 'domain': b - a = inf is not finite"),
    (_MINIMAL + "y0 = sin(pi*x)\nE0 = nan\n",
     "key 'E0': not a finite number: 'nan'"),
    (_MINIMAL + "y0 = sin(pi*x)\nE0 = -inf\n",
     "key 'E0': not a finite number: '-inf'"),
    (_MINIMAL.replace("v0 = 0", "v0 = 1e999"),
     "key 'v0': number '1e999' out of range (at position 1)"),
    (_MINIMAL.replace("p2 = 0", "p2 = x*1e400"),
     "key 'perturbation.1.p2': number '1e400' out of range (at position 3)"),
])
def test_non_finite_numbers_are_config_errors(text, message):
    with pytest.raises(ProblemConfigError) as exc:
        load_problem(text)
    assert str(exc.value) == message


def test_too_deep_expression_names_its_key():
    text = _MINIMAL.replace("v0 = 0", "v0 = " + "-" * 3000 + "x")
    with pytest.raises(ProblemConfigError,
                       match="key 'v0': expression nested deeper than"):
        load_problem(text)


def test_many_orders_load_in_order():
    text = "domain = 0 1\nv0 = 0\n" + "".join(
        f"perturbation.{k}.{part} = {k}\n"
        for k in range(12, 0, -1) for part in ("p0", "p1", "p2"))
    prob = load_problem(text)
    assert [op.p1 for op in prob.perturbations] == [
        ex.Num(float(k)) for k in range(1, 13)]


def test_sine_state_rejects_a_quantum_number_below_one():
    prob = load_problem(model1_config())
    with pytest.raises(StateError,
                       match="^quantum number must be >= 1, got 0$"):
        analytic_sine_state(prob, 0)


def test_closed_form_state_needs_y0_and_e0():
    with pytest.raises(StateError, match="^problem config carries no y0/E0 "
                                         "closed form$") as info:
        state_from_expr(load_problem(model1_config()))
    assert info.value.state is None


@pytest.mark.parametrize("y0", ["0", "x - x"])
def test_closed_form_state_that_is_zero_is_rejected(y0):
    text = model1_config().replace("v0 = 0", f"v0 = 0\ny0 = {y0}\nE0 = 9")
    with pytest.raises(StateError,
                       match="^unperturbed state is identically zero$"):
        state_from_expr(load_problem(text))


def test_a_failing_closed_form_state_is_held_by_its_error():
    # the library raises; the error holds the state and its verdict
    text = model1_config().replace("v0 = 0", "v0 = 0\ny0 = sin(pi*x)\nE0 = 9")
    prob = load_problem(text)
    with pytest.raises(StateError, match="fails validation") as info:
        state_from_expr(prob)
    ok, res, _, _ = state_verdict(prob, info.value.state)
    assert not ok
    assert f"residual {res:.3e}," in str(info.value)
