"""The immutable records of expr, problem and engine: construction,
equality, hashing, repr and immutability."""

import pytest

from pertbvp import expr as ex
from pertbvp import problem as pb
from pertbvp.engine import GhostFunction
from pertbvp.funcspace import SpectralFun
from pertbvp.oracles import model3_config


def test_parse_trees_compare_and_hash_equal():
    a, b = ex.parse("sin(x)^2 + 3*pi/x"), ex.parse("sin(x)^2 + 3*pi/x")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != ex.parse("sin(x)^2 + 3*pi/x - 0")
    assert ex.Num(0.0) == ex.Num(-0.0)
    assert hash(ex.Num(0.0)) == hash(ex.Num(-0.0))
    # nodes of different types with the same fields differ
    assert ex.Pi() != ex.Var() and ex.Neg(ex.Var()) != ex.Fun("sin", ex.Var())
    assert ex.BinOp("+", ex.Var(), ex.Pi()) == ex.BinOp(
        op="+", left=ex.Var(), right=ex.Pi())


def test_records_refuse_assignment():
    node = ex.Num(2.0)
    prob = pb.load_problem(model3_config())
    for record, field in ((node, "value"), (prob, "v0"), (prob, "_cache"),
                          (prob.perturbations[0], "p2")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        node.other = 1.0


def test_repr_names_every_field_but_the_cache():
    assert repr(ex.parse("-x + 2")) == (
        "BinOp(op='+', left=Neg(arg=Var()), right=Num(value=2.0))")
    prob = pb.load_problem(model3_config())
    text = repr(prob)
    assert text.startswith("PerturbationProblem(domain=(0.0, 1.0), v0=")
    for field in ("perturbations=(LinearOperator(p2=", "y0_expr=None",
                  "e0_value=None"):
        assert field in text
    assert "_cache" not in text


def test_a_filled_cache_leaves_equality_and_hash_alone():
    text = model3_config()
    filled, fresh = pb.load_problem(text), pb.load_problem(text)
    assert filled.v0_is_zero() and filled._operator_values(1, 16) is not None
    assert filled._cache and not fresh._cache
    assert filled == fresh and hash(filled) == hash(fresh)


def test_construction_by_position_keyword_and_default():
    ghost_fun = GhostFunction(SpectralFun((0, 1), [1.0]),
                              SpectralFun((0, 1), [0.0]))
    assert ghost_fun.wronskian == 1.0
    assert GhostFunction(ghost_fun.u, ghost_fun.du, 2.0).wronskian == 2.0
    y0 = SpectralFun((0, 1), [0.0, 1.0])
    st = pb.UnperturbedState(n=1, E0=9.0, y0=y0, dy0=y0.derivative(),
                             report_scale=1.0)
    assert (st.n, st.E0, st.y0, st.report_scale) == (1, 9.0, y0, 1.0)
    assert st == pb.UnperturbedState(1, 9.0, y0, st.dy0, 1.0)
    prob = pb.PerturbationProblem((0.0, 1.0), ex.Num(0.0), ())
    assert (prob.y0_expr, prob.e0_value, prob.a, prob.b) == (
        None, None, 0.0, 1.0)
    with pytest.raises(TypeError, match="missing field 'report_scale'"):
        pb.UnperturbedState(1, 9.0, y0, st.dy0)
    with pytest.raises(TypeError, match="takes 3 fields"):
        pb.LinearOperator(ex.Var(), ex.Var(), ex.Var(), ex.Var())
    with pytest.raises(TypeError, match="repeated field 'n'"):
        pb.UnperturbedState(1, 9.0, y0, st.dy0, 1.0, n=2)
    with pytest.raises(TypeError, match="unexpected or repeated field 'm'"):
        pb.UnperturbedState(1, 9.0, y0, st.dy0, 1.0, m=2)

