import gc
import math
import random
import types

import pytest
from hypothesis import given, settings, strategies as st

from spikeforge.expr import (
    BinOp, Call, ExprError, Neg, Num, Var,
    evaluate, free_vars, parse,
)


def ev(source, **env):
    return evaluate(parse(source), env)


class TestParse:
    def test_precedence(self):
        assert ev("2+3*4") == 14

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512

    def test_missing_argument_is_syntax_error(self):
        with pytest.raises(ExprError):
            parse("min(1,)")

    def test_unary_minus_binds_looser_than_power(self):
        assert ev("-2^2") == -4

    def test_parentheses(self):
        assert ev("(2+3)*4") == 20

    def test_unknown_function(self):
        with pytest.raises(ExprError, match="unknown function"):
            parse("sin(1)")

    def test_wrong_arity(self):
        with pytest.raises(ExprError, match="argument"):
            parse("exp(1, 2)")
        with pytest.raises(ExprError, match="argument"):
            parse("min(1)")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ExprError, match="position"):
            parse("1 + * 2")
        with pytest.raises(ExprError, match="position"):
            parse("(1 + 2")
        with pytest.raises(ExprError, match="position"):
            parse("1 2")

    def test_trailing_whitespace_ends_the_expression(self):
        assert parse("x ") == parse("x") == Var("x")

    def test_bad_character(self):
        with pytest.raises(ExprError):
            parse("1 $ 2")

    @pytest.mark.parametrize("source, message", [
        ("1 $ 2", "unexpected character '$' at position 2"),
        ("  x @", "unexpected character '@' at position 4"),
        ("x\n+\n?", "unexpected character '?' at position 4"),
        ("\t\xa0\u00e9", "unexpected character '\u00e9' at position 2"),
        ("(1 2)", "expected ')' at position 3, got '2'"),
        ("exp(1 2)", "expected ')' at position 6, got '2'"),
        ("x y", "trailing input 'y' at position 2"),
        ("(1 + 2", "unexpected end of expression at position 6"),
    ], ids=["char", "char-after-spaces", "char-after-newlines", "unicode-space-then-char",
            "expect", "expect-in-call", "trailing", "end"])
    def test_syntax_error_texts(self, source, message):
        with pytest.raises(ExprError) as err:
            parse(source)
        assert str(err.value) == message

    def test_numbers(self):
        assert ev("1.5e-3") == 1.5e-3
        assert ev(".5") == 0.5
        assert ev("2.") == 2.0
        assert ev("3E2") == 300.0


class TestEvaluate:
    def test_voltage_difference(self):
        assert ev("V_post1 - V_pre", V_post1=0.5, V_pre=0.2) == pytest.approx(0.3)

    def test_ohmic_current(self):
        assert ev("G * V_TB", G=1e-6, V_TB=0.1) == pytest.approx(1e-7)

    def test_exp(self):
        assert ev("exp(0)") == 1.0

    def test_unbound_variable_named(self):
        with pytest.raises(ExprError, match="V_bogus"):
            ev("V_bogus + 1")

    def test_division_by_zero(self):
        with pytest.raises(ExprError, match="division by zero"):
            ev("1 / 0")

    def test_log_sqrt_domain(self):
        with pytest.raises(ExprError):
            ev("log(-1)")
        with pytest.raises(ExprError):
            ev("log(0)")
        with pytest.raises(ExprError):
            ev("sqrt(-4)")

    def test_non_finite_result(self):
        with pytest.raises(ExprError):
            ev("exp(10000)")

    def test_functions(self):
        assert ev("min(2, 3)") == 2
        assert ev("max(2, 3)") == 3
        assert ev("pow(2, 10)") == 1024
        assert ev("abs(-3)") == 3
        assert ev("tanh(0)") == 0.0
        assert ev("sqrt(9)") == 3.0

    def test_negative_base_fractional_power(self):
        with pytest.raises(ExprError):
            ev("(-8) ^ 0.5")


class TestFreeVars:
    def test_single(self):
        assert free_vars(parse("V_pre + 2")) == {"V_pre"}

    def test_none(self):
        assert free_vars(parse("3*4")) == set()

    def test_set_semantics(self):
        assert free_vars(parse("min(V_pre, V_post1) - V_pre")) == {"V_pre", "V_post1"}


def _exprs(depth):
    leaf = st.one_of(
        st.floats(0.0, 10.0).map(Num),
        st.sampled_from(["x", "y", "V_pre", "g2"]).map(Var),
    )

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: BinOp(*t)),
            st.tuples(st.sampled_from(["exp", "log", "abs", "tanh", "sqrt"]),
                      children).map(lambda t: Call(t[0], (t[1],))),
            st.tuples(st.sampled_from(["min", "max", "pow"]),
                      children, children).map(lambda t: Call(t[0], (t[1], t[2]))),
        )

    return st.recursive(leaf, extend, max_leaves=2 ** depth)


def _try_eval(e, env):
    try:
        return evaluate(e, env)
    except ExprError as err:
        return ("error", type(err))


def unparse(e) -> str:
    """Render a tree back to parseable source (fully parenthesized)."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{unparse(e.operand)})"
    if isinstance(e, BinOp):
        return f"({unparse(e.left)} {e.op} {unparse(e.right)})"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(unparse(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")


@settings(max_examples=200)
@given(_exprs(6), st.floats(-3.0, 3.0), st.floats(0.1, 3.0))
def test_unparse_roundtrip_eval_identical(ast, xv, yv):
    env = {"x": xv, "y": yv, "V_pre": 0.5, "g2": 2.0}
    reparsed = parse(unparse(ast))
    again = parse(unparse(reparsed))
    a = _try_eval(reparsed, env)
    b = _try_eval(again, env)
    if isinstance(a, float):
        assert a == b
    else:
        assert a == b


def _python_reference(e):
    """Independent oracle: render to a Python expression and let eval() run it."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-({_python_reference(e.operand)}))"
    if isinstance(e, BinOp):
        if e.op == "^":
            return f"math.pow({_python_reference(e.left)}, {_python_reference(e.right)})"
        return f"({_python_reference(e.left)} {e.op} {_python_reference(e.right)})"
    if isinstance(e, Call):
        args = ", ".join(_python_reference(a) for a in e.args)
        fn = {"exp": "math.exp", "log": "math.log", "abs": "abs", "tanh": "math.tanh",
              "sqrt": "math.sqrt", "min": "min", "max": "max", "pow": "math.pow"}[e.func]
        return f"{fn}({args})"
    raise TypeError(e)


@settings(max_examples=300)
@given(_exprs(6), st.floats(-3.0, 3.0), st.floats(0.1, 3.0))
def test_eval_matches_python_reference(ast, xv, yv):
    env = {"x": xv, "y": yv, "V_pre": 0.5, "g2": 2.0}
    try:
        ours = evaluate(ast, env)
    except ExprError:
        return
    theirs = eval(_python_reference(ast), {"math": math}, dict(env))
    assert ours == pytest.approx(theirs, rel=1e-12, abs=1e-300)


def test_eval_is_pure():
    ast = parse("x ^ 2 + min(x, 3) / 7")
    env = {"x": 1.25}
    first = evaluate(ast, env)
    rng = random.Random(0)
    for _ in range(20):
        other = {"x": rng.uniform(-5, 5)}
        evaluate(ast, other)
    assert evaluate(ast, env) == first


def _live_compiled() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects()
               if isinstance(o, types.FunctionType) and o.__code__.co_filename == "<expr>")


def test_compiled_code_lives_and_dies_with_its_tree():
    """Each fitness call of the tuner re-parses its config, so compiled
    closures must not pile up in a process-wide cache."""
    env = {"G": 0.5, "V_TB": 0.25}
    before = _live_compiled()
    for k in range(2000):
        assert evaluate(parse(f"G * V_TB * (1 + {k} * tanh(V_TB))"), env) > 0
    assert _live_compiled() == before
    kept = parse("x + 1")
    evaluate(kept, {"x": 1.0})
    run = kept._run
    assert evaluate(kept, {"x": 2.0}) == 3.0 and kept._run is run
    assert _live_compiled() == before + 1


def test_malformed_nodes_never_reach_the_compiled_source():
    for bad in (BinOp("%", Num(1.0), Num(2.0)), BinOp("+ 0 if print() else", Num(1.0), Num(2.0)),
                Call("exec", (Num(1.0),)), "x"):
        with pytest.raises(TypeError, match="not an expression node"):
            evaluate(bad, {})
