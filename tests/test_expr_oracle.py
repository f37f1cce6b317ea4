"""Differential oracles for the compiled and the array expression evaluators.

`reference_evaluate` and `_eval` are the tree-walking evaluator that
`expr.evaluate` replaced, kept word for word. On seeded random trees over
every node kind and function, with competing failures, unbound variables,
infinite literals and env values that are floats, ints or np.float64, the
compiled evaluator must return the same type and the same bits, or raise
the same exception type with the same text. On the same trees, over envs
binding arrays, or arrays and floats, `evaluate_array` must give, element
by element, the bits of `evaluate`, and fail exactly where it raises.
"""

import math
import random

import numpy as np
import pytest

from spikeforge.expr import (
    FUNCTIONS, BinOp, Call, ExprError, Neg, Num, Var, _compile, evaluate, evaluate_array, parse,
)


def reference_evaluate(e, env: dict[str, float]) -> float:
    """Evaluate against variable bindings; rejects non-finite results."""
    result = _eval(e, env)
    if not math.isfinite(result):
        raise ExprError(f"expression produced non-finite value {result}")
    return result


def _eval(e, env: dict[str, float]) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        try:
            return env[e.name]
        except KeyError:
            raise ExprError(f"unbound variable {e.name!r}") from None
    if isinstance(e, Neg):
        return -_eval(e.operand, env)
    if isinstance(e, BinOp):
        a = _eval(e.left, env)
        b = _eval(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                raise ExprError("division by zero")
            return a / b
        try:
            return math.pow(a, b)
        except (OverflowError, ValueError) as err:
            raise ExprError(f"invalid power {a} ^ {b}: {err}") from None
    if isinstance(e, Call):
        args = [_eval(a, env) for a in e.args]
        if e.func == "log" and args[0] <= 0.0:
            raise ExprError(f"log of non-positive value {args[0]}")
        if e.func == "sqrt" and args[0] < 0.0:
            raise ExprError(f"sqrt of negative value {args[0]}")
        try:
            return float(FUNCTIONS[e.func][1](*args))
        except (OverflowError, ValueError) as err:
            raise ExprError(f"{e.func}({', '.join(map(str, args))}) failed: {err}") from None
    raise TypeError(f"not an expression node: {e!r}")


BOUND = ("x", "y", "z")
UNBOUND = ("missing", "V_bogus")
LITERALS = (0.0, 0.5, 1.0, 2.0, 3.0, 710.0, 1e-300, 1e300, float("1e999"))
VALUES = (0.0, -0.0, 0.5, -0.5, 1.0, -2.5, 3.0, 1e-3, 700.0, -1e308)
INTS = (0, 1, -1, 2, 3, 7)


def random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.4:
            return Num(rng.choice(LITERALS))
        return Var(rng.choice(UNBOUND) if roll > 0.93 else rng.choice(BOUND))
    kind = rng.randrange(3)
    if kind == 0:
        return Neg(random_tree(rng, depth - 1))
    if kind == 1:
        return BinOp(rng.choice("+-*/^"), random_tree(rng, depth - 1),
                     random_tree(rng, depth - 1))
    func = rng.choice(sorted(FUNCTIONS))
    return Call(func, tuple(random_tree(rng, depth - 1)
                            for _ in range(FUNCTIONS[func][0])))


def random_env(rng: random.Random, flavour: str) -> dict:
    env = {}
    for name in BOUND:
        if flavour == "int":
            env[name] = rng.choice(INTS)
        elif flavour == "np.float64":
            env[name] = np.float64(rng.choice(VALUES))
        else:
            env[name] = rng.choice(VALUES)
    return env


def outcome(evaluator, tree, env):
    """What one evaluation gives: the result's type and bits, or the
    exception's type and text."""
    try:
        with np.errstate(all="ignore"):
            result = evaluator(tree, env)
    except Exception as err:  # noqa: BLE001 - any exception must match too
        return ("raised", type(err), str(err))
    return ("value", type(result), float(result).hex())


# two failures in both orders, unbound names beside other failures, and
# infinite literals
COMPETING = (
    "1/0 + log(0)", "log(0) + 1/0", "missing + 1/0", "1/0 + missing",
    "sqrt(-1) * missing", "missing * sqrt(-1)", "exp(1000) - (-8)^0.5",
    "(-8)^0.5 - exp(1000)", "x / (y - y) + V_bogus", "min(log(-x), sqrt(-1))",
    "1e999 - 1e999 + missing", "exp(1e999)", "pow(2, 1e999)", "1e999 * 0",
    "max(missing, V_bogus)", "tanh(1e999) + abs(-1e999)", "-1e999",
)


FAILURES = ("division by zero", "log of", "sqrt of", "invalid power", "failed:",
            "unbound variable", "non-finite")


def walk(node):
    yield node
    if isinstance(node, Neg):
        yield from walk(node.operand)
    elif isinstance(node, BinOp):
        yield from walk(node.left)
        yield from walk(node.right)
    elif isinstance(node, Call):
        for arg in node.args:
            yield from walk(arg)


def oracle_trees(rng: random.Random) -> list:
    """The competing-failure trees, then 1500 seeded random ones."""
    trees = [parse(source) for source in COMPETING]
    return trees + [random_tree(rng, rng.randint(1, 5)) for _ in range(1500)]


@pytest.mark.parametrize("flavour", ["float", "int", "np.float64"])
def test_compiled_evaluator_matches_the_tree_walk(flavour):
    rng = random.Random(f"expr-oracle-{flavour}")
    failures, values = set(), 0
    trees = oracle_trees(rng)
    for tree in trees:
        for _ in range(2):
            env = random_env(rng, flavour)
            expected = outcome(reference_evaluate, tree, env)
            assert outcome(evaluate, tree, env) == expected, (tree, env)
            if expected[0] == "raised":
                failures.update(f for f in FAILURES if f in expected[2])
            else:
                values += 1
    nodes = [node for tree in trees for node in walk(tree)]
    assert {type(node) for node in nodes} == {Num, Var, Neg, BinOp, Call}
    assert {node.func for node in nodes if isinstance(node, Call)} == set(FUNCTIONS)
    assert failures == set(FAILURES)
    assert values > 500


@pytest.mark.parametrize("flavour", ["float", "int", "np.float64"])
def test_compiled_function_of_params_and_bound_names_matches_the_tree_walk(flavour):
    """_compile's positional case, which neuron.integrate uses: each of x, y and z is a
    parameter or is bound at compile time, and an unbound name still fails at its node."""
    rng = random.Random(f"expr-params-{flavour}")
    for tree in oracle_trees(rng):
        env = random_env(rng, flavour)
        params = tuple(name for name in BOUND if rng.random() < 0.5)
        bound = {name: env[name] for name in BOUND if name not in params}

        def positional(tree, env):
            return _compile(tree, params, bound)(*(env[name] for name in params))

        assert outcome(positional, tree, env) == outcome(reference_evaluate, tree, env), (
            tree, params, bound)
        assert not hasattr(tree, "_run")  # the caller keeps a positional closure


ELEMENTS = 8


@pytest.mark.parametrize("layout", ["arrays", "mixed"])
def test_array_evaluator_matches_the_scalar_one_element_by_element(layout):
    # the float flavour's trees, plus constant trees and one that, in the
    # mixed layout, reads only a float: each must fill the arrays' shape
    trees = oracle_trees(random.Random("expr-oracle-float"))
    trees += [parse("2 ^ 3 - 1 / 4"), parse("1 / 0"), parse("x * 2")]
    rng = random.Random(f"expr-array-oracle-{layout}")
    failures, values = set(), 0
    for tree in trees:
        columns, env = {}, {"unread": np.zeros(ELEMENTS)}
        for name in BOUND:
            if layout == "mixed" and (name == "x" or rng.random() < 0.4):
                value = rng.choice(VALUES)
                columns[name], env[name] = [value] * ELEMENTS, value
            else:
                columns[name] = [rng.choice(VALUES) for _ in range(ELEMENTS)]
                env[name] = np.array(columns[name])
        got, failed = evaluate_array(tree, env)
        assert got.shape == failed.shape == (ELEMENTS,), tree
        assert got.dtype == np.float64 and failed.dtype == bool
        for k in range(ELEMENTS):
            expected = outcome(evaluate, tree, {name: column[k] for name, column in columns.items()})
            if expected[0] == "raised":
                assert failed[k], (tree, k, expected)
                failures.update(f for f in FAILURES if f in expected[2])
            else:
                assert not failed[k], (tree, k)
                assert float(got[k]).hex() == expected[2], (tree, k)
                values += 1
    assert failures == set(FAILURES)
    assert values > 2000
