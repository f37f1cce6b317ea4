"""Arithmetic expression mini-language for circuit and neuron equations.

Configs keep device/circuit behaviour as plain strings, e.g.
``V_post1 - V_pre`` or ``G * V_TB``, so no host code is needed to swap a
synaptic circuit. The grammar is conventional infix arithmetic over named
variables with a fixed function set:

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | primary ('^' factor)?
    primary := number | ident | func '(' expr (',' expr)* ')' | '(' expr ')'

'^' is right-associative and binds tighter than unary minus, so ``-2^2``
is ``-(2^2) = -4``.

`evaluate` compiles a tree to Python source once, on first use, and keeps
the closure on the tree's root node, so it is freed with the tree. The
closure runs the nodes in left-to-right, depth-first order with plain
operators, the `math` functions and `float()` wrapping, so results are
bit-identical to a tree walk. Each check (division by zero, log <= 0,
sqrt < 0, failed pow or call, unbound variable, non-finite result) runs
where its node does, so the first failure in that order is raised.
`evaluate` is the env-dict case of the one compiler, `_compile`, whose
closure may take `params` as positional arguments instead, with `bound`
names fixed at compile time; `neuron.integrate` keeps one per model.
`evaluate_array` does the same over arrays, masking the elements that fail.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from spikeforge.errors import SpecError

FUNCTIONS = {
    "exp": (1, math.exp),
    "log": (1, math.log),
    "abs": (1, abs),
    "tanh": (1, math.tanh),
    "sqrt": (1, math.sqrt),
    "min": (2, min),
    "max": (2, max),
    "pow": (2, math.pow),
}
# evaluate_array's arithmetic: these round as Python's float operators do
_UFUNCS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}

# whitespace is a match with no group; any other character that starts no token is `bad`
_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])|\s+|(?P<bad>\S)"
)


class ExprError(ValueError):
    """Parse or evaluation failure; message carries position or variable."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expression", ...]


Expression = Num | Var | Neg | BinOp | Call


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens: list[tuple[str, str, int]] = []  # (kind, text, position)
        for m in _TOKEN_RE.finditer(source):
            if m.lastgroup == "bad":
                raise ExprError(f"unexpected character {m.group()!r} at position {m.start()}")
            if m.lastgroup:
                self.tokens.append((m.lastgroup, m.group(), m.start()))
        self.i = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ExprError(f"unexpected end of expression at position {len(self.source)}")
        self.i += 1
        return tok

    def expect(self, text: str):
        tok = self.next()
        if tok[1] != text:
            raise ExprError(f"expected {text!r} at position {tok[2]}, got {tok[1]!r}")

    def at_op(self, *texts: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "op" and tok[1] in texts

    def parse(self) -> Expression:
        e = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprError(f"trailing input {tok[1]!r} at position {tok[2]}")
        return e

    def expr(self) -> Expression:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.next()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expression:
        node = self.factor()
        while self.at_op("*", "/"):
            op = self.next()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expression:
        if self.at_op("-"):
            self.next()
            return Neg(self.factor())
        node = self.primary()
        if self.at_op("^"):
            self.next()
            return BinOp("^", node, self.factor())
        return node

    def primary(self) -> Expression:
        tok = self.next()
        kind, text, pos = tok
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if self.at_op("("):
                return self.call(text, pos)
            return Var(text)
        if text == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprError(f"unexpected {text!r} at position {pos}")

    def call(self, name: str, pos: int) -> Expression:
        if name not in FUNCTIONS:
            raise ExprError(f"unknown function {name!r} at position {pos}")
        self.expect("(")
        args = [self.expr()]
        while self.at_op(","):
            self.next()
            args.append(self.expr())
        self.expect(")")
        arity = FUNCTIONS[name][0]
        if len(args) != arity:
            raise ExprError(
                f"function {name!r} takes {arity} argument(s), got {len(args)} at position {pos}")
        return Call(name, tuple(args))


def parse(source: str) -> Expression:
    """Parse source text into an expression tree."""
    return _Parser(source).parse()


def evaluate(e: Expression, env: dict[str, float]) -> float:
    """Evaluate against variable bindings; rejects non-finite results.

    The first call compiles the tree and keeps the closure on its root node.
    """
    try:
        run = e._run
    except AttributeError:
        run = _compile(e)
        object.__setattr__(e, "_run", run)
    return run(env)


_RUNTIME = {"ExprError": ExprError, "isfinite": math.isfinite,
            **{f"f_{name}": fn for name, (_, fn) in FUNCTIONS.items()}}
_DOMAIN = {"log": ("<=", "log of non-positive value"), "sqrt": ("<", "sqrt of negative value")}


def _compile(e: Expression, params: tuple[str, ...] = (), bound=None):
    """Turn the tree into one straight-line function run(*params, env={}), a
    statement per node in post-order: literals and bound names are closure
    names, any other variable is a parameter or is read from env at its first
    use, and each check runs where its node does (a division by a nonzero
    constant needs none). Only known operators and function names reach the
    source; anything else is not a node."""
    lines: list[str] = []
    consts: dict[str, float] = {}  # closure name: value
    loaded = {name: f"p{k}" for k, name in enumerate(params)}
    bound = bound or {}

    def assign(value: str, failure: str | None = None) -> str:
        t = f"t{len(lines)}"
        if failure is None:
            lines.append(f"{t} = {value}")
        else:  # failure: the f-string an OverflowError/ValueError `err` becomes
            lines.extend((f"try: {t} = {value}", "except (OverflowError, ValueError) as err: "
                          f"raise ExprError(f{failure!r}) from None"))
        return t

    def emit(node) -> str:
        if isinstance(node, Num) or isinstance(node, Var) and node.name in bound:
            c = f"c{len(consts)}"
            consts[c] = node.value if isinstance(node, Num) else bound[node.name]
            return c
        if isinstance(node, Var):
            if node.name not in loaded:
                v = loaded[node.name] = f"v{len(loaded)}"
                message = f"unbound variable {node.name!r}"
                lines.extend((f"try: {v} = env[{node.name!r}]",
                              f"except KeyError: raise ExprError({message!r}) from None"))
            return loaded[node.name]
        if isinstance(node, Neg):
            return assign(f"-{emit(node.operand)}")
        if isinstance(node, BinOp) and node.op in ("+", "-", "*", "/", "^"):
            a, b = emit(node.left), emit(node.right)
            if node.op == "^":
                return assign(f"f_pow({a}, {b})", f"invalid power {{{a}}} ^ {{{b}}}: {{err}}")
            if node.op == "/" and consts.get(b, 0.0) == 0.0:
                lines.append(f"if {b} == 0.0: raise ExprError('division by zero')")
            return assign(f"{a} {node.op} {b}")
        if isinstance(node, Call) and node.func in FUNCTIONS:
            args = [emit(a) for a in node.args]
            if node.func in _DOMAIN:
                test, message = _DOMAIN[node.func]
                lines.append(f"if {args[0]} {test} 0.0: "
                             f"raise ExprError(f'{message} {{{args[0]}}}')")
            shown = ", ".join(f"{{{a}!s}}" for a in args)
            return assign(f"float(f_{node.func}({', '.join(args)}))",
                          f"{node.func}({shown}) failed: {{err}}")
        raise TypeError(f"not an expression node: {node!r}")

    r = emit(e)
    lines += [f"if not isfinite({r}): "
              f"raise ExprError(f'expression produced non-finite value {{{r}}}')", f"return {r}"]
    signature = "".join(f"p{k}, " for k in range(len(params))) + "env={}"
    source = "".join([f"def make({', '.join(consts)}):\n    def run({signature}):\n"]
                     + [f"        {line}\n" for line in lines] + ["    return run\n"])
    namespace = dict(_RUNTIME)
    exec(compile(source, "<expr>", "exec"), namespace)
    return namespace.pop("make")(*consts.values())


def evaluate_array(e: Expression, env) -> tuple:
    """`evaluate` over env values that are float64 arrays or floats.

    Returns (values, failed) in the shape of the arrays the tree reads (of all
    of env's, for a tree that reads none): failed marks each element on which
    `evaluate` raises, and the other values equal its results bit for bit.
    """
    with np.errstate(all="ignore"):
        try:
            values, failed = _walk(e, env)
        except KeyError:  # an unbound name fails every element
            values, failed = math.nan, True
        failed = failed | ~np.isfinite(values)
    if np.ndim(values):
        return values, failed
    shape = np.broadcast_shapes(*map(np.shape, env.values()))
    return np.broadcast_to(values, shape), np.broadcast_to(failed, shape)


def _walk(e: Expression, env):
    if isinstance(e, Num):
        return e.value, False
    if isinstance(e, Var):
        return env[e.name], False
    if isinstance(e, Neg):
        value, failed = _walk(e.operand, env)
        return -value, failed
    if isinstance(e, BinOp) and e.op in _UFUNCS:
        (a, failed_a), (b, failed_b) = _walk(e.left, env), _walk(e.right, env)
        return _UFUNCS[e.op](a, b), failed_a | failed_b | (e.op == "/" and b == 0.0)
    if isinstance(e, BinOp) and e.op == "^":
        e = Call("pow", (e.left, e.right))
    if not (isinstance(e, Call) and e.func in FUNCTIONS):
        raise TypeError(f"not an expression node: {e!r}")
    # per element: numpy's transcendentals can differ from math's by an ulp
    walked = [_walk(a, env) for a in e.args]
    args = np.broadcast_arrays(*(value for value, _ in walked))
    values, failed = [], []
    for row in zip(*(a.ravel().tolist() for a in args)):
        try:
            values.append(float(FUNCTIONS[e.func][1](*row)))
            failed.append(False)
        except (OverflowError, ValueError):  # log <= 0, sqrt < 0, a failed pow or call
            values.append(math.nan)
            failed.append(True)
    # a function takes one or two arguments
    failed = np.reshape(failed, args[0].shape) | walked[0][1] | walked[-1][1]
    return np.reshape(values, args[0].shape), failed


def free_vars(e: Expression) -> set[str]:
    """Names of all variables appearing in the expression."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Num):
        return set()
    if isinstance(e, Neg):
        return free_vars(e.operand)
    if isinstance(e, (BinOp, Call)):
        return set().union(*map(free_vars, e.args if isinstance(e, Call) else (e.left, e.right)))
    raise TypeError(f"not an expression node: {e!r}")


def check_names(key: str, e: Expression | None, allowed) -> None:
    """Raise SpecError(key) when e reads a name outside allowed."""
    unknown = set() if e is None else free_vars(e) - set(allowed)
    if unknown:
        raise SpecError(key, f"unknown variable(s) {sorted(unknown)}; allowed: {sorted(allowed)}")

