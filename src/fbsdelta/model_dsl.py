"""Small arithmetic expression language for scenario-defined model functions.

Expressions are built from numeric literals, the time variable ``t`` and the
indexed state variables ``x1..xm``, ``y1..yn``, ``z1..zn``.  Binary operators
are ``+ - * / ^`` with the usual precedence except that unary minus binds
looser than ``^`` (so ``-y1^2`` means ``-(y1^2)``); ``^`` associates to the
right, everything else to the left.  The function set is fixed: ``sin``,
``cos``, ``exp``, ``tanh``, ``abs`` (one argument) and ``min``, ``max`` (two
arguments).  Expressions contain no randomness: node-dependent data belongs
in per-node tables, not in formulas.

``eval_expr`` evaluates one point with Python floats and is the reference;
``compile_expr`` turns an expression once into a NumPy function over column
arrays, for evaluating a whole time slab in one call.  Both refuse the same
operations with :class:`ExprEvalError`.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

__all__ = ["ExprEvalError", "ExprSyntaxError", "compile_expr", "eval_expr", "format_expr", "parse_expr"]


class ExprSyntaxError(ValueError):
    """Raised when an expression cannot be parsed or names unknown symbols."""


class ExprEvalError(ArithmeticError):
    """Raised when evaluation hits an undefined operation (e.g. x/0)."""


# -- abstract syntax -------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]

_FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "tanh": 1, "abs": 1, "min": 2, "max": 2}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(f"unexpected character {text[pos:].lstrip()[0]!r} at position {pos}")
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, m: int, n: int):
        self.text = text
        self.m = m
        self.n = n
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, at = self.peek()
        if kind != "op" or value != symbol:
            raise ExprSyntaxError(f"expected {symbol!r} at position {at} in {self.text!r}")
        self.advance()

    def parse(self) -> Expr:
        node = self.addsub()
        kind, value, at = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {value!r} at position {at} in {self.text!r}")
        return node

    def addsub(self) -> Expr:
        node = self.muldiv()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = BinOp(op, node, self.muldiv())
        return node

    def muldiv(self) -> Expr:
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, value, at = self.advance()
        if kind == "num":
            number = float(value)
            if not math.isfinite(number):
                raise ExprSyntaxError(f"literal {value!r} at position {at} is out of range")
            return Num(number)
        if kind == "ident":
            if self.peek()[:2] == ("op", "("):
                return self.call(value, at)
            return self.variable(value, at)
        if kind == "op" and value == "(":
            node = self.addsub()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected {value or 'end of input'!r} at position {at} in {self.text!r}")

    def call(self, name: str, at: int) -> Expr:
        if name not in _FUNCTIONS:
            raise ExprSyntaxError(f"unknown function {name!r} at position {at}")
        self.expect_op("(")
        args = [self.addsub()]
        while self.peek()[:2] == ("op", ","):
            self.advance()
            args.append(self.addsub())
        self.expect_op(")")
        arity = _FUNCTIONS[name]
        if len(args) != arity:
            raise ExprSyntaxError(f"function {name} takes {arity} argument(s), got {len(args)}")
        return Call(name, tuple(args))

    def variable(self, name: str, at: int) -> Expr:
        if name == "t":
            return Var(name)
        match = re.fullmatch(r"([xyz])([1-9]\d*)", name)
        if match:
            kind, index = match.group(1), int(match.group(2))
            bound = self.m if kind == "x" else self.n
            if index <= bound:
                return Var(name)
            raise ExprSyntaxError(
                f"variable {name!r} out of range at position {at}: declared dimensions allow "
                f"{kind}1..{kind}{bound}" if bound else f"variable {name!r} not available here"
            )
        raise ExprSyntaxError(f"unknown variable {name!r} at position {at}")


def parse_expr(text: str, m: int = 0, n: int = 0) -> Expr:
    """Parse ``text`` against declared dimensions (x1..xm, y1..yn, z1..zn)."""
    return _Parser(text, m, n).parse()


# -- evaluation ------------------------------------------------------------


def _nan_min(a: float, b: float) -> float:
    return math.nan if math.isnan(a) or math.isnan(b) else min(a, b)


def _nan_max(a: float, b: float) -> float:
    return math.nan if math.isnan(a) or math.isnan(b) else max(a, b)


_CALL_FN = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "tanh": math.tanh, "abs": abs,
    "min": _nan_min, "max": _nan_max,
}
_BINARY_FN = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow}


def _checked(expr: Expr, value, operands: tuple[float, ...]) -> float:
    """Refuse what IEEE arithmetic would flag: a NaN made from non-NaN
    operands, an infinity made from finite ones, or a complex power."""
    if isinstance(value, complex):
        raise ExprEvalError(f"cannot evaluate {format_expr(expr)!r}: negative base raised to a non-integer power")
    if math.isnan(value) and not any(math.isnan(a) for a in operands):
        raise ExprEvalError(f"cannot evaluate {format_expr(expr)!r}: undefined result")
    if math.isinf(value) and all(math.isfinite(a) for a in operands):
        raise ExprEvalError(f"cannot evaluate {format_expr(expr)!r}: result out of range")
    return value


def eval_expr(
    expr: Expr,
    t: float = 0.0,
    x: Sequence[float] = (),
    y: Sequence[float] = (),
    z: Sequence[float] = (),
) -> float:
    """Evaluate with the given variable bindings; exact float semantics.

    An operation that overflows, divides by zero or has no real value raises
    :class:`ExprEvalError` naming that subexpression; underflow gives 0.
    This is the reference for :func:`compile_expr`.
    """
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        name = expr.name
        if name == "t":
            return float(t)
        vec = {"x": x, "y": y, "z": z}[name[0]]
        index = int(name[1:]) - 1
        if index >= len(vec):
            raise ExprEvalError(f"variable {name} has no binding (vector of length {len(vec)})")
        return float(vec[index])
    if isinstance(expr, Neg):
        return -eval_expr(expr.operand, t, x, y, z)
    if isinstance(expr, BinOp):
        args = (eval_expr(expr.left, t, x, y, z), eval_expr(expr.right, t, x, y, z))
        fn = _BINARY_FN[expr.op]
    elif isinstance(expr, Call):
        args = tuple(eval_expr(a, t, x, y, z) for a in expr.args)
        fn = _CALL_FN[expr.fn]
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    try:
        value = fn(*args)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise ExprEvalError(f"cannot evaluate {format_expr(expr)!r}: {exc}") from exc
    return _checked(expr, value, args)


# -- compilation to NumPy ------------------------------------------------------

_UFUNC = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power,
    "sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh, "abs": np.abs,
    "min": np.minimum, "max": np.maximum,
}

def _compile(expr: Expr):
    """Closure evaluating ``expr`` on the bindings (t, x, y, z)."""
    if isinstance(expr, Num):
        value = expr.value
        return lambda b: value
    if isinstance(expr, Var):
        if expr.name == "t":
            return lambda b: b[0]
        slot, index, name = {"x": 1, "y": 2, "z": 3}[expr.name[0]], int(expr.name[1:]) - 1, expr.name

        def var(b):
            cols = b[slot]
            if index >= cols.shape[1]:
                raise ExprEvalError(f"variable {name} has no binding (vector of length {cols.shape[1]})")
            return cols[:, index]

        return var
    if isinstance(expr, Neg):
        operand = _compile(expr.operand)
        return lambda b: np.negative(operand(b))
    if isinstance(expr, BinOp):
        key, parts = expr.op, (_compile(expr.left), _compile(expr.right))
    elif isinstance(expr, Call):
        key, parts = expr.fn, tuple(_compile(a) for a in expr.args)
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    ufunc, text = _UFUNC[key], format_expr(expr)

    def apply(b):
        args = [part(b) for part in parts]
        try:
            return ufunc(*args)
        except FloatingPointError as exc:
            raise ExprEvalError(f"cannot evaluate {text!r}: {exc}") from exc

    return apply


def compile_expr(expr: Expr) -> Callable[..., np.ndarray]:
    """Compile once into ``fn(t, x=None, y=None, z=None) -> (N,) array``.

    ``x``, ``y`` and ``z`` are column arrays of shapes (N, m), (N, n) and
    (N, n), one row per evaluation point; at least one must be given, and a
    missing one binds no variables.  Evaluation follows :func:`eval_expr`:
    overflow, division by zero and undefined results raise
    :class:`ExprEvalError` naming the subexpression, underflow gives 0.
    Transcendental functions come from NumPy and may differ from ``math``
    in the last few bits.
    """
    run = _compile(expr)

    def evaluate(t: float, x=None, y=None, z=None) -> np.ndarray:
        cols = [None if a is None else np.asarray(a, dtype=float) for a in (x, y, z)]
        rows = next((a.shape[0] for a in cols if a is not None), None)
        if rows is None:
            raise ValueError("compiled expressions need at least one binding array")
        empty = np.empty((rows, 0))
        bindings = (float(t), *(empty if a is None else a for a in cols))
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            out = run(bindings)
        return np.array(np.broadcast_to(out, (rows,)), dtype=float)

    return evaluate


# -- printing ----------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(expr: Expr) -> int:
    if isinstance(expr, BinOp):
        if expr.op in "+-":
            return _LEVEL_ADD
        if expr.op in "*/":
            return _LEVEL_MUL
        return _LEVEL_POW
    if isinstance(expr, Neg):
        return _LEVEL_NEG
    return _LEVEL_ATOM


def _wrap(text: str, need: bool) -> str:
    return f"({text})" if need else text


def format_expr(expr: Expr) -> str:
    """Render with minimal parentheses; reparsing yields an identical tree."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = format_expr(expr.operand)
        return "-" + _wrap(inner, _level(expr.operand) < _LEVEL_NEG)
    if isinstance(expr, Call):
        return f"{expr.fn}({', '.join(format_expr(a) for a in expr.args)})"
    if isinstance(expr, BinOp):
        level = _level(expr)
        left, right = format_expr(expr.left), format_expr(expr.right)
        if expr.op == "^":
            # right-associative; left operand must sit strictly above ^,
            # right operand may be any unary-level expression
            left = _wrap(left, _level(expr.left) <= _LEVEL_POW)
            right = _wrap(right, _level(expr.right) < _LEVEL_NEG)
        else:
            left = _wrap(left, _level(expr.left) < level)
            right = _wrap(right, _level(expr.right) <= level)
        return f"{left} {expr.op} {right}" if expr.op in "+-" else f"{left}{expr.op}{right}"
    raise TypeError(f"not an expression node: {expr!r}")
