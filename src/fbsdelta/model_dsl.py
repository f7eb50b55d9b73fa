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
``compile_map`` turns a map's expressions once into one NumPy program over
column arrays, for evaluating a whole time slab in one call, and computes
each subexpression the map shares once; ``compile_expr`` is its
one-expression case.  Both evaluators refuse the same operations with
:class:`ExprEvalError`.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

__all__ = ["ExprEvalError", "ExprSyntaxError", "compile_expr", "compile_map", "eval_expr", "format_expr", "parse_expr"]


class ExprSyntaxError(ValueError):
    """Raised when an expression cannot be parsed or names unknown symbols."""


class ExprEvalError(ArithmeticError):
    """Raised when evaluation hits an undefined operation (e.g. x/0)."""


# -- abstract syntax -------------------------------------------------------


_OPERANDS = ("operand", "left", "right", "args")  # the node fields that hold subexpressions


class _Node:
    """Equality, hash and repr that walk a tree of any depth without
    recursion: equality and hash over the post-order list of nodes, repr
    through :func:`format_expr`."""

    def _key(self) -> tuple:
        """Each node's class and own fields (not its operands) in post-order;
        every class and operation has a fixed arity, so this is the whole tree."""
        return tuple(
            (type(node), *(v for k, v in vars(node).items() if k not in _OPERANDS)) for node, _ in _postorder(self)
        )

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, _Node) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}<{format_expr(self)}>"


@dataclass(frozen=True, eq=False, repr=False)
class Num(_Node):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Neg(_Node):
    operand: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class BinOp(_Node):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, eq=False, repr=False)
class Call(_Node):
    fn: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]


def _nan_passing(pick: Callable) -> Callable:
    """min or max that gives NaN when an operand is NaN, as NumPy's do."""
    return lambda a, b: math.nan if math.isnan(a) or math.isnan(b) else pick(a, b)


_Op = namedtuple("_Op", "level arity real array")
_ATOM = 5  # print level of literals, variables and calls

# Every operation once: print level (1 for + -, 2 for * /, 3 for unary minus, 4
# for ^), arity, float rule (eval_expr) and array rule (compile_expr).  Keys are
# the operator symbols, "u-" for unary minus, and the function names.
_OPS = {
    "+": _Op(1, 2, operator.add, np.add),
    "-": _Op(1, 2, operator.sub, np.subtract),
    "*": _Op(2, 2, operator.mul, np.multiply),
    "/": _Op(2, 2, operator.truediv, np.divide),
    "u-": _Op(3, 1, operator.neg, np.negative),
    "^": _Op(4, 2, operator.pow, np.power),
    "sin": _Op(_ATOM, 1, math.sin, np.sin),
    "cos": _Op(_ATOM, 1, math.cos, np.cos),
    "exp": _Op(_ATOM, 1, math.exp, np.exp),
    "tanh": _Op(_ATOM, 1, math.tanh, np.tanh),
    "abs": _Op(_ATOM, 1, abs, np.abs),
    "min": _Op(_ATOM, 2, _nan_passing(min), np.minimum),
    "max": _Op(_ATOM, 2, _nan_passing(max), np.maximum),
}

# Most levels an expression nests: the whole text is one, and each sign, power,
# parenthesis and call argument opens one more (about five parser frames each).
NESTING_LIMIT = 100

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)|(?P<ident>[A-Za-z_]\w*)|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens, pos = [], 0
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
        self.text, self.m, self.n = text, m, n
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

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
        self.depth += 1
        if self.depth > NESTING_LIMIT:
            raise ExprSyntaxError(f"expression nested deeper than {NESTING_LIMIT} levels at position {self.peek()[2]}")
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            node = Neg(self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

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
        if name not in _OPS:  # its identifier keys are the function names
            raise ExprSyntaxError(f"unknown function {name!r} at position {at}")
        self.expect_op("(")
        args = [self.addsub()]
        while self.peek()[:2] == ("op", ","):
            self.advance()
            args.append(self.addsub())
        self.expect_op(")")
        arity = _OPS[name].arity
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


# -- one traversal ------------------------------------------------------------


def _postorder(expr: Expr) -> list[tuple[Expr, _Op | None]]:
    """(node, operation) of every node, each after its operands taken left
    to right; a leaf's operation is None.  Any depth of tree works."""
    steps, pending = [], [expr]
    while pending:
        node = pending.pop()
        if isinstance(node, BinOp):
            key, operands = node.op, (node.left, node.right)
        elif isinstance(node, Call):
            key, operands = node.fn, node.args
        elif isinstance(node, Neg):
            key, operands = "u-", (node.operand,)
        else:
            key, operands = None, ()
        op = _OPS.get(key)
        if op is None and not isinstance(node, (Num, Var)) or op and op.arity != len(operands):
            raise TypeError(f"not an expression node: {type(node).__name__} with operation {key!r}")
        steps.append((node, op))
        pending.extend(operands)
    steps.reverse()
    return steps


def _fold(steps, leaf: Callable, apply: Callable):
    """The root's value: ``leaf(node)`` of each leaf, ``apply(node, op, args)`` of each operation."""
    values = []
    push, pop = values.append, values.pop
    for node, op in steps:
        if op is None:
            push(leaf(node))
        elif op.arity == 1:
            push(apply(node, op, (pop(),)))
        else:  # every operation takes one or two operands
            right = pop()
            push(apply(node, op, (pop(), right)))
    return values[0]


# -- evaluation with Python floats and with NumPy arrays ------------------------


def _leaf(t: float, vectors: dict, node: Expr):
    """A literal's value, ``t``, or entry i - 1 of vector x, y or z for xi, yi or zi."""
    if isinstance(node, Num):
        return node.value
    if node.name == "t":
        return t
    vec, index = vectors[node.name[0]], int(node.name[1:]) - 1
    if index >= len(vec):
        raise ExprEvalError(f"variable {node.name} has no binding (vector of length {len(vec)})")
    return vec[index]


def _refusal(node: Expr, reason) -> ExprEvalError:
    return ExprEvalError(f"cannot evaluate {format_expr(node)!r}: {reason}")


def _apply_float(node: Expr, op: _Op, args: tuple[float, ...]) -> float:
    """The float rule, refusing what IEEE arithmetic would flag: a NaN made
    from non-NaN operands, an infinity made from finite ones, or a complex power."""
    try:
        value = op.real(*args)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        raise _refusal(node, exc) from exc
    if isinstance(value, complex):
        raise _refusal(node, "negative base raised to a non-integer power")
    if math.isnan(value) and not any(math.isnan(a) for a in args):
        raise _refusal(node, "undefined result")
    if math.isinf(value) and all(math.isfinite(a) for a in args):
        raise _refusal(node, "result out of range")
    return value


def eval_expr(expr: Expr, t: float = 0.0, x: Sequence[float] = (), y: Sequence[float] = (), z: Sequence[float] = ()) -> float:
    """Evaluate with the given variable bindings; exact float semantics.

    An operation that overflows, divides by zero or has no real value raises
    :class:`ExprEvalError` naming that subexpression; underflow gives 0.
    This is the reference for :func:`compile_expr`.
    """
    vectors = {"x": x, "y": y, "z": z}
    return _fold(_postorder(expr), lambda node: float(_leaf(float(t), vectors, node)), _apply_float)


def compile_map(exprs: Sequence[Expr]) -> Callable[..., np.ndarray]:
    """Compile a map once into ``fn(t, x=None, y=None, z=None) -> (N, k)
    array``, column j the value of ``exprs[j]``.

    ``x``, ``y`` and ``z`` are 2-D column arrays of shapes (N, m), (N, n) and
    (N, n); at least one must be given, and a missing one binds no variables.
    Evaluation follows :func:`eval_expr`; transcendental functions come from
    NumPy and may differ from ``math`` in the last few bits.  The map runs as
    one register program that computes each distinct subexpression once, in
    the expressions' order, so values and refusals are those of each
    expression compiled alone.
    """
    # registers 0-2 hold the bindings transposed (entry j is column j) and 3
    # holds t.  Each later one holds a literal or a subexpression, keyed by its
    # operation and operand registers (float.hex keeps -0.0 apart; _Node
    # equality would walk each subtree), and is dropped after its last reader.
    start, made, code, roots, last = [np.empty((0, 0))] * 3 + [None], {"t": 3}, [], [], {}
    for expr in exprs:
        stack = []
        for node, op in _postorder(expr):
            if op is None:
                args, key = (), float(node.value).hex() if isinstance(node, Num) else node.name
            else:
                args = tuple(stack[len(stack) - op.arity :])
                del stack[len(stack) - op.arity :]
                key = (op, *args)
            reg = made.get(key)
            if reg is None:
                reg = made[key] = len(start)
                start.append(node.value if isinstance(node, Num) else None)
                if isinstance(node, Var):  # xi, yi or zi (t is register 3): column i - 1 of binding x, y or z
                    rule, args = operator.itemgetter(int(node.name[1:]) - 1), ("xyz".index(node.name[0]),)
                else:
                    rule = op and op.array  # a literal is no instruction
                if rule is not None:
                    last.update(dict.fromkeys(args, len(code)))
                    code.append([rule, *args, None][:3] + [reg, [], node])  # b is None for one operand
            stack.append(reg)
        roots.append(stack.pop())
    kept = set(roots)
    for reg, at in last.items():
        if reg > 3 and start[reg] is None and reg not in kept:
            code[at][4].append(reg)

    def evaluate(t: float, x=None, y=None, z=None) -> np.ndarray:
        named = [(name, np.asarray(a, dtype=float)) for name, a in zip("xyz", (x, y, z)) if a is not None]
        if not named:
            raise ValueError("compiled expressions need at least one binding array")
        regs, (first, lead) = start.copy(), named[0]
        for name, a in named:
            if a.ndim != 2:
                raise ValueError(f"binding {name} must be a 2-D array of rows, got shape {a.shape}")
            if len(a) != len(lead):
                raise ValueError(f"bindings {first} and {name} differ in rows: {len(lead)} and {len(a)}")
            regs["xyz".index(name)] = a.T
        regs[3] = float(t)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
                for rule, a, b, reg, free, node in code:
                    regs[reg] = rule(regs[a]) if b is None else rule(regs[a], regs[b])
                    for r in free:
                        regs[r] = None
        except FloatingPointError as exc:
            raise _refusal(node, exc) from exc
        except IndexError:  # a load past the last column: eval_expr's refusal
            _leaf(0.0, {node.name[0]: regs[a]}, node)
        out = np.empty((len(lead), len(roots)))
        for j, reg in enumerate(roots):
            out[:, j] = regs[reg]
        return out

    return evaluate


def compile_expr(expr: Expr) -> Callable[..., np.ndarray]:
    """Compile once into ``fn(t, x=None, y=None, z=None) -> (N,) array``:
    the one-expression case of :func:`compile_map`."""
    evaluate = compile_map([expr])
    return lambda t, x=None, y=None, z=None: evaluate(t, x, y, z)[:, 0]


# -- printing ----------------------------------------------------------------


def _wrap(pieces, need: bool):
    return ("(", pieces, ")") if need else pieces


def _apply_text(node: Expr, op: _Op, args: tuple) -> tuple:
    """(pieces, print level) of an operation from its operands' (pieces,
    level); pieces nest the operands' pieces, so no text is copied here."""
    level = op.level
    if isinstance(node, Call):
        pieces = [node.fn, "("]
        for i, (operand, _) in enumerate(args):
            pieces += [", ", operand] if i else [operand]
        return (*pieces, ")"), level
    if isinstance(node, Neg):
        [(pieces, inner)] = args
        return ("-", _wrap(pieces, inner < level)), level
    (left, left_level), (right, right_level) = args
    key = node.op
    # ^ is right-associative: its left operand must sit strictly above it, and
    # its right operand may be any unary-level expression
    power = key == "^"
    left = _wrap(left, left_level <= level if power else left_level < level)
    right = _wrap(right, right_level < _OPS["u-"].level if power else right_level <= level)
    return (left, f" {key} " if key in "+-" else key, right), level


def format_expr(expr: Expr) -> str:
    """Render with minimal parentheses; reparsing yields an identical tree.
    The fold nests each operation's pieces; one walk then joins the text,
    so the time is linear in its length."""

    def leaf(node):
        return (repr(node.value) if isinstance(node, Num) else node.name), _ATOM

    text, pending = [], [_fold(_postorder(expr), leaf, _apply_text)[0]]
    while pending:
        pieces = pending.pop()
        if isinstance(pieces, str):
            text.append(pieces)
        else:
            pending.extend(reversed(pieces))
    return "".join(text)
