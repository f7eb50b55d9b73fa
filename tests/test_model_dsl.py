"""Parser/evaluator/printer behaviour, including the precedence corner cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fbsdelta.model_dsl import (
    NESTING_LIMIT,
    BinOp,
    Call,
    ExprEvalError,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    _OPS,
    compile_expr,
    compile_map,
    eval_expr,
    format_expr,
    parse_expr,
)

from golden_expressions import GOLDEN_EXPRESSIONS, dims_of
from helpers import NESTINGS, long_sum


@pytest.mark.parametrize("text,bindings,expected", GOLDEN_EXPRESSIONS)
def test_golden_values_exact(text, bindings, expected):
    m, n = dims_of(bindings)
    expr = parse_expr(text, m=m, n=n)
    value = eval_expr(
        expr,
        t=bindings.get("t", 0.0),
        x=bindings.get("x", ()),
        y=bindings.get("y", ()),
        z=bindings.get("z", ()),
    )
    assert value == expected  # exact, no tolerance


def test_unary_minus_binds_looser_than_power():
    expr = parse_expr("-y1^2", m=0, n=1)
    assert isinstance(expr, Neg)
    assert isinstance(expr.operand, BinOp) and expr.operand.op == "^"


def test_power_is_right_associative():
    expr = parse_expr("2^3^2", m=0, n=0)
    assert isinstance(expr, BinOp) and expr.op == "^"
    assert isinstance(expr.right, BinOp) and expr.right.op == "^"
    assert isinstance(expr.left, Num)


def test_left_associativity_of_additive_and_multiplicative_chains():
    expr = parse_expr("10-3-4", m=0, n=0)
    assert isinstance(expr.left, BinOp) and expr.left.op == "-"
    expr = parse_expr("10/4/5", m=0, n=0)
    assert isinstance(expr.left, BinOp) and expr.left.op == "/"


@pytest.mark.parametrize(
    "text,m,n,match",
    [
        ("x2 + 1", 1, 1, "out of range"),
        ("w1", 1, 1, "unknown variable"),
        ("foo(1)", 0, 0, "unknown function"),
        ("min(1)", 0, 0, "takes 2 argument"),
        ("abs(1, 2)", 0, 0, "takes 1 argument"),
        ("2 +", 0, 0, "unexpected"),
        ("(2", 0, 0, "expected"),
        ("1 $ 2", 0, 0, "unexpected character"),
        ("1 2", 0, 0, "trailing"),
        ("y0", 0, 1, "unknown variable"),
    ],
)
def test_parse_errors(text, m, n, match):
    with pytest.raises(ExprSyntaxError, match=match):
        parse_expr(text, m=m, n=n)


def test_trailing_whitespace_is_ignored():
    assert parse_expr("y1 + 1 \t ", m=0, n=1) == parse_expr("y1 + 1", m=0, n=1)


def test_division_by_zero_names_the_subexpression():
    expr = parse_expr("1 + 2/(x1 - x1)", m=1, n=0)
    with pytest.raises(ExprEvalError, match=r"2\.0/\(x1 - x1\)"):
        eval_expr(expr, x=[1.0])


def test_zero_to_negative_power_is_an_evaluation_error():
    expr = parse_expr("0^-1", m=0, n=0)
    with pytest.raises(ExprEvalError):
        eval_expr(expr)


def test_missing_binding_is_an_evaluation_error():
    expr = parse_expr("y2", m=0, n=2)
    with pytest.raises(ExprEvalError, match="y2"):
        eval_expr(expr, y=[1.0])


def test_scientific_notation_literals():
    assert eval_expr(parse_expr("2.5e-1 + 1E2", m=0, n=0)) == 100.25


def test_print_parse_fixpoint_on_golden_suite():
    for text, bindings, _ in GOLDEN_EXPRESSIONS:
        m, n = dims_of(bindings)
        once = format_expr(parse_expr(text, m=m, n=n))
        twice = format_expr(parse_expr(once, m=m, n=n))
        assert once == twice
        assert parse_expr(once, m=m, n=n) == parse_expr(text, m=m, n=n)


def _random_ast(rng: np.random.Generator, depth: int, m: int, n: int):
    pool = ["t"] + [f"x{i}" for i in range(1, m + 1)] + [f"y{i}" for i in range(1, n + 1)] + [
        f"z{i}" for i in range(1, n + 1)
    ]
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Num(float(np.round(rng.uniform(0, 9), 2)))
        return Var(pool[int(rng.integers(len(pool)))])
    draw = rng.random()
    if draw < 0.15:
        return Neg(_random_ast(rng, depth - 1, m, n))
    if draw < 0.30:
        fn = ["sin", "cos", "exp", "tanh", "abs", "min", "max"][int(rng.integers(7))]
        arity = 2 if fn in ("min", "max") else 1
        return Call(fn, tuple(_random_ast(rng, depth - 1, m, n) for _ in range(arity)))
    op = "+-*/^"[int(rng.integers(5))]
    return BinOp(op, _random_ast(rng, depth - 1, m, n), _random_ast(rng, depth - 1, m, n))


def test_print_parse_round_trip_on_random_trees():
    rng = np.random.default_rng(42)
    for _ in range(300):
        ast = _random_ast(rng, depth=4, m=2, n=2)
        printed = format_expr(ast)
        reparsed = parse_expr(printed, m=2, n=2)
        assert reparsed == ast, printed
        assert format_expr(reparsed) == printed


def test_a_flat_sum_of_20000_terms_evaluates_prints_and_reparses():
    expr = parse_expr(long_sum(20_000), m=0, n=2)
    y = np.array([[0.5, -3.0], [1.25, 2.0]])
    compiled = compile_expr(expr)(0.0, y=y)
    assert compiled.tolist() == [eval_expr(expr, y=row) for row in y]
    printed = format_expr(expr)
    reparsed = parse_expr(printed, m=0, n=2)
    assert reparsed == expr and hash(reparsed) == hash(expr)
    assert format_expr(reparsed) == printed
    assert repr(expr) == f"BinOp<{printed}>"


@pytest.mark.parametrize("kind", list(NESTINGS))
def test_nesting_deeper_than_the_limit_is_a_syntax_error_naming_the_position(kind):
    nest, width = NESTINGS[kind]
    printed = format_expr(parse_expr(nest(NESTING_LIMIT - 1), m=0, n=1))
    assert format_expr(parse_expr(printed, m=0, n=1)) == printed
    message = f"expression nested deeper than {NESTING_LIMIT} levels at position {width * NESTING_LIMIT}$"
    for depth in (NESTING_LIMIT, 3000):
        with pytest.raises(ExprSyntaxError, match=message):
            parse_expr(nest(depth), m=0, n=1)


# -- compiled evaluator ------------------------------------------------------------


@pytest.mark.parametrize("text,bindings,expected", GOLDEN_EXPRESSIONS)
def test_golden_values_exact_under_the_compiled_evaluator(text, bindings, expected):
    m, n = dims_of(bindings)
    cols = {key: np.array([bindings.get(key, ())], dtype=float) for key in "xyz"}  # 1-row, maybe 0 wide
    value = compile_expr(parse_expr(text, m=m, n=n))(bindings.get("t", 0.0), **cols)
    assert value.shape == (1,)
    assert value[0] == expected  # exact, no tolerance


@pytest.mark.parametrize("evaluate", ["reference", "compiled"])
@pytest.mark.parametrize(
    "text,value,match",
    [
        ("(y1 - 5)^0.5", 1.0, r"\(y1 - 5\.0\)\^0\.5"),  # negative base, non-integer power
        ("y1*y1 - y1*y1", 1e200, r"'y1\*y1'"),  # overflow on finite operands
        ("y1/(y1 - y1)", 2.0, r"y1/\(y1 - y1\)"),
        ("exp(y1)", 1e3, r"exp\(y1\)"),
        ("0^-y1", 1.0, r"0\.0\^-y1"),
        ("y1 - y1", np.inf, r"^cannot evaluate 'y1 - y1': (undefined result|invalid value encountered in subtract)$"),
    ],
)
def test_undefined_or_overflowing_operations_name_the_subexpression(evaluate, text, value, match):
    expr = parse_expr(text, m=0, n=1)
    with pytest.raises(ExprEvalError, match=match):
        if evaluate == "reference":
            eval_expr(expr, y=[value])
        else:
            compile_expr(expr)(0.0, y=np.full((3, 1), value))


@pytest.mark.parametrize(
    "node, message",
    [
        (BinOp("%", Num(1.0), Num(2.0)), "BinOp with operation '%'"),
        (Call("sin", (Num(1.0), Num(2.0))), "Call with operation 'sin'"),
        (Neg("1"), "str with operation None"),
    ],
    ids=["operation", "arity", "leaf"],
)
def test_a_node_outside_the_grammar_is_refused_by_name(node, message):
    with pytest.raises(TypeError) as refusal:
        format_expr(node)
    assert str(refusal.value) == f"not an expression node: {message}"


def test_underflow_is_silent_in_both_evaluators():
    expr = parse_expr("exp(-1000*y1) + 10^(-400*y1)", m=0, n=1)
    assert eval_expr(expr, y=[1.0]) == 0.0
    assert compile_expr(expr)(0.0, y=np.ones((2, 1))).tolist() == [0.0, 0.0]


def test_nan_bindings_propagate_alike_in_both_evaluators():
    # a NaN operand is passed on, not refused, and min/max do not drop it
    for text in ("min(y1, 0)", "max(0, y1)", "y1 - y1", "2*y1 + 1"):
        expr = parse_expr(text, m=0, n=1)
        assert np.isnan(eval_expr(expr, y=[np.nan])), text
        assert np.isnan(compile_expr(expr)(0.0, y=np.full((2, 1), np.nan))).all(), text


def test_non_finite_literals_are_syntax_errors():
    with pytest.raises(ExprSyntaxError, match="out of range"):
        parse_expr("y1 + 1e400", m=0, n=1)


def test_compiled_evaluator_needs_a_row_count_and_bound_variables():
    with pytest.raises(ValueError, match="binding"):
        compile_expr(parse_expr("1 + t"))(0.0)
    assert compile_expr(parse_expr("1 + t"))(2.0, x=np.empty((4, 0))).tolist() == [3.0] * 4
    with pytest.raises(ExprEvalError, match="y2"):
        compile_expr(parse_expr("y2", m=0, n=2))(0.0, y=np.ones((3, 1)))


@pytest.mark.parametrize(
    "bindings, message",
    [
        ({"y": np.array([1.0, 2.0, 3.0])}, "binding y must be a 2-D array of rows, got shape (3,)"),
        ({"x": np.ones((3, 1)), "y": np.ones((1, 2))}, "bindings x and y differ in rows: 3 and 1"),
        ({"y": np.ones((2, 2)), "z": np.ones((2, 2, 1))}, "binding z must be a 2-D array of rows, got shape (2, 2, 1)"),
        ({"x": 1.0}, "binding x must be a 2-D array of rows, got shape ()"),
    ],
    ids=["one-dimensional", "row-counts", "three-dimensional", "scalar"],
)
def test_compiled_evaluator_refuses_malformed_bindings_by_name(bindings, message):
    with pytest.raises(ValueError) as refusal:
        compile_expr(parse_expr("y1 + 10*y2", m=1, n=2))(0.0, **bindings)
    assert str(refusal.value) == message


def _counting(monkeypatch, *keys) -> list:
    """Replace the array rules of ``keys`` by ones that log each call."""
    calls = []
    for key in keys:
        op = _OPS[key]
        monkeypatch.setitem(_OPS, key, op._replace(array=lambda *a, rule=op.array, key=key: calls.append(key) or rule(*a)))
    return calls


def test_a_subexpression_shared_by_a_map_is_computed_once_per_call(monkeypatch):
    calls = _counting(monkeypatch, "tanh")
    program = compile_map([parse_expr("tanh(y1) + 1", m=0, n=1), parse_expr("2*tanh(y1)", m=0, n=1)])
    y = np.array([[0.5], [-2.0]])
    for evaluation in (1, 2):
        assert program(0.0, y=y).tolist() == np.stack([np.tanh(y[:, 0]) + 1, 2 * np.tanh(y[:, 0])], axis=1).tolist()
        assert calls == ["tanh"] * evaluation


def test_a_map_of_two_20000_term_sums_sharing_every_term_builds_and_agrees(monkeypatch):
    text = long_sum(20_000)
    exprs = [parse_expr(text, m=0, n=2), parse_expr(f"({text})/4", m=0, n=2)]
    y = np.array([[0.5, -3.0], [1.25, 2.0]])
    alone = [compile_expr(expr)(0.0, y=y) for expr in exprs]
    calls = _counting(monkeypatch, "+", "-")
    joint = compile_map(exprs)(0.0, y=y)
    assert len(calls) == 20_000 - 1  # the second sum's chain is the first's
    for j, want in enumerate(alone):
        assert joint[:, j].tolist() == want.tolist()


# -- property tests: random grammar expressions and bindings ---------------------------

_M = _N = 2
_NAMES = ["t"] + [f"x{i}" for i in range(1, _M + 1)] + [f"{v}{i}" for v in "yz" for i in range(1, _N + 1)]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LITERALS = st.one_of(st.integers(0, 9).map(float), st.floats(0.0, 1e3), _FINITE.map(abs))


def expressions(ops="+-*/^", functions=("sin", "cos", "exp", "tanh", "abs", "min", "max"), leaves=None):
    """Grammar trees over t, x1..x2, y1..y2, z1..z2 with non-negative literals
    (a negative number is Neg of a literal, as the parser reads it), or over
    the given ``leaves``."""
    unary = [fn for fn in functions if fn not in ("min", "max")]
    binary = [fn for fn in functions if fn in ("min", "max")]
    if leaves is None:
        leaves = st.one_of(_LITERALS.map(Num), st.sampled_from(_NAMES).map(Var))

    def extend(children):
        options = [children.map(Neg), st.builds(BinOp, st.sampled_from(ops), children, children)]
        if unary:
            options.append(st.builds(lambda fn, a: Call(fn, (a,)), st.sampled_from(unary), children))
        if binary:
            options.append(st.builds(lambda fn, a, b: Call(fn, (a, b)), st.sampled_from(binary), children, children))
        return st.one_of(options)

    return st.recursive(leaves, extend, max_leaves=10)


@st.composite
def bindings(draw):
    """A batch of 1..5 rows of finite bindings: t, x (N, 2), y (N, 2), z (N, 2)."""
    rows = draw(st.integers(1, 5))
    values = st.one_of(st.floats(-10.0, 10.0), _FINITE)
    cols = draw(arrays(np.float64, (rows, _M + 2 * _N), elements=values))
    return draw(st.one_of(st.floats(0.0, 20.0), _FINITE)), cols[:, :_M], cols[:, _M : _M + _N], cols[:, _M + _N :]


def _ulps(a: float, b: float) -> int:
    """Distance in units in the last place; +0 and -0 are the same point."""
    ia, ib = (int(np.float64(v).view(np.int64)) for v in (a, b))
    ia, ib = (i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF) for i in (ia, ib))
    return abs(ia - ib)


def _children(expr):
    if isinstance(expr, Neg):
        return (expr.operand,)
    if isinstance(expr, BinOp):
        return (expr.left, expr.right)
    if isinstance(expr, Call):
        return expr.args
    return ()


def _with_children(expr, children):
    if isinstance(expr, Neg):
        return Neg(*children)
    if isinstance(expr, BinOp):
        return BinOp(expr.op, *children)
    if isinstance(expr, Call):
        return Call(expr.fn, tuple(children))
    return expr


def _subexpressions(expr):
    yield expr
    for child in _children(expr):
        yield from _subexpressions(child)


def _reference_row(expr, t, x, y, z):
    try:
        return eval_expr(expr, t=t, x=x, y=y, z=z)
    except ExprEvalError:
        return None


def _compiled_batch(expr, t, x, y, z):
    try:
        return compile_expr(expr)(t, x=x, y=y, z=z)
    except ExprEvalError:
        return None


_PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(expr=expressions(), batch=bindings())
def test_every_compiled_operation_agrees_with_the_reference(expr, batch):
    """Each operation of the compiled evaluator, fed its compiled operands,
    lands within 4 ulp of ``eval_expr`` on the same operands, or both raise.

    The comparison is made per operation because NumPy's exp, tanh and power
    differ from ``math`` by up to 3 ulp, and a later cancellation can blow
    that up without bound in the final value (``tanh(y1) - y1`` near 0)."""
    t, x, y, z = batch
    for i in range(x.shape[0]):
        row = (t, x[i : i + 1], y[i : i + 1], z[i : i + 1])
        for sub in _subexpressions(expr):
            operands = [_compiled_batch(child, *row) for child in _children(sub)]
            if any(value is None for value in operands):
                continue  # an operand raised; that operation is checked on its own
            applied = _with_children(sub, [Num(float(value[0])) for value in operands])
            want = _reference_row(applied, t, x[i], y[i], z[i])
            got = _compiled_batch(sub, *row)
            assert (want is None) == (got is None), (format_expr(sub), want, got)
            if want is not None:
                assert _ulps(want, got[0]) <= 4, (format_expr(sub), want, got[0])


@_PROPERTY
@given(expr=expressions(functions=("abs", "min", "max"), ops="+-*/"), batch=bindings())
def test_compiled_rational_expressions_agree_exactly_on_every_row(expr, batch):
    """Without transcendental functions and powers every operation is
    correctly rounded in both evaluators, so whole expressions agree exactly
    (up to the sign of zero) or both raise; a batch raises when any row does."""
    t, x, y, z = batch
    per_row = [_reference_row(expr, t, x[i], y[i], z[i]) for i in range(x.shape[0])]
    for i, want in enumerate(per_row):
        got = _compiled_batch(expr, t, x[i : i + 1], y[i : i + 1], z[i : i + 1])
        assert (want is None) == (got is None), (format_expr(expr), want, got)
        if want is not None:
            assert got[0] == want, (format_expr(expr), want, got[0])
    whole = _compiled_batch(expr, t, x, y, z)
    assert (whole is None) == any(want is None for want in per_row)
    if whole is not None:
        assert whole.tolist() == per_row


@_PROPERTY
@given(expr=expressions())
def test_random_expressions_survive_print_and_parse(expr):
    text = format_expr(expr)
    assert parse_expr(text, m=_M, n=_N) == expr, text


@st.composite
def maps(draw):
    """2-4 expressions built over one pool of subtrees, which holds 0.0 and -0.0."""
    pool = draw(st.lists(expressions(), min_size=1, max_size=3)) + [Num(0.0), Num(-0.0)]
    return draw(st.lists(expressions(leaves=st.sampled_from(pool)), min_size=2, max_size=4))


def _outcome(evaluate):
    """The values, or the message of the ExprEvalError raised instead."""
    try:
        return evaluate()
    except ExprEvalError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(exprs=maps(), batch=bindings())
def test_a_map_compiled_as_one_program_equals_its_expressions_compiled_alone(exprs, batch):
    """Bit for bit, sign of zero included, and a refusal names the same first
    failing subexpression: that of the first expression that fails alone."""
    t, x, y, z = batch
    joint = _outcome(lambda: compile_map(exprs)(t, x=x, y=y, z=z))
    alone = [_outcome(lambda expr=expr: compile_expr(expr)(t, x=x, y=y, z=z)) for expr in exprs]
    refusal = next((value for value in alone if isinstance(value, str)), None)
    if refusal is not None:
        assert joint == refusal
    else:
        assert not isinstance(joint, str), joint
        assert joint.shape == (x.shape[0], len(exprs))
        for j, value in enumerate(alone):
            assert joint[:, j].view(np.int64).tolist() == value.view(np.int64).tolist(), format_expr(exprs[j])
