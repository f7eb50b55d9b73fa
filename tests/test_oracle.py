"""Global Newton verification layer: structure, agreement, and failure modes."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsdelta import (
    AdaptedProcess,
    FbsdeSolution,
    Generator,
    LinearCoefficients,
    OracleFailedError,
    ProbabilityTree,
    ResidualSystem,
    anchor_coefficients,
    build_residual_system,
    check_solvability,
    nonlinear_residual,
    riccati_matrices,
    solution_gap,
    solve_bsde,
    solve_continuation,
    solve_global_newton,
    solve_linear,
)
from fbsdelta import oracle
from fbsdelta.oracle import BLOCK_BUDGET, STACK_FLOATS, _factorise, _invert_pivots, _SingularPivot
from helpers import (
    counting_model,
    decoupled_model,
    decoupled_slab_model,
    dense_jacobian,
    mild_coupled_model,
    packed,
    per_column_jacobian,
    pointwise_twin,
    rademacher_tree,
    random_dsl_generator,
    random_increments,
    random_linear_coefficients,
    random_terminal,
    random_tree,
)
from test_linear_fbsde import singular_instance

MATCH_TOL = 1e-8
EQUATION_TOL = 1e-10


def test_system_is_square_with_the_expected_count():
    # T = 1 on a two-point step with one forward and one backward component:
    # two forward unknowns, three backward values, one increment weight.
    tree = rademacher_tree(1)
    coeffs = LinearCoefficients.build(tree, 1, 1, G=[[1.0]], x0=[[0.0]])
    system = build_residual_system(tree, coeffs)
    assert system.size == 6
    assert system.residual(np.zeros(6)).shape == (6,)

    rng = np.random.default_rng(2)
    for _ in range(4):
        T = int(rng.integers(1, 4))
        m, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        tree = random_tree(rng, T)
        coeffs = random_linear_coefficients(rng, tree, m, n)
        system = build_residual_system(tree, coeffs)
        counts = [tree.node_count(t) for t in range(T + 1)]
        expected = m * sum(counts[1:]) + n * sum(counts) + n * sum(counts[:-1])
        assert system.size == expected
        vec = rng.uniform(-1.0, 1.0, size=system.size)
        assert system.residual(vec).shape == (system.size,)
        assert dense_jacobian(system.jacobian(vec)).shape == (system.size, system.size)


def test_oracle_agrees_with_the_linear_solver():
    rng = np.random.default_rng(17)
    for _ in range(3):
        T = int(rng.integers(2, 4))
        m, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        tree = random_tree(rng, T)
        coeffs = random_linear_coefficients(rng, tree, m, n)
        structured = solve_linear(coeffs, tree)
        system = build_residual_system(tree, coeffs)
        # the structured solution is already a root of the stacked equations
        root = packed(tree, structured.X, structured.Y, structured.Z)
        assert np.abs(system.residual(root)).max() <= EQUATION_TOL
        oracle = solve_global_newton(system)
        assert oracle.equation_residual <= EQUATION_TOL
        assert oracle.trace.converged
        assert solution_gap(oracle, structured) <= MATCH_TOL


def test_oracle_agrees_with_the_backward_solver():
    rng = np.random.default_rng(19)
    tree = random_tree(rng, 3)
    gen, _, _ = random_dsl_generator(rng, n=2, d=1, horizon=3)
    eta = random_terminal(rng, tree, 2)
    structured = solve_bsde(tree, gen, eta)
    system = build_residual_system(tree, gen, eta=eta)
    assert system.m == 0
    root = packed(tree, None, structured.Y, structured.Z)
    assert np.abs(system.residual(root)).max() <= EQUATION_TOL
    oracle = solve_global_newton(system)
    assert oracle.X is None
    assert oracle.equation_residual <= EQUATION_TOL
    assert solution_gap(oracle, structured) <= MATCH_TOL


def test_oracle_handles_multidimensional_noise_backward_equations():
    rng = np.random.default_rng(101)
    tree = random_tree(rng, 2, branch_choices=(3, 4), d=2)
    gen, _, _ = random_dsl_generator(rng, n=1, d=2, horizon=2)
    eta = random_terminal(rng, tree, 1)
    structured = solve_bsde(tree, gen, eta)
    oracle = solve_global_newton(build_residual_system(tree, gen, eta=eta))
    assert solution_gap(oracle, structured) <= MATCH_TOL


def test_oracle_solves_a_mild_coupled_model_directly():
    model = mild_coupled_model(m=2, seed=5)
    tree = rademacher_tree(2)
    oracle = solve_global_newton(build_residual_system(tree, model))
    sol = FbsdeSolution(X=oracle.X, Y=oracle.Y, Z=oracle.Z, N=oracle.N)
    assert nonlinear_residual(model, tree, sol).max <= MATCH_TOL


def test_degenerate_instance_yields_a_singular_jacobian():
    # All offset data zero and x0 = 0, so the residual map is purely linear,
    # vanishes at the origin, and its finite-difference Jacobian is exact to
    # rounding error; the degenerate step must show up as a zero direction.
    tree = rademacher_tree(2)
    degenerate = singular_instance(tree)
    system = build_residual_system(tree, degenerate)
    assert np.abs(system.residual(np.zeros(system.size))).max() == 0.0
    jac = dense_jacobian(system.jacobian(np.zeros(system.size)))
    assert np.linalg.svd(jac, compute_uv=False)[-1] <= 1e-10

    solvable = anchor_coefficients(tree, [[1.0]], 1.0, 1.0, [[0.0]])
    reference = build_residual_system(tree, solvable)
    ref_jac = dense_jacobian(reference.jacobian(np.zeros(reference.size)))
    assert np.linalg.svd(ref_jac, compute_uv=False)[-1] > 1e-6


def test_a_singular_step_stops_newton_at_its_pivot_block():
    # criterion 04's singular step with a nonzero start: Gamma_1 is singular,
    # and so is the pivot block of the first node at t = 1
    tree = rademacher_tree(2)
    coeffs = LinearCoefficients.build(tree, 1, 1, G=[[1.0]], x0=[0.5], B=np.array([[[0.0]], [[1.0]]]))
    assert check_solvability(coeffs, tree).failure_t == 1
    message = (
        r"^line search could not reduce the residual below 5\.000e-01: no Newton direction, "
        r"the pivot block at t=1, node \(0,\) is singular or not finite$"
    )
    with pytest.raises(OracleFailedError, match=message) as exc:
        solve_global_newton(build_residual_system(tree, coeffs))
    assert exc.value.trace.message == "line search stalled"
    assert exc.value.trace.jacobians == 1


@pytest.mark.parametrize(
    "pivots",
    [[2.0, 1e-320], [2.0, 1e-320, 0.0], [2.0, 0.0, 1e-320]],
    ids=["inverse-inf", "inf-before-singular", "singular-before-inf"],
)
def test_a_failed_pivot_is_named_by_the_first_block_that_fails_on_its_own(pivots):
    # 1 / 1e-320 overflows to inf; a zero block makes the batched inversion
    # raise, so the last two fail in the batch and the first after it
    with pytest.raises(_SingularPivot) as exc:
        _invert_pivots(np.array(pivots)[:, None, None], 3)
    assert exc.value.args == (3, 1)


def test_newton_reports_failure_with_trace(monkeypatch):
    model = mild_coupled_model(m=1, seed=8)
    tree = rademacher_tree(2)
    system = build_residual_system(tree, model)
    monkeypatch.setattr("fbsdelta.oracle.NEWTON_MAX_ITERS", 1)
    with pytest.raises(OracleFailedError, match="no convergence within 1 iterations") as exc:
        solve_global_newton(system)
    trace = exc.value.trace
    assert not trace.converged
    assert len(trace.residual_norms) == 2
    assert trace.message == "iteration limit reached"


def test_a_linear_system_converges_with_one_jacobian():
    rng = np.random.default_rng(23)
    for _ in range(3):
        tree = random_tree(rng, int(rng.integers(2, 5)))
        coeffs = random_linear_coefficients(rng, tree, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        oracle = solve_global_newton(build_residual_system(tree, coeffs))
        assert oracle.trace.converged
        assert oracle.trace.jacobians == 1
        assert solution_gap(oracle, solve_linear(coeffs, tree)) <= MATCH_TOL


def test_newton_keeps_its_jacobian_while_it_contracts(monkeypatch):
    # a chord step solves with the kept factors: one factorisation per Jacobian
    factorised = []

    def counted(blocks):
        factorised.append(1)
        return _factorise(blocks)

    monkeypatch.setattr("fbsdelta.oracle._factorise", counted)
    system = build_residual_system(rademacher_tree(4), mild_coupled_model(m=2, seed=203, eps=2))
    oracle = solve_global_newton(system)
    assert oracle.trace.converged
    assert oracle.equation_residual <= EQUATION_TOL
    assert oracle.trace.jacobians < oracle.trace.iterations
    assert len(factorised) == oracle.trace.jacobians


def test_a_stiff_model_still_fails_its_line_search_on_a_fresh_jacobian():
    system = build_residual_system(rademacher_tree(4), mild_coupled_model(m=2, seed=201, eps=2))
    message = r"^line search could not reduce the residual below 5\.538e-01$"
    with pytest.raises(OracleFailedError, match=message) as exc:
        solve_global_newton(system)
    assert exc.value.trace.message == "line search stalled"


def one_trial_at_a_time(system, vec, res, sup, direction, tries):
    """The backtracking line search with one residual evaluation per trial."""
    scaled = res / sup
    phi0 = float(scaled @ scaled)
    s = 1.0
    for _ in range(tries):
        trial = vec + s * direction
        trial_res = system.residual(trial)
        trial_scaled = trial_res / sup
        if float(trial_scaled @ trial_scaled) <= (1.0 - 2.0 * oracle.ARMIJO_SLOPE * s) * phi0:
            return s, trial, trial_res
        s *= 0.5
    return None


@pytest.mark.parametrize("per_stack", [None, 1, 4])
def test_the_line_search_stacks_its_halvings_in_growing_chunks_and_takes_the_first_trial_that_passes(monkeypatch, per_stack):
    # seed 201 takes damped steps from 1/2 down to 2^-25 and then stalls
    system = build_residual_system(rademacher_tree(4), mild_coupled_model(m=2, seed=201, eps=2))
    if per_stack is not None:
        monkeypatch.setattr(oracle, "STACK_FLOATS", per_stack * system.size)
    chunk = oracle.STACK_FLOATS // system.size
    calls = counted_residuals(monkeypatch)
    line_search, found_steps = oracle._line_search, []

    def compared(system, vec, res, sup, direction, tries):
        first = len(calls)
        found = line_search(system, vec, res, sup, direction, tries)
        stacks = calls[first:]
        expected = one_trial_at_a_time(system, vec, res, sup, direction, tries)
        del calls[first + len(stacks) :]
        last = tries - 1 if expected is None else round(-math.log2(expected[0]))
        widths, lo, width = [], 0, 1
        while lo <= last:
            widths.append(min(width, tries - lo))
            lo, width = lo + width, min(2 * width, chunk)
        assert stacks == widths
        if expected is None:
            assert found is None
        else:
            assert found[0] == expected[0]
            assert found[1].tobytes() == expected[1].tobytes() and found[2].tobytes() == expected[2].tobytes()
        found_steps.append(None if found is None else found[0])
        return found

    monkeypatch.setattr(oracle, "_line_search", compared)
    with pytest.raises(OracleFailedError, match=r"^line search could not reduce the residual below 5\.538e-01$"):
        solve_global_newton(system)
    assert found_steps[-1] is None and 1.0 in found_steps and min(filter(None, found_steps)) == 2.0**-25


def test_systems_past_the_block_budget_are_refused_before_anything_is_allocated():
    # m = n = 1 on a binary tree of horizon T has 5 * 2^T - 4 unknowns; its
    # Jacobian holds 12 colour differences per unknown plus the node blocks
    fits = rademacher_tree(17)
    assert build_residual_system(fits, LinearCoefficients.build(fits, 1, 1, G=[[1.0]], x0=[[0.0]])).size == 655356
    tree = rademacher_tree(18)
    coeffs = LinearCoefficients.build(tree, 1, 1, G=[[1.0]], x0=[[0.0]])
    tracemalloc.start()
    try:
        message = r"^the oracle's Jacobian for 1310716 unknowns would hold 27000722 floats \(2\.160e\+08 bytes\)"
        with pytest.raises(OracleFailedError, match=message + rf", over the budget of {BLOCK_BUDGET}$"):
            build_residual_system(tree, coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_dispatch_and_input_validation():
    tree = rademacher_tree(2)
    with pytest.raises(TypeError, match="no residual system"):
        build_residual_system(tree, object())
    rng = np.random.default_rng(1)
    gen, _, _ = random_dsl_generator(rng, n=1, d=1, horizon=2)
    with pytest.raises(ValueError, match="terminal data"):
        build_residual_system(tree, gen)
    coeffs = LinearCoefficients.build(tree, 1, 1, G=[[1.0]], x0=[[0.0]])
    with pytest.raises(ValueError, match="horizon"):
        build_residual_system(rademacher_tree(3), coeffs)
    system = build_residual_system(tree, coeffs)
    with pytest.raises(ValueError, match="flat vector"):
        system.residual(np.zeros(system.size + 1))


@pytest.mark.parametrize("name", ["mild", "decoupled"])
def test_slab_and_pointwise_models_give_the_same_residual_map(name):
    if name == "mild":
        slab = mild_coupled_model(m=2, seed=5)
        pointwise, tree = pointwise_twin(slab), rademacher_tree(3)
    else:
        slab, pointwise = decoupled_slab_model(seed=9), decoupled_model(seed=9)
        tree = random_tree(np.random.default_rng(13), 3)
    ours, theirs = build_residual_system(tree, slab), build_residual_system(tree, pointwise)
    rng = np.random.default_rng(29)
    for _ in range(5):
        vec = rng.uniform(-1.0, 1.0, size=ours.size)
        assert np.abs(ours.residual(vec) - theirs.residual(vec)).max() <= 1e-13


def test_oracle_residual_calls_the_model_once_per_slab():
    model, calls = counting_model(mild_coupled_model(m=2, seed=5))
    tree = rademacher_tree(3)
    system = build_residual_system(tree, model)
    system.residual(np.zeros(system.size))
    assert calls == {"b": 3, "sigma": 3, "f": 3, "h": 1}


# -- the coloured Jacobian ---------------------------------------------------------

_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def slab_generator(rng: np.random.Generator, n: int, d: int) -> Generator:
    a = rng.uniform(-0.5, 0.5, size=(n, n))
    b = rng.uniform(-0.5, 0.5, size=(n, n * d))
    c = rng.uniform(-0.5, 0.5, size=n)
    return Generator(n, d, lambda t, y, z, nodes: np.tanh(y @ a.T) + np.sin(z.reshape(len(nodes), -1) @ b.T) + c)


@st.composite
def residual_systems(draw) -> ResidualSystem:
    """A linear, nonlinear or plain backward system on a random tree."""
    kind = draw(st.sampled_from(("linear", "nonlinear", "bsde")))
    d = draw(st.sampled_from((1, 2))) if kind == "bsde" else 1
    branches = draw(st.lists(st.integers(d + 1 if d > 1 else 2, 4), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tree = ProbabilityTree([random_increments(rng, k, d) for k in branches])
    if kind == "linear":
        m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        return build_residual_system(tree, random_linear_coefficients(rng, tree, m, n))
    if kind == "nonlinear":
        return build_residual_system(tree, mild_coupled_model(m=draw(st.integers(1, 2)), seed=int(rng.integers(100))))
    n = draw(st.integers(1, 2))
    return build_residual_system(tree, slab_generator(rng, n, d), eta=random_terminal(rng, tree, n))


@_PROPERTY
@given(system=residual_systems(), seed=st.integers(0, 2**32 - 1))
def test_coloured_jacobian_equals_the_per_column_reference(system, seed):
    vec = np.random.default_rng(seed).uniform(-1.0, 1.0, size=system.size)
    assert np.array_equal(dense_jacobian(system.jacobian(vec)), per_column_jacobian(system, vec))


@_PROPERTY
@given(system=residual_systems(), seed=st.integers(0, 2**32 - 1))
def test_the_block_elimination_direction_equals_the_dense_solve(system, seed):
    vec = np.random.default_rng(seed).uniform(-1.0, 1.0, size=system.size)
    res = system.residual(vec)
    blocks = system.jacobian(vec, _base=res)
    dense = np.linalg.solve(dense_jacobian(blocks), -res)
    assert np.abs(_factorise(blocks).solve(-res) - dense).max() <= 1e-12 * np.abs(dense).max()


@_PROPERTY
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 3), m=st.integers(1, 2), n=st.integers(1, 2))
def test_the_jacobian_determinant_is_the_product_of_the_gamma_determinants(seed, horizon, m, n):
    # log|det J(0)| = sum_t N_t log|det Gamma_t|: the oracle, which never forms
    # a Gamma_t, witnesses the solvability verdict; 1e-6 is above the
    # finite-difference step's error
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, horizon, (2, 3))
    coeffs = random_linear_coefficients(rng, tree, m, n, scale=1.5)
    system = build_residual_system(tree, coeffs)
    sign, logdet = np.linalg.slogdet(dense_jacobian(system.jacobian(np.zeros(system.size))))
    gammas = riccati_matrices(coeffs).gammas
    expected = sum(tree.node_count(t) * np.linalg.slogdet(gammas[t])[1] for t in range(horizon))
    assert sign != 0.0 and abs(logdet - expected) <= 1e-6


@_PROPERTY
@given(system=residual_systems(), seed=st.integers(0, 2**32 - 1))
def test_unpack_returns_the_packed_slabs_as_views(system, seed):
    tree, m, n = system.tree, system.m, system.n
    T, d = tree.horizon, tree.d
    counts = [tree.node_count(t) for t in range(T + 1)]
    assert system.size == m * sum(counts[1:]) + n * sum(counts) + n * d * sum(counts[:-1])
    rng = np.random.default_rng(seed)

    def process(shape, t_hi):
        return AdaptedProcess(tree, 0, t_hi, tuple(rng.uniform(-1.0, 1.0, (counts[t],) + shape) for t in range(t_hi + 1)))

    x, y, z = process((m, 1), T) if m else None, process((n, 1), T), process((n, d), T - 1)
    vec = packed(tree, x, y, z)
    assert vec.shape == (system.size,)
    xs, ys, zs = system.unpack(vec)
    assert len(xs) == len(ys) == T + 1 and len(zs) == T
    assert np.array_equal(xs[0], system.problem.x0[None])
    for t in range(T + 1):
        assert xs[t].shape == (counts[t], m, 1)
        assert np.array_equal(ys[t], y.at(t)) and np.shares_memory(ys[t], vec)
        if m and t > 0:
            assert np.array_equal(xs[t], x.at(t)) and np.shares_memory(xs[t], vec)
        if t < T:
            assert np.array_equal(zs[t], z.at(t)) and np.shares_memory(zs[t], vec)
    # a stack of three distinct vectors: each slab holds the three vectors'
    # slabs one after another, and F of the stack is F of each vector
    stack = np.stack([vec, *rng.uniform(-1.0, 1.0, (2, system.size))])
    singles = [system.unpack(row) for row in stack]
    for slabs, parts in zip(system.unpack(stack), zip(*singles), strict=True):
        for t, slab in enumerate(slabs):
            assert np.array_equal(slab, np.concatenate([part[t] for part in parts]))
    residuals = system.residual(stack)
    assert residuals.shape == stack.shape
    for row, residual in zip(stack, residuals):
        assert np.array_equal(residual, system.residual(row))


def colour_count(tree: ProbabilityTree, m: int, n: int) -> int:
    """Distinct (node colour, block, component) over all unknowns, where the
    root's node colour is 0 and the children of a node coloured c, whose
    parent is coloured p, take in sibling order the colours outside {c, p}."""
    T = tree.horizon
    k_max = max(tree.branch_count(t) for t in range(T))
    node_colour, parent_colour = {(): 0}, {(): 0}
    colours = set()
    for t in range(T + 1):
        blocks = ([("X", m)] if t > 0 else []) + [("Y", n)] + ([("Z", n * tree.d)] if t < T else [])
        for node in tree.nodes(t):
            if node:
                parent = node[:-1]
                free = [q for q in range(k_max + 2) if q not in (node_colour[parent], parent_colour[parent])]
                node_colour[node], parent_colour[node] = free[node[-1]], node_colour[parent]
            for block, width in blocks:
                colours.update((node_colour[node], block, i) for i in range(width))
    return len(colours)


def test_jacobian_calls_each_model_map_once_per_slab_whatever_the_horizon():
    # within STACK_FLOATS every colour's bumped vector goes into one stacked
    # evaluation, so each map is called once per time, however many colours
    for T in (3, 4, 8):
        model, calls = counting_model(mild_coupled_model(m=1, seed=5))
        system = build_residual_system(rademacher_tree(T), model)
        # (K_max + 2) = 4 node colours x (X, Y, Z)
        assert len(system._colouring[0]) == colour_count(system.tree, 1, 1) == 12
        assert 12 * system.size <= STACK_FLOATS
        vec = np.random.default_rng(T).uniform(-1.0, 1.0, size=system.size)
        base = system.residual(vec)
        calls.clear()
        system.jacobian(vec, _base=base)
        assert calls == {"b": T, "sigma": T, "f": T, "h": 1}


def counted_residuals(monkeypatch) -> list:
    """The stacks (one row per vector) that ResidualSystem.residual is called on."""
    calls = []
    residual = ResidualSystem.residual

    def counted(self, vec):
        calls.append(np.atleast_2d(vec).shape[0])
        return residual(self, vec)

    monkeypatch.setattr(ResidualSystem, "residual", counted)
    return calls


@pytest.mark.parametrize("per_chunk", [1, 5, 11, 12, 15])
def test_past_the_stack_bound_the_jacobian_takes_one_evaluation_per_chunk(monkeypatch, per_chunk):
    rng = np.random.default_rng(31)
    for tree in (rademacher_tree(4), ProbabilityTree([random_increments(rng, k, 1) for k in (2, 3, 2)])):
        system = build_residual_system(tree, random_linear_coefficients(rng, tree, 1, 1))
        colours = colour_count(tree, 1, 1)  # 12 on the binary tree, 15 for K_max = 3
        vec = rng.uniform(-1.0, 1.0, size=system.size)
        base = system.residual(vec)
        whole = system.jacobian(vec, _base=base)
        monkeypatch.setattr(oracle, "STACK_FLOATS", (per_chunk + 1) * system.size - 1)
        calls = counted_residuals(monkeypatch)
        chunked = system.jacobian(vec, _base=base)
        monkeypatch.undo()
        sizes = [min(per_chunk, colours - first) for first in range(0, colours, per_chunk)]
        assert calls == sizes and len(calls) == math.ceil(colours / per_chunk)
        for name in ("diagonal", "parent", "child"):
            for a, b in zip(getattr(whole, name), getattr(chunked, name), strict=True):
                assert (a is None and b is None) or np.array_equal(a, b)


def traced(run):
    """What calling ``run`` returns, and the tracemalloc peak of the call in bytes."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_largest_jacobian_keeps_one_colour_per_evaluation_and_its_peak():
    # 163,836 unknowns: a chunk of one colour, as with one evaluation per
    # colour (a 27.6 MiB peak, measured; stacking all 12 colours at once
    # peaks at 88.5 MiB).  Building the colouring peaks at 9.9 MiB; a table of
    # every block entry's position would take it to 32.9 MiB and a Jacobian
    # to 37.8 MiB
    tree = rademacher_tree(15)
    system = build_residual_system(tree, random_linear_coefficients(np.random.default_rng(43), tree, 1, 1))
    assert system.size == 163836 and STACK_FLOATS < 2 * system.size
    vec = np.random.default_rng(1).uniform(-1.0, 1.0, size=system.size)
    base = system.residual(vec)
    # built once per system, and not part of a Jacobian's peak
    assert traced(lambda: system._colouring)[1] < 1.05 * 9.9 * 2**20
    assert traced(lambda: system.jacobian(vec, _base=base))[1] < 1.05 * 27.6 * 2**20


def test_colouring_a_wide_step_takes_memory_linear_in_its_outcomes():
    # one step of 300 outcomes: every unknown shares a row with the root's,
    # so each takes a colour of its own, and the colouring stays small
    rng = np.random.default_rng(37)
    tree = ProbabilityTree([random_increments(rng, 300, 1)])
    system = build_residual_system(tree, random_linear_coefficients(rng, tree, 1, 1))
    (groups, _, _), peak = traced(lambda: system._colouring)
    assert len(groups) == system.size == 602
    assert peak < 2**20
    vec = rng.uniform(-1.0, 1.0, size=system.size)
    assert np.array_equal(dense_jacobian(system.jacobian(vec)), per_column_jacobian(system, vec))


def test_oracle_agrees_with_the_linear_solver_beyond_a_thousand_unknowns():
    started = time.perf_counter()
    tree = rademacher_tree(15)
    coeffs = random_linear_coefficients(np.random.default_rng(43), tree, 1, 1)
    system = build_residual_system(tree, coeffs)
    assert system.size == 163836
    # the colouring, one Jacobian and its factorisation: 33.9 MiB, measured
    # (a table of every block entry's position would take it to 46.9 MiB)
    oracle, peak = traced(lambda: solve_global_newton(system))
    assert peak < 1.05 * 33.9 * 2**20
    assert oracle.trace.converged
    assert oracle.equation_residual <= EQUATION_TOL
    assert solution_gap(oracle, solve_linear(coeffs, tree)) <= MATCH_TOL
    assert time.perf_counter() - started < 10.0


def test_oracle_agrees_with_the_continuation_beyond_eight_thousand_unknowns():
    model, tree = mild_coupled_model(m=2, seed=5), rademacher_tree(10)
    system = build_residual_system(tree, model)
    assert system.size == 10232
    oracle = solve_global_newton(system)
    assert oracle.equation_residual <= EQUATION_TOL
    assert solution_gap(oracle, solve_continuation(model, tree).solution) <= 1e-6
