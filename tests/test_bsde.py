"""Backward-equation solver: exactness, structure of N, linearity, stability."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsdelta import (
    AdaptedProcess,
    FbsdeSolution,
    Generator,
    IncrementDistribution,
    NonFiniteSolutionError,
    ProbabilityTree,
    bsde_residuals,
    build_residual_system,
    eval_expr,
    is_martingale,
    is_strongly_orthogonal,
    parse_expr,
    solve_bsde,
)
from fbsdelta.cli import parse_scenario

from helpers import (
    combine,
    permute_step,
    rademacher_tree,
    random_dsl_generator,
    random_terminal,
    random_tree,
    spot_check_terminal_independence,
)

EXACT_TOL = 1e-12
RESIDUAL_TOL = 1e-10


def zero_generator(n, d):
    return Generator.pointwise(n=n, d=d, fn=lambda t, y, z, node: np.zeros(n))


def test_zero_driver_gives_conditional_expectations():
    rng = np.random.default_rng(1)
    tree = random_tree(rng, horizon=3, branch_choices=(2, 3), d=1)
    eta = random_terminal(rng, tree, n=2)
    sol = solve_bsde(tree, zero_generator(2, 1), eta)
    expected = eta.at(3)
    for t in (2, 1, 0):
        expected = tree.expect_next(expected, t)
        assert np.abs(sol.Y.at(t) - expected).max() <= EXACT_TOL
    ok, _ = is_martingale(tree, sol.Y)
    assert ok


def test_hand_computed_one_step_instance():
    # T=1, fair two-point noise, driver f(t, y, z) = y, terminal value = the
    # increment itself: the aggregate is 2*dW, so Y_0 = 0, Z_0 = 2, N = 0.
    tree = rademacher_tree(1)
    eta = AdaptedProcess(tree, 1, 1, (tree.steps[0].points[:, :, None],))
    gen = Generator.pointwise(n=1, d=1, fn=lambda t, y, z, node: np.array([y[0]]))
    sol = solve_bsde(tree, gen, eta)
    assert sol.Y.at(0)[0, 0, 0] == pytest.approx(0.0, abs=EXACT_TOL)
    assert sol.Z.at(0)[0, 0, 0] == pytest.approx(2.0, abs=EXACT_TOL)
    assert sol.N.sup_norm() <= EXACT_TOL


def test_defining_equation_residuals_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(10):
        horizon = int(rng.integers(2, 5))
        d = int(rng.integers(1, 3))
        n = int(rng.integers(1, 4))
        tree = random_tree(rng, horizon, (2, 3), d=d)
        gen, _, _ = random_dsl_generator(rng, n, d, horizon)
        eta = random_terminal(rng, tree, n)
        sol = solve_bsde(tree, gen, eta)
        report = bsde_residuals(tree, gen, eta, sol)
        assert report.max <= RESIDUAL_TOL, report


def test_two_point_noise_leaves_no_orthogonal_remainder():
    rng = np.random.default_rng(3)
    for _ in range(5):
        horizon = int(rng.integers(1, 5))
        tree = rademacher_tree(horizon)
        gen, _, _ = random_dsl_generator(rng, n=2, d=1, horizon=horizon)
        eta = random_terminal(rng, tree, n=2)
        sol = solve_bsde(tree, gen, eta)
        assert sol.N.sup_norm() <= EXACT_TOL


def test_three_point_noise_with_squared_increment_needs_n():
    tree = ProbabilityTree([IncrementDistribution.trinomial(1.0 / 6.0)] * 2)
    points = tree.steps[1].points[:, 0]

    def eta_fn(t, node):
        return np.array([[points[node[-1]] ** 2]])

    eta = AdaptedProcess.from_node_function(tree, eta_fn, (1, 1), 2, 2)
    sol = solve_bsde(tree, zero_generator(1, 1), eta)
    assert sol.N.sup_norm() >= 0.1
    ok, residual = is_strongly_orthogonal(tree, sol.N)
    assert ok and residual <= EXACT_TOL
    ok_m, _ = is_martingale(tree, sol.N)
    assert ok_m


def test_linearity_in_terminal_data_for_linear_homogeneous_driver():
    rng = np.random.default_rng(11)
    tree = random_tree(rng, horizon=3, branch_choices=(2, 3), d=2)
    n = 2
    m_y = rng.uniform(-0.4, 0.4, size=(n, n))
    m_z = rng.uniform(-0.4, 0.4, size=(n, n, 2))

    def fn(t, y, z, node):
        if t == tree.horizon:
            return m_y @ y
        return m_y @ y + np.einsum("ijd,jd->i", m_z, z)

    gen = Generator.pointwise(n=n, d=2, fn=fn)
    eta = random_terminal(rng, tree, n)
    sol1 = solve_bsde(tree, gen, eta)
    sol2 = solve_bsde(tree, gen, combine((2.5, eta)))
    assert combine((1.0, sol2.Y), (-2.5, sol1.Y)).sup_norm() <= RESIDUAL_TOL
    assert combine((1.0, sol2.Z), (-2.5, sol1.Z)).sup_norm() <= RESIDUAL_TOL
    assert combine((1.0, sol2.N), (-2.5, sol1.N)).sup_norm() <= RESIDUAL_TOL


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 3))
def test_permuting_a_steps_outcomes_permutes_the_solution(seed, horizon):
    # relabelling one step's outcomes relabels the nodes after it and nothing
    # else; the rows at t = 0 (Y_0 among them) stay where they are
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, horizon, (2, 3))
    gen, _, _ = random_dsl_generator(rng, n=2, d=1, horizon=horizon)
    eta = random_terminal(rng, tree, 2)
    s = int(rng.integers(horizon))
    permuted, move = permute_step(tree, s, rng.permutation(tree.branch_count(s)))
    ours, theirs = solve_bsde(permuted, gen, move(eta)), solve_bsde(tree, gen, eta)
    for name in ("Y", "Z", "N"):
        assert combine((1.0, getattr(ours, name)), (-1.0, move(getattr(theirs, name)))).sup_norm() <= EXACT_TOL, name


def test_stability_under_shrinking_terminal_perturbations():
    rng = np.random.default_rng(19)
    tree = random_tree(rng, horizon=3, branch_choices=(2, 3), d=1)
    gen, _, _ = random_dsl_generator(rng, n=2, d=1, horizon=3)
    eta = random_terminal(rng, tree, n=2)
    bump = random_terminal(rng, tree, n=2, scale=0.5)
    base = solve_bsde(tree, gen, eta)
    diffs = []
    for scale in (1.0, 0.5, 0.25, 0.125):
        sol = solve_bsde(tree, gen, combine((1.0, eta), (scale, bump)))
        diffs.append(combine((1.0, sol.Y), (-1.0, base.Y)).sup_norm())
    for larger, smaller in zip(diffs, diffs[1:]):
        assert smaller <= larger * (1.0 + 1e-9)
    assert diffs[-1] <= 0.5 * diffs[0]


def test_terminal_z_dependence_is_detectable():
    # the solver evaluates the driver with z = 0 at T; sampling catches a
    # driver that reads z there
    tree = rademacher_tree(2)
    gen = Generator.pointwise(n=1, d=1, fn=lambda t, y, z, node: np.array([z[0, 0]]))
    assert spot_check_terminal_independence(tree, Generator(n=1, d=1, fn=gen.fn)) > 0.1
    honest, _, _ = random_dsl_generator(np.random.default_rng(5), 1, 1, 2)
    assert spot_check_terminal_independence(tree, honest) <= EXACT_TOL


def test_dimension_and_domain_validation():
    tree = rademacher_tree(2)
    with pytest.raises(ValueError, match="noise dimension"):
        solve_bsde(tree, zero_generator(1, 2), AdaptedProcess.zeros(tree, (1, 1), 2, 2))
    with pytest.raises(ValueError, match="horizon"):
        solve_bsde(tree, zero_generator(1, 1), AdaptedProcess.zeros(tree, (1, 1), 0, 1))
    with pytest.raises(ValueError, match=r"\(1, 1\)"):
        solve_bsde(tree, zero_generator(1, 1), AdaptedProcess.zeros(tree, (2, 1), 2, 2))


@pytest.mark.parametrize(
    "d, eta_shape, eta_times, match",
    [(2, (1, 1), (2, 2), "noise dimension"), (1, (1, 1), (0, 1), "horizon"), (1, (2, 1), (2, 2), r"\(1, 1\)")],
)
def test_solver_and_oracle_refuse_the_same_backward_data(d, eta_shape, eta_times, match):
    tree = rademacher_tree(2)
    gen, eta = zero_generator(1, d), AdaptedProcess.zeros(tree, eta_shape, *eta_times)
    with pytest.raises(ValueError, match=match) as solver:
        solve_bsde(tree, gen, eta)
    with pytest.raises(ValueError, match=match) as oracle:
        build_residual_system(tree, gen, eta=eta)
    assert str(solver.value) == str(oracle.value)


def test_a_backward_solution_has_no_forward_state():
    tree = rademacher_tree(2)
    sol = solve_bsde(tree, zero_generator(1, 1), random_terminal(np.random.default_rng(2), tree, n=1))
    assert isinstance(sol, FbsdeSolution)
    assert sol.X is None
    assert sol.residual_report is None


# -- slab-level drivers ------------------------------------------------------------

SLAB_DRIVER = ["-0.5*y1 + 0.1*sin(z1) + 0.05*t", "0.2*tanh(y2) - 0.1*z2*y1 + min(y1, 0.3) + exp(-y2^2)"]


@pytest.mark.parametrize("step", ["rademacher", "trinomial(0.25)"])
def test_compiled_cli_driver_matches_a_pointwise_reference(step):
    scenario = parse_scenario(
        {
            "schema_version": 1,
            "kind": "bsde",
            "tree": {"horizon": 5, "step": step},
            "model": {"n": 2, "driver": SLAB_DRIVER, "terminal": [0.0, 0.0]},
        }
    )
    tree, (compiled, _) = scenario.tree, scenario.bsde
    exprs = [parse_expr(text, m=0, n=2) for text in SLAB_DRIVER]
    reference = Generator.pointwise(
        n=2, d=1, fn=lambda t, y, z, node: np.array([eval_expr(e, t=t, y=y, z=z[:, 0]) for e in exprs])
    )
    eta = random_terminal(np.random.default_rng(29), tree, n=2)
    ours, theirs = solve_bsde(tree, compiled, eta), solve_bsde(tree, reference, eta)
    for name in ("Y", "Z", "N"):
        assert combine((1.0, getattr(ours, name)), (-1.0, getattr(theirs, name))).sup_norm() <= 1e-13, name
    assert bsde_residuals(tree, compiled, eta, ours).max <= RESIDUAL_TOL
    if step == "rademacher":
        assert ours.N.sup_norm() <= EXACT_TOL
    else:
        assert ours.N.sup_norm() >= 1e-3  # incomplete tree: N carries the orthogonal part


def test_driver_is_called_once_per_slab():
    rng = np.random.default_rng(31)
    tree = random_tree(rng, horizon=4, branch_choices=(2, 3), d=2)
    gen, _, _ = random_dsl_generator(rng, n=2, d=2, horizon=4)
    calls = []

    def counted_fn(t, y, z, nodes):
        calls.append((t, y.shape, z.shape, len(nodes)))
        return gen.fn(t, y, z, nodes)

    counted = dataclasses.replace(gen, fn=counted_fn)
    eta = random_terminal(rng, tree, n=2)
    sol = solve_bsde(tree, counted, eta)
    assert [call[0] for call in calls] == [4, 3, 2, 1]
    for t, y_shape, z_shape, node_count in calls:
        count = tree.node_count(t)
        assert (y_shape, z_shape, node_count) == ((count, 2), (count, 2, 2), count)
    calls.clear()
    assert bsde_residuals(tree, counted, eta, sol).max <= RESIDUAL_TOL
    assert sorted(call[0] for call in calls) == [1, 2, 3, 4]


def test_non_finite_driver_values_fail_every_check():
    tree = ProbabilityTree([IncrementDistribution.trinomial(0.25)] * 3)
    eta = random_terminal(np.random.default_rng(37), tree, n=1)
    zero = Generator.pointwise(n=1, d=1, fn=lambda t, y, z, node: np.array([0.0]))
    sol = solve_bsde(tree, zero, eta)
    # a tampered copy of a finite solve: one non-finite Y entry and one N entry
    y, n = [slab.copy() for slab in sol.Y.values], [slab.copy() for slab in sol.N.values]
    y[1][2, 0, 0] = n[2][4, 0, 0] = np.nan
    tampered = dataclasses.replace(sol, Y=AdaptedProcess(tree, 0, 3, tuple(y)), N=AdaptedProcess(tree, 0, 3, tuple(n)))
    assert bsde_residuals(tree, zero, eta, tampered).max == np.inf
    assert is_martingale(tree, tampered.N).ok is False
    assert is_martingale(tree, tampered.N).residual == np.inf
    assert is_strongly_orthogonal(tree, tampered.N).ok is False
    assert tampered.Y.sup_norm() == np.inf
    # the solver itself refuses a NaN driver at t = 2, naming Y_1 at the first parent
    gen = Generator.pointwise(n=1, d=1, fn=lambda t, y, z, node: np.array([np.nan if t == 2 else 0.0]))
    with pytest.raises(NonFiniteSolutionError, match=r"^Y_1 is not finite at node \(0,\)$"):
        solve_bsde(tree, gen, eta)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from((2, 3)),
    d=st.sampled_from((1, 2)),
    n=st.integers(1, 2),
    horizon=st.integers(1, 4),
    bad=st.sampled_from((np.nan, np.inf, -np.inf)),
    data=st.data(),
)
def test_a_non_finite_driver_value_is_refused_at_its_parent(seed, k, d, n, horizon, bad, data):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, horizon, branch_choices=(k,), d=d)
    t_bad = data.draw(st.integers(1, horizon))
    node = data.draw(st.integers(0, tree.node_count(t_bad) - 1))
    row = data.draw(st.integers(0, n - 1))

    calls = []

    def fn(t, y, z, nodes):
        calls.append(t)
        out = -0.3 * y
        if t == t_bad:
            out[node, row] = bad
        return out

    parent = tree.nodes(t_bad - 1)[node // tree.branch_count(t_bad - 1)]
    with pytest.raises(NonFiniteSolutionError) as refused:
        solve_bsde(tree, Generator(n, d, fn), random_terminal(rng, tree, n))
    assert str(refused.value) == f"Y_{t_bad - 1} is not finite at node {parent}"
    # the refusal evaluates no driver a second time
    assert calls == list(range(horizon, 0, -1))


def test_overflow_in_the_sweep_is_refused_naming_the_slab():
    tree = rademacher_tree(3)
    eta = AdaptedProcess.constant(tree, np.array([[1e308]]), 3, 3)

    def gen(nan_at):
        return Generator(1, 1, lambda t, y, z, nodes: np.full((len(nodes), 1), np.nan if t == nan_at else 1e308))

    # Y_3 + f overflows at t = 2, before the NaN driver at t = 1 is reached
    with pytest.raises(NonFiniteSolutionError, match=r"Y_2 is not finite at node \(0, 0\)"):
        solve_bsde(tree, gen(nan_at=1), eta)
    # a NaN driver at the horizon comes first, and is refused at its parents
    with pytest.raises(NonFiniteSolutionError, match=r"^Y_2 is not finite at node \(0, 0\)$"):
        solve_bsde(tree, gen(nan_at=3), eta)


@pytest.mark.parametrize(
    "driver",
    [lambda t, y, z, nodes: np.zeros((len(nodes), 1)), lambda t, y, z, nodes: -0.5 * y],
    ids=["zero", "nan-carrying"],
)
def test_non_finite_terminal_data_is_refused_whatever_the_driver(driver):
    # a NaN terminal value reaches Y_2 through the sweep, also when the
    # driver carries it on as NaN
    tree = rademacher_tree(3)
    eta = AdaptedProcess(tree, 3, 3, (np.array([np.nan] + [1.0] * 7).reshape(8, 1, 1),))
    with pytest.raises(NonFiniteSolutionError, match=r"^Y_2 is not finite at node \(0, 0\)$"):
        solve_bsde(tree, Generator(1, 1, driver), eta)


def test_a_large_solve_holds_little_more_than_its_slabs():
    # 2^18 leaves, so the leaf slab is 2 MB.  The traced peak measured 9.0
    # leaf slabs: the returned Y, Z and N (5) plus the sweep's aggregates and
    # temporaries.  It measured 11.0 while the sweep kept every driver slab,
    # and 57 when each time's nodes were built as tuples for the driver.
    horizon = 18
    tree = rademacher_tree(horizon)
    leaves = tree.node_count(horizon)
    gen = Generator(1, 1, lambda t, y, z, nodes: -0.5 * y + 0.1 * np.tanh(z[:, :, 0]))
    eta = AdaptedProcess(tree, horizon, horizon, (np.sin(np.arange(leaves, dtype=float)).reshape(leaves, 1, 1),))
    tracemalloc.start()
    try:
        sol = solve_bsde(tree, gen, eta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(sol.Y.at(0)).all()
    assert peak < 10 * eta.at(horizon).nbytes


def test_an_overflowing_compensator_is_refused_naming_its_node():
    tree = ProbabilityTree([IncrementDistribution.trinomial(0.45)])
    eta = AdaptedProcess(tree, 1, 1, (np.array([-1.7e308, 1.7e308, -1.7e308]).reshape(3, 1, 1),))
    # Y_0 = E[eta] and Z_0 = E[eta dW] = 0 are finite, N_1 = eta - Y_0 - Z_0 dW is not at the middle leaf
    with pytest.raises(NonFiniteSolutionError, match=r"^N_1 is not finite at node \(1,\)$"):
        solve_bsde(tree, zero_generator(1, 1), eta)
