"""Continuation solver, monotonicity checker, and the duality identity."""

import math

import numpy as np
import pytest

from fbsdelta import (
    AdaptedProcess,
    ContinuationConfig,
    ContinuationFailedError,
    FbsdeSolution,
    Generator,
    NonlinearModel,
    ProcessTriple,
    anchor_coefficients,
    build_residual_system,
    check_monotone,
    duality_gap,
    homotopy_coefficients,
    nonlinear_residual,
    solution_gap,
    solve_bsde,
    solve_continuation,
    solve_global_newton,
    solve_linear,
    weighted_distance,
)
from helpers import (
    decoupled_model,
    make_anchor_model,
    mild_coupled_model,
    rademacher_tree,
    random_linear_coefficients,
    random_offsets,
    random_tree,
)

GAP_TOL = 1e-9
ORACLE_TOL = 1e-8


# -- continuation ------------------------------------------------------------


def test_anchor_model_reproduces_the_linear_solution():
    rng = np.random.default_rng(3)
    tree = random_tree(rng, 3)
    G = np.array([[1.0, 0.3], [-0.2, 0.9]])
    model, coeffs = make_anchor_model(
        tree, G, beta1=1.0, beta2=1.0, x0=[[0.4], [-0.2]],
        b_const=[0.3, -0.1], s_const=[-0.2, 0.05], f_const=[0.1, 0.2], g_const=[0.25, -0.3],
    )
    result = solve_continuation(model, tree)
    linear = solve_linear(coeffs, tree)
    assert solution_gap(result.solution, linear) <= GAP_TOL
    assert result.solution.residual_report.max <= GAP_TOL
    # constant interpolation offsets: every stage settles in two sweeps
    assert result.trace.grid == (0.0, 0.5, 1.0)
    assert all(stage.accepted and stage.iterations <= 2 for stage in result.trace.stages)

    # the frozen-coefficient family at midlevel equals the base system with
    # half the offsets, whatever triple the nonlinearity is frozen at
    frozen = ProcessTriple.from_solution(result.solution)
    mid = homotopy_coefficients(model, tree, 0.5, frozen)
    direct = anchor_coefficients(
        tree, G, 1.0, 1.0, [[0.4], [-0.2]],
        D=0.5 * np.array([[0.3], [-0.1]]), Dbar=0.5 * np.array([[-0.2], [0.05]]),
        Dhat=-0.5 * np.array([[0.1], [0.2]]), g=0.5 * np.array([[0.25], [-0.3]]),
    )
    assert solution_gap(solve_linear(mid, tree), solve_linear(direct, tree)) <= GAP_TOL


def test_decoupled_model_matches_forward_then_backward_solve():
    model = decoupled_model(seed=9)
    rng = np.random.default_rng(13)
    tree = random_tree(rng, 3)
    result = solve_continuation(model, tree)

    zero = np.zeros((model.n, 1))
    x_slabs = [model.x0[None, :, :]]
    for t in range(tree.horizon):
        k = tree.branch_count(t)
        points = tree.steps[t].points[:, 0]
        x_t = x_slabs[t]
        drift = np.empty_like(x_t)
        vol = np.empty_like(x_t)
        for i, node in enumerate(tree.nodes(t)):
            drift[i] = model.drift(t, x_t[i], zero, zero, node)
            vol[i] = model.noise_loading(t, x_t[i], zero, zero, node)
        children = (x_t + drift)[:, None, :, :] + vol[:, None, :, :] * points[None, :, None, None]
        x_slabs.append(children.reshape(tree.node_count(t + 1), model.m, 1))
    x_path = AdaptedProcess(tree, 0, tree.horizon, tuple(x_slabs))
    assert (result.solution.X - x_path).sup_norm() <= GAP_TOL

    gen = Generator.pointwise(
        n=model.n,
        d=1,
        fn=lambda t, y, z, node: model.driver(
            t, x_path.value(t, node), y.reshape(-1, 1), z.reshape(-1, 1), node
        )[:, 0],
    )
    eta_vals = np.empty((tree.node_count(tree.horizon), model.n, 1))
    for i, node in enumerate(tree.nodes(tree.horizon)):
        eta_vals[i] = model.terminal(x_path.value(tree.horizon, node), node)
    eta = AdaptedProcess(tree, tree.horizon, tree.horizon, (eta_vals,))
    backward = solve_bsde(tree, gen, eta)
    assert solution_gap(result.solution, backward) <= GAP_TOL


def test_mild_coupled_model_matches_the_oracle():
    model = mild_coupled_model(m=2, seed=5)
    tree = rademacher_tree(2)
    result = solve_continuation(model, tree)
    assert result.solution.residual_report.max <= GAP_TOL
    oracle = solve_global_newton(build_residual_system(tree, model))
    assert solution_gap(result.solution, oracle) <= ORACLE_TOL


def test_cold_start_reaches_the_same_solution():
    model = mild_coupled_model(m=1, seed=8)
    tree = rademacher_tree(3)
    warm = solve_continuation(model, tree, ContinuationConfig(picard_start="warm"))
    cold = solve_continuation(model, tree, ContinuationConfig(picard_start="zero"))
    assert solution_gap(warm.solution, cold.solution) <= ORACLE_TOL


def test_fine_ladder_agrees_with_the_default_ladder():
    model = mild_coupled_model(m=1, seed=4)
    tree = rademacher_tree(3)
    coarse = solve_continuation(model, tree)
    fine = solve_continuation(model, tree, ContinuationConfig(delta_init=0.1))
    assert len(fine.trace.grid) == 11
    assert all(stage.accepted for stage in fine.trace.stages)
    assert solution_gap(coarse.solution, fine.solution) <= ORACLE_TOL


def test_single_stage_ladder_for_a_mild_model():
    model = mild_coupled_model(m=1, seed=6)
    tree = rademacher_tree(2)
    result = solve_continuation(model, tree, ContinuationConfig(delta_init=1.0))
    assert result.trace.grid == (0.0, 1.0)
    assert result.solution.residual_report.max <= GAP_TOL


def test_stalled_stages_halve_until_the_floor_and_fail():
    model = mild_coupled_model(m=1, seed=8)
    tree = rademacher_tree(2)
    config = ContinuationConfig(picard_max_iters=1, delta_init=0.5, delta_min=0.05)
    with pytest.raises(ContinuationFailedError, match="stalled") as exc:
        solve_continuation(model, tree, config)
    assert exc.value.alpha == 0.0
    trace = exc.value.trace
    assert trace is not None
    assert all(not stage.accepted for stage in trace.stages)
    deltas = [stage.delta for stage in trace.stages]
    assert deltas == sorted(deltas, reverse=True)


def test_tampered_solution_is_flagged_by_the_residual_report():
    model = mild_coupled_model(m=1, seed=5)
    tree = rademacher_tree(2)
    sol = solve_continuation(model, tree).solution
    bump = AdaptedProcess.constant(tree, np.array([[0.01]]), 0, tree.horizon)
    tampered = FbsdeSolution(X=sol.X, Y=sol.Y + bump, Z=sol.Z, N=sol.N)
    report = nonlinear_residual(model, tree, tampered)
    assert report.terminal >= 1e-3 or report.y_projection >= 1e-3
    assert report.max >= 1e-3


def test_continuation_config_validation():
    with pytest.raises(ValueError, match="delta_min"):
        ContinuationConfig(delta_init=0.5, delta_min=0.7)
    with pytest.raises(ValueError, match="positive"):
        ContinuationConfig(picard_tol=0.0)
    with pytest.raises(ValueError, match="picard_start"):
        ContinuationConfig(picard_start="hot")


def test_weighted_distance_convention():
    # interior times count all three components, the horizon only (x, y)
    tree = rademacher_tree(1)
    a = ProcessTriple(
        x=AdaptedProcess.constant(tree, np.array([[2.0]]), 0, 1),
        y=AdaptedProcess.constant(tree, np.array([[2.0]]), 0, 1),
        z=AdaptedProcess.constant(tree, np.array([[2.0]]), 0, 0),
    )
    b = ProcessTriple.zeros(tree, 1, 1)
    assert weighted_distance(tree, a, b) == pytest.approx(math.sqrt(20.0), abs=1e-12)
    assert weighted_distance(tree, a, a) == 0.0


# -- monotonicity -------------------------------------------------------------


def test_anchor_model_has_zero_coupling_slack():
    tree = rademacher_tree(3)
    G = np.array([[1.1, 0.2], [-0.3, 0.9]])
    model, _ = make_anchor_model(tree, G, beta1=0.8, beta2=1.2, x0=np.zeros((2, 1)), g_const=[0.3, 0.1])
    report = check_monotone(model, tree, samples=100, seed=1, tol=1e-12)
    assert report.ok
    assert report.worst_coupling_slack <= 1e-12
    assert report.worst_terminal_slack <= 1e-12


def test_mild_coupled_model_stays_dissipative():
    # the tanh perturbations eat part of the base family's margin: the model
    # keeps a quarter of the declared margins but not the full ones
    model = mild_coupled_model(m=2, seed=5)
    tree = rademacher_tree(2)
    kept = check_monotone(model, tree, samples=2000, seed=3, beta1=0.25, beta2=0.25)
    assert kept.ok
    assert kept.worst_coupling_slack <= 0.0
    assert kept.worst_terminal_slack <= 0.0
    strict = check_monotone(model, tree, samples=2000, seed=3)
    assert not strict.ok
    with pytest.raises(ValueError, match="nonnegative"):
        check_monotone(model, tree, beta1=-1.0)


def test_wrong_sign_driver_fails_the_monotonicity_check():
    tree = rademacher_tree(2)
    model = NonlinearModel(
        m=1, n=1, G=np.array([[1.0]]), beta1=1.0, beta2=1.0, x0=np.array([[0.0]]),
        f=lambda t, x, y, z, node: -2.0 * x,
    )
    report = check_monotone(model, tree, samples=50, seed=0)
    assert not report.ok
    assert report.worst_coupling_slack >= 1.0


# -- duality -------------------------------------------------------------------


def test_duality_identity_for_linear_offset_variations():
    rng = np.random.default_rng(21)
    tree = random_tree(rng, 3)
    coeffs = random_linear_coefficients(rng, tree, 2, 2, with_offsets=False)
    first = coeffs.with_inhomogeneous(**random_offsets(rng, tree, 2, 2))
    second = coeffs.with_inhomogeneous(**random_offsets(rng, tree, 2, 2))
    sol_a, sol_b = solve_linear(first, tree), solve_linear(second, tree)
    report = duality_gap(tree, first, sol_a, second, sol_b)
    assert report.gap <= 1e-10
    assert abs(report.lhs) > 1e-6  # the identity is not trivially zero here


def test_duality_identity_for_nonlinear_models():
    tree = rademacher_tree(3)
    model_a = mild_coupled_model(m=2, seed=5)
    model_b = mild_coupled_model(m=2, seed=5, shift=0.3, x0_bump=0.2)
    sol_a = solve_continuation(model_a, tree).solution
    sol_b = solve_continuation(model_b, tree).solution
    report = duality_gap(tree, model_a, sol_a, model_b, sol_b)
    assert report.gap <= ORACLE_TOL
    assert abs(report.lhs) > 1e-6


def test_duality_requires_a_shared_terminal_coupling():
    tree = rademacher_tree(2)
    model_a = mild_coupled_model(m=1, seed=5)
    model_b = mild_coupled_model(m=1, seed=6)
    sol = solve_continuation(model_a, tree).solution
    with pytest.raises(ValueError, match="shared terminal coupling"):
        duality_gap(tree, model_a, sol, model_b, sol)
