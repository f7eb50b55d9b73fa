"""Continuation solver, monotonicity checker, the duality identity, and the
slab contract of nonlinear models."""

import dataclasses
import functools
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsdelta import (
    AdaptedProcess,
    ContinuationConfig,
    ContinuationFailedError,
    FbsdeSolution,
    Generator,
    IncrementDistribution,
    LinearCoefficients,
    NonFiniteSolutionError,
    NonlinearModel,
    ProbabilityTree,
    anchor_coefficients,
    build_residual_system,
    check_monotone,
    duality_gap,
    linear_residual,
    nonlinear_residual,
    riccati_matrices,
    solution_gap,
    solve_bsde,
    solve_continuation,
    solve_global_newton,
    solve_linear,
)
from fbsdelta.bsde import build_solution
from fbsdelta.linear_fbsde import _solve_linear
from fbsdelta.nonlinear_fbsde import FAST_STAGE, _flatten, _homotopy_offsets, _node_weights, _secant
from helpers import (
    combine,
    counting_model,
    decoupled_model,
    decoupled_slab_model,
    make_anchor_model,
    mild_coupled_model,
    pointwise_twin,
    rademacher_tree,
    random_linear_coefficients,
    random_offsets,
    random_tree,
)

GAP_TOL = 1e-9
ORACLE_TOL = 1e-8


def slab_lists(sol) -> tuple:
    return sol.X.values, sol.Y.values, sol.Z.values


def frozen_level(model, tree, alpha: float, frozen) -> tuple:
    """X, Y and Z slabs of the level-``alpha`` member of the interpolation
    family with its nonlinearity frozen at the solution ``frozen``, solved as
    the continuation solves it: the anchor system plus alpha times the
    frozen offsets."""
    anchor = anchor_coefficients(tree, model.G, model.beta1, model.beta2, model.x0)
    offsets = _homotopy_offsets(model, tree, slab_lists(frozen), alpha)
    return _solve_linear(anchor, riccati_matrices(anchor), tree, offsets)[1]


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
    mid = frozen_level(model, tree, 0.5, result.solution)
    direct = solve_linear(
        anchor_coefficients(
            tree, G, 1.0, 1.0, [[0.4], [-0.2]],
            D=0.5 * np.array([[0.3], [-0.1]]), Dbar=0.5 * np.array([[-0.2], [0.05]]),
            Dhat=-0.5 * np.array([[0.1], [0.2]]), g=0.5 * np.array([[0.25], [-0.3]]),
        ),
        tree,
    )
    gaps = [np.abs(a - b).max() for ours, theirs in zip(mid, slab_lists(direct)) for a, b in zip(ours, theirs)]
    assert max(gaps) <= GAP_TOL


def test_decoupled_model_matches_forward_then_backward_solve():
    model = decoupled_model(seed=9)
    rng = np.random.default_rng(13)
    tree = random_tree(rng, 3)
    result = solve_continuation(model, tree)

    x_slabs = [model.x0[None, :, :]]
    for t in range(tree.horizon):
        k = tree.branch_count(t)
        points = tree.steps[t].points[:, 0]
        x_t = x_slabs[t]
        zero = np.zeros((x_t.shape[0], model.n, 1))
        drift = model.drift(t, x_t, zero, zero, tree.nodes(t))
        vol = model.noise_loading(t, x_t, zero, zero, tree.nodes(t))
        children = (x_t + drift)[:, None, :, :] + vol[:, None, :, :] * points[None, :, None, None]
        x_slabs.append(children.reshape(tree.node_count(t + 1), model.m, 1))
    x_path = AdaptedProcess(tree, 0, tree.horizon, tuple(x_slabs))
    assert combine((1.0, result.solution.X), (-1.0, x_path)).sup_norm() <= GAP_TOL

    gen = Generator(
        n=model.n,
        d=1,
        fn=lambda t, y, z, nodes: model.driver(t, x_path.at(t), y[:, :, None], z, nodes)[:, :, 0],
    )
    eta_vals = model.terminal(x_path.at(tree.horizon), tree.nodes(tree.horizon))
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


def test_fine_ladder_agrees_with_the_default_ladder():
    model = mild_coupled_model(m=1, seed=4)
    tree = rademacher_tree(3)
    coarse = solve_continuation(model, tree)
    fine = solve_continuation(model, tree, ContinuationConfig(delta_init=0.1))
    # every stepping stone takes 3 iterations, so the step doubles after each
    assert fine.trace.grid == pytest.approx((0.0, 0.1, 0.3, 0.7, 1.0), rel=0, abs=1e-15)
    assert all(stage.accepted for stage in fine.trace.stages)
    assert solution_gap(coarse.solution, fine.solution) <= ORACLE_TOL


def test_single_stage_ladder_for_a_mild_model():
    model = mild_coupled_model(m=1, seed=6)
    tree = rademacher_tree(2)
    result = solve_continuation(model, tree, ContinuationConfig(delta_init=1.0))
    assert result.trace.grid == (0.0, 1.0)
    assert result.solution.residual_report.max <= GAP_TOL


def test_direct_stages_cost_one_solve_per_iteration():
    # a mild model contracts against the anchor at every fine stage, so
    # beyond the anchor solve each iteration is exactly one linear solve;
    # loose stepping stones, secant starts and steps that double after a
    # fast stone keep that to a few stages of a few solves (measured 21)
    model = mild_coupled_model(m=2, seed=5)
    tree = rademacher_tree(4)
    trace = solve_continuation(model, tree, ContinuationConfig(delta_init=0.1)).trace
    assert trace.grid == pytest.approx((0.0, 0.1, 0.3, 0.7, 1.0), rel=0, abs=1e-15)
    assert all(stage.accepted for stage in trace.stages)
    assert trace.linear_solves == 1 + sum(stage.iterations for stage in trace.stages) <= 21


def test_stepping_stones_stop_at_the_square_root_tolerance():
    # a stage below alpha = 1 is accepted at its first distance within
    # sqrt(picard_tol); the stage at alpha = 1 runs on to picard_tol
    config = ContinuationConfig(delta_init=0.1)
    trace = solve_continuation(mild_coupled_model(m=2, seed=5), rademacher_tree(4), config).trace
    stone_tol = math.sqrt(config.picard_tol)
    *stones, last = trace.stages
    assert len(stones) == 3
    for stage in stones:
        assert stage.alpha_to < 1.0
        assert stage.distance <= stone_tol < min(stage.distances[:-1], default=math.inf)
    assert last.alpha_to == 1.0 and trace.grid[-1] == 1.0
    assert last.distance <= config.picard_tol < min(last.distances[:-1], default=math.inf)


def assert_step_control(trace, config):
    """Each attempt's step is the previous one doubled (capped at 1 - alpha)
    after a stepping stone accepted within FAST_STAGE iterations, halved
    after a rejection and unchanged otherwise; its target is alpha plus the
    step, or 1 when that reaches 1."""
    alpha, delta = 0.0, config.delta_init
    for stage in trace.stages:
        assert (stage.alpha_from, stage.delta) == (alpha, delta)
        assert stage.alpha_to == (1.0 if alpha + delta > 1.0 - 1e-12 else alpha + delta)
        if not stage.accepted:
            delta *= 0.5
            continue
        alpha = stage.alpha_to
        if alpha < 1.0 and stage.iterations <= FAST_STAGE:
            delta = min(2.0 * delta, 1.0 - alpha)


@functools.cache
def default_ladder_solution(m: int, seed: int):
    return solve_continuation(mild_coupled_model(m=m, seed=seed), rademacher_tree(3)).solution


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    m=st.sampled_from((1, 2)),
    seed=st.integers(0, 40),
    delta_init=st.sampled_from((0.05, 0.1, 0.25)),
    picard_max_iters=st.sampled_from((6, 80)),  # 6 refuses most last stages at first
)
def test_the_step_doubles_after_a_fast_stone_and_halves_after_a_stall(m, seed, delta_init, picard_max_iters):
    config = ContinuationConfig(delta_init=delta_init, picard_max_iters=picard_max_iters)
    result = solve_continuation(mild_coupled_model(m=m, seed=seed), rademacher_tree(3), config)
    assert_step_control(result.trace, config)
    assert result.trace.grid[-1] == 1.0
    assert solution_gap(result.solution, default_ladder_solution(m, seed)) <= ORACLE_TOL


def test_a_rejected_stage_after_a_growth_retries_a_strictly_smaller_target():
    # the stone at 0.7 takes 3 iterations, so the step doubles from 0.4 and
    # is capped at 0.3; the last stage needs 7 iterations and is refused at
    # 6.  Its retry halves the capped step to a real target below 1, where
    # an uncapped 0.8 would have halved to 0.4 and aimed at 1 again
    model, tree = mild_coupled_model(m=1, seed=4), rademacher_tree(3)
    config = ContinuationConfig(delta_init=0.1, picard_max_iters=6)
    result = solve_continuation(model, tree, config)
    stages = result.trace.stages
    assert_step_control(result.trace, config)
    grown = [
        i for i in range(1, len(stages) - 1)
        if stages[i - 1].accepted and stages[i - 1].iterations <= FAST_STAGE and not stages[i].accepted
    ]
    assert grown
    for i in grown:
        assert stages[i + 1].alpha_from == stages[i].alpha_from
        assert stages[i + 1].alpha_to < stages[i].alpha_to
    refused, retry = stages[3], stages[4]
    assert (refused.alpha_to, refused.delta, retry.alpha_to) == pytest.approx((1.0, 0.3, 0.85), rel=0, abs=1e-15)
    coarse = solve_continuation(model, tree)
    assert solution_gap(result.solution, coarse.solution) <= ORACLE_TOL


def test_the_secant_start_extends_the_last_two_ladder_points():
    # on iterates affine in alpha the prediction is exact, whatever the step
    rng = np.random.default_rng(3)
    base, slope = (rng.normal(size=6) for _ in range(2))

    def at(alpha):
        return base + alpha * slope

    for alpha_prev, alpha, target in ((0.0, 0.5, 1.0), (0.5, 0.75, 0.875), (0.25, 0.5, 0.5625)):
        predicted = _secant(alpha_prev, at(alpha_prev), alpha, at(alpha), target)
        np.testing.assert_allclose(predicted, at(target), rtol=0, atol=1e-14)


def test_a_stalling_stage_switches_to_mixing_within_its_one_attempt():
    # plain Picard contracts too slowly at the last target (factor about
    # 0.89); the attempt mixes instead of giving up, and it is the only
    # record for that target
    model = mild_coupled_model(m=2, seed=203, eps=1.0)
    tree = rademacher_tree(4)
    result = solve_continuation(model, tree)
    trace = result.trace
    assert trace.grid == (0.0, 0.5, 1.0)
    assert [(stage.alpha_to, stage.accepted) for stage in trace.stages] == [(0.5, True), (1.0, True)]
    assert trace.linear_solves == 1 + sum(stage.iterations for stage in trace.stages) <= 100
    oracle = solve_global_newton(build_residual_system(tree, model))
    assert solution_gap(result.solution, oracle) <= ORACLE_TOL


def test_mixing_certifies_a_stiff_model_the_plain_oracle_also_solves():
    model = mild_coupled_model(m=2, seed=203, eps=2.0)
    tree = rademacher_tree(4)
    result = solve_continuation(model, tree)
    assert result.trace.linear_solves == 1 + sum(stage.iterations for stage in result.trace.stages)
    assert result.solution.residual_report.max <= GAP_TOL
    oracle = solve_global_newton(build_residual_system(tree, model))
    assert solution_gap(result.solution, oracle) <= ORACLE_TOL


@pytest.mark.parametrize(
    "seed, eps, bound",
    [
        # the switch to mixing is judged against picard_tol on stepping stones
        # too: 74 solves, where judging it against their looser tolerance took 122
        pytest.param(200, 2.0, 74, id="200"),
        pytest.param(202, 2.0, 200, id="202"),
        pytest.param(204, 2.0, 200, id="204"),
        # measured 659 and 187 solves
        pytest.param(204, 4.0, 700, id="eps4-204"),
        pytest.param(205, 4.0, 200, id="eps4-205"),
    ],
)
def test_stiff_models_certify_within_a_few_hundred_solves(seed, eps, bound):
    model = mild_coupled_model(m=2, seed=seed, eps=eps)
    result = solve_continuation(model, rademacher_tree(4))
    trace = result.trace
    assert trace.linear_solves == 1 + sum(stage.iterations for stage in trace.stages) <= bound
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
    assert trace.linear_solves == 1 + sum(stage.iterations for stage in trace.stages)
    deltas = [stage.delta for stage in trace.stages]
    assert deltas == sorted(deltas, reverse=True)


def test_a_ladder_of_too_many_targets_is_abandoned():
    # one iteration per attempt: a stone is accepted only when its first
    # distance is within sqrt(picard_tol) = 1e-10.  The first step halves
    # until that holds, doubles while it holds, and then settles where a
    # doubled step stalls and the step after it passes, alternating between
    # the two.  The ladder gives up after 4001 targets, far short of alpha =
    # 1, and its trace still counts one solve for the anchor and one per
    # iteration
    model = NonlinearModel(
        m=1,
        n=1,
        G=[[1.0]],
        beta1=1.0,
        beta2=1.0,
        x0=[[1.0]],
        b=lambda t, x, y, z, nodes: -y + 0.1 * np.tanh(y),
        sigma=lambda t, x, y, z, nodes: -z,
        f=lambda t, x, y, z, nodes: x,
    )
    config = ContinuationConfig(delta_init=1e-3, delta_min=1e-12, picard_tol=1e-20, picard_max_iters=1)
    with pytest.raises(ContinuationFailedError, match="abandoned after 4001 stage targets") as exc:
        solve_continuation(model, rademacher_tree(1), config)
    trace = exc.value.trace
    assert len(trace.stages) == 4001
    assert_step_control(trace, config)
    assert trace.grid == (0.0, *(stage.alpha_to for stage in trace.stages if stage.accepted))
    assert exc.value.alpha == trace.grid[-1] < 0.5
    accepted = "".join("A" if stage.accepted else "r" for stage in trace.stages)
    assert accepted.endswith("Ar" * 1000)
    assert trace.linear_solves == 1 + sum(stage.iterations for stage in trace.stages) == 4002
    assert math.isnan(trace.final_residual)


def test_an_overflowing_frozen_offset_is_refused_by_the_inner_solve():
    # the offset b + beta2 G^T y overflows once Y is of order 1e308; the
    # inner linear solve names the first slab it makes non-finite, and no
    # NumPy warning escapes on the way
    model = NonlinearModel(
        1, 1, [[1.0]], 1.0, 1.0, [1e308], b=lambda t, x, y, z, nodes: np.full((len(nodes), 1, 1), 1e308)
    )
    with pytest.raises(NonFiniteSolutionError, match=r"^X_1 is not finite at node \(0,\)$"):
        solve_continuation(model, rademacher_tree(2))


def test_tampered_solution_is_flagged_by_the_residual_report():
    model = mild_coupled_model(m=1, seed=5)
    tree = rademacher_tree(2)
    sol = solve_continuation(model, tree).solution
    bump = AdaptedProcess.constant(tree, np.array([[0.01]]), 0, tree.horizon)
    tampered = FbsdeSolution(X=sol.X, Y=combine((1.0, sol.Y), (1.0, bump)), Z=sol.Z, N=sol.N)
    report = nonlinear_residual(model, tree, tampered)
    assert report.terminal >= 1e-3 or report.y_projection >= 1e-3
    assert report.max >= 1e-3


def test_a_nan_slab_fails_both_residual_reports():
    # the anchor model's driver reads x only, so a NaN in Y_T reaches every
    # check that reads Y_T without tripping the model's own finiteness check
    tree = rademacher_tree(2)
    model, coeffs = make_anchor_model(tree, [[1.0]], 1.0, 1.0, [[0.2]], f_const=[0.1], g_const=[0.3])
    sol = solve_linear(coeffs, tree)
    y_last = sol.Y.at(2).copy()
    y_last[1] = np.nan
    broken = FbsdeSolution(
        X=sol.X, Y=AdaptedProcess(tree, 0, 2, (sol.Y.at(0), sol.Y.at(1), y_last)), Z=sol.Z, N=sol.N
    )
    linear = linear_residual(coeffs, tree, broken)
    nonlinear = nonlinear_residual(model, tree, broken)
    assert linear.backward == linear.terminal == linear.max == math.inf
    assert nonlinear.backward == nonlinear.terminal == nonlinear.y_projection == nonlinear.max == math.inf


def test_continuation_config_validation():
    with pytest.raises(ValueError, match="delta_min"):
        ContinuationConfig(delta_init=0.5, delta_min=0.7)
    with pytest.raises(ValueError, match="positive"):
        ContinuationConfig(picard_tol=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ContinuationConfig(picard_tol=bad)
        with pytest.raises(ValueError, match="finite"):
            ContinuationConfig(validation_tol=bad)
    # a count is an integer: a float or a bool reaches range() as a bare TypeError or as 1
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match=rf"integer picard_max_iters >= 1, got {bad!r}$"):
            ContinuationConfig(picard_max_iters=bad)
    assert ContinuationConfig(picard_max_iters=np.int64(3)).picard_max_iters == 3


def _model(m=1, n=1, G=((1.0,),), beta1=1.0, beta2=1.0, x0=None, **functions):
    x0 = np.full((m, 1), 0.4) if x0 is None else x0
    return lambda: NonlinearModel(m, n, np.array(G), beta1, beta2, x0, **functions)


def _continuation(**functions):
    return lambda: solve_continuation(_model(**functions)(), rademacher_tree(2))


def _monotone(**functions):
    # the sampled nodes reach the model as a rank array into each level
    return lambda: check_monotone(_model(**functions)(), rademacher_tree(2))


def _sampled(**setting):
    return lambda: check_monotone(_model()(), rademacher_tree(2), **setting)


def _offset_on_the_wrong_domain():
    tree = rademacher_tree(2)
    return LinearCoefficients.build(tree, 1, 1, G=[[1.0]], x0=[0.0], D=AdaptedProcess.zeros(tree, (1, 1), 0, 2))


@pytest.mark.parametrize(
    "build, message",
    [
        (_continuation(b=lambda t, x, y, z, nodes: np.zeros(3)), "b(t=0) must produce 1 x 1 values, got shape (3,)"),
        (
            _continuation(f=lambda t, x, y, z, nodes: [np.inf if (t, v) == (2, (0, 1)) else 0.0 for v in nodes]),
            "f(t=2) produced non-finite values at node (0, 1)",
        ),
        (
            _continuation(h=lambda x, nodes: [np.nan if v == (1, 0) else 0.0 for v in nodes]),
            "h produced non-finite values at node (1, 0)",
        ),
        (
            _monotone(f=lambda t, x, y, z, nodes: [np.inf if v == (1, 0) else 0.0 for v in nodes]),
            "f(t=2) produced non-finite values at node (1, 0)",
        ),
        (
            _monotone(h=lambda x, nodes: [np.nan if v == (0, 1) else 0.0 for v in nodes]),
            "h produced non-finite values at node (0, 1)",
        ),
        (_model(m=0), "dimensions must be positive"),
        (_model(G=[[1.0], [0.5]]), "G must have shape (1, 1), got (2, 1)"),
        (_model(G=[[0.0]]), "terminal coupling G must have full rank min(m, n); smallest singular value 0.0e+00"),
        (_model(beta1=0.0, beta2=0.0), "at least one coupling weight must be positive"),
        (_model(beta1=-1.0), "the coupling weights must be nonnegative"),
        (_model(G=[[np.nan]]), "G contains non-finite entries"),
        (_model(G=[[np.inf]]), "G contains non-finite entries"),
        (_model(beta1=np.nan), "beta1 contains non-finite entries"),
        (_model(beta1=np.inf), "beta1 contains non-finite entries"),
        (_model(beta2=-np.inf), "beta2 contains non-finite entries"),
        (_model(x0=[np.nan]), "x0 contains non-finite entries"),
        (_model(n=2, G=[[1.0], [0.5]], beta1=0.0), "beta1 must be positive when n > m"),
        (_model(m=2, G=[[1.0, 0.5]], beta2=0.0), "beta2 must be positive when m > n"),
        (lambda: ContinuationConfig(picard_max_iters=0), "need an integer picard_max_iters >= 1, got 0"),
        # an offset given on a wider domain is refused, not cut to [0, T - 1]
        (_offset_on_the_wrong_domain, "D must be (1, 1)-valued on [0, 1]"),
        (_model(x0=[0.1, 0.2]), "x0 must have shape (1, 1), got (2,)"),
        # an infinite tol would pass any slacks, a NaN one none
        (_sampled(seed=2.5), "need an integer seed >= 0, got 2.5"),
        (_sampled(seed=-1), "need an integer seed >= 0, got -1"),
        (_sampled(seed=True), "need an integer seed >= 0, got True"),
        (_sampled(tol=math.nan), "need a finite tol >= 0, got nan"),
        (_sampled(tol=math.inf), "need a finite tol >= 0, got inf"),
        (_sampled(tol=-math.inf), "need a finite tol >= 0, got -inf"),
        (_sampled(tol=-1.0), "need a finite tol >= 0, got -1.0"),
    ],
)
def test_bad_models_and_settings_are_refused_by_name(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def plane_tree(horizon: int) -> ProbabilityTree:
    """A tree with d = 2: the four points (+-sqrt 2, 0), (0, +-sqrt 2)."""
    r = math.sqrt(2.0)
    step = IncrementDistribution(points=[[r, 0.0], [-r, 0.0], [0.0, r], [0.0, -r]], probs=[0.25] * 4)
    return ProbabilityTree([step] * horizon)


@pytest.mark.parametrize("entry_point", [check_monotone, solve_continuation])
def test_coupled_entry_points_refuse_a_two_dimensional_tree(entry_point):
    # check_monotone samples one-column z, so on d = 2 its verdict would mean nothing
    with pytest.raises(ValueError, match="^coupled systems require one-dimensional driving noise$"):
        entry_point(mild_coupled_model(m=1, seed=5), plane_tree(2))


def zero_solution(tree, m: int, n: int) -> FbsdeSolution:
    T = tree.horizon
    return FbsdeSolution(
        X=AdaptedProcess.zeros(tree, (m, 1), 0, T),
        Y=AdaptedProcess.zeros(tree, (n, 1), 0, T),
        Z=AdaptedProcess.zeros(tree, (n, 1), 0, T - 1),
        N=AdaptedProcess.zeros(tree, (n, 1), 0, T),
    )


def test_weighted_distance_convention():
    # interior times count all three components, the horizon only (x, y)
    tree = rademacher_tree(1)
    a = FbsdeSolution(
        X=AdaptedProcess.constant(tree, np.array([[2.0]]), 0, 1),
        Y=AdaptedProcess.constant(tree, np.array([[2.0]]), 0, 1),
        Z=AdaptedProcess.constant(tree, np.array([[2.0]]), 0, 0),
        N=AdaptedProcess.zeros(tree, (1, 1), 0, 1),
    )
    b = zero_solution(tree, 1, 1)
    weights = _node_weights(tree, tuple(tuple(slab.shape for slab in part) for part in slab_lists(b)))
    flat_a, flat_b = _flatten(slab_lists(a)), _flatten(slab_lists(b))
    assert math.sqrt(weights @ (flat_a - flat_b) ** 2) == pytest.approx(math.sqrt(20.0), abs=1e-12)
    assert math.sqrt(weights @ (flat_a - flat_a) ** 2) == 0.0


# -- monotonicity -------------------------------------------------------------


def test_anchor_model_has_zero_coupling_slack():
    tree = rademacher_tree(3)
    G = np.array([[1.1, 0.2], [-0.3, 0.9]])
    model, _ = make_anchor_model(tree, G, beta1=0.8, beta2=1.2, x0=np.zeros((2, 1)), g_const=[0.3, 0.1])
    report = check_monotone(model, tree, samples=100, seed=1, tol=1e-12)
    assert report.ok
    assert report.worst_coupling_slack <= 1e-12
    assert report.worst_terminal_slack <= 1e-12


def test_an_overflowing_slack_fails_the_monotonicity_check():
    # the t = 0 pairings overflow to inf - inf = NaN; the t = 1 slacks alone pass
    tree = rademacher_tree(1)
    model = NonlinearModel(
        1, 1, [[1.0]], 1.0, 1.0, [[0.0]],
        b=lambda t, x, y, z, nodes: 1e307 * y,
        sigma=lambda t, x, y, z, nodes: -1e307 * z,
        f=lambda t, x, y, z, nodes: 2 * x,
        h=lambda x, nodes: x,
    )
    report = check_monotone(model, tree, samples=20, beta1=0.0, beta2=0.0)
    assert not report.ok
    assert report.worst_coupling_slack == math.inf


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


@pytest.mark.parametrize("samples", [0, -1, 2.5, True])
def test_monotonicity_check_refuses_fewer_than_one_sample(samples):
    # no sample would pass with both slacks at -inf, a negative count would
    # reach NumPy as a negative dimension, and a float as a bare TypeError
    with pytest.raises(ValueError, match=rf"integer samples >= 1, got {samples!r}$"):
        check_monotone(mild_coupled_model(m=2, seed=5), rademacher_tree(2), samples=samples)


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
    first = dataclasses.replace(coeffs, **random_offsets(rng, tree, 2, 2))
    second = dataclasses.replace(coeffs, **random_offsets(rng, tree, 2, 2))
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


# -- slab contract ---------------------------------------------------------------

SLAB_TOL = 1e-13


def _slab_and_pointwise(name):
    """A model with slab callables, the same functions per node, and a tree."""
    if name == "mild":
        model = mild_coupled_model(m=2, seed=5)
        return model, pointwise_twin(model), rademacher_tree(3)
    return decoupled_slab_model(seed=9), decoupled_model(seed=9), random_tree(np.random.default_rng(13), 3)


@pytest.mark.parametrize("name", ["mild", "decoupled"])
def test_slab_models_agree_with_their_pointwise_wrapping(name):
    slab, pointwise, tree = _slab_and_pointwise(name)
    ours, theirs = solve_continuation(slab, tree), solve_continuation(pointwise, tree)
    assert ours.trace.grid == theirs.trace.grid
    assert ours.trace.linear_solves == theirs.trace.linear_solves
    assert solution_gap(ours.solution, theirs.solution) <= SLAB_TOL

    sol = ours.solution
    report_slab, report_pointwise = nonlinear_residual(slab, tree, sol), nonlinear_residual(pointwise, tree, sol)
    for field in dataclasses.fields(report_slab):
        assert abs(getattr(report_slab, field.name) - getattr(report_pointwise, field.name)) <= SLAB_TOL

    compensators = [build_solution(model, tree, sol.X.values, sol.Y.values, sol.Z.values).N for model in (slab, pointwise)]
    assert combine((1.0, compensators[0]), (-1.0, compensators[1])).sup_norm() <= SLAB_TOL

    anchor = anchor_coefficients(tree, slab.G, slab.beta1, slab.beta2, slab.x0)
    linear = solve_linear(anchor, tree)
    pairings = [duality_gap(tree, model, sol, anchor, linear) for model in (slab, pointwise)]
    assert abs(pairings[0].lhs - pairings[1].lhs) <= SLAB_TOL
    assert abs(pairings[0].rhs - pairings[1].rhs) <= SLAB_TOL

    oracles = [solve_global_newton(build_residual_system(tree, model)) for model in (slab, pointwise)]
    assert solution_gap(oracles[0], oracles[1]) <= SLAB_TOL


def _reference_check_monotone(model, tree, samples, seed, box=5.0, beta1=None, beta2=None):
    """Worst (coupling, terminal) slacks by one pass per sample and one model
    call per node, for models whose functions also work on single nodes.  The
    states and nodes come from the same two batched draws as in the check."""
    rng = np.random.default_rng(seed)
    T, m, n = tree.horizon, model.m, model.n
    counts = np.array([tree.node_count(t) for t in range(T + 1)] + [tree.node_count(T)])
    states = rng.uniform(-box, box, size=(2, samples, m + 2 * n, 1))
    picks = rng.integers(counts[:, None], size=(len(counts), samples))
    beta1 = model.beta1 if beta1 is None else beta1
    beta2 = model.beta2 if beta2 is None else beta2
    G, Gt = model.G, model.G.T
    zero_m, zero_z = np.zeros((m, 1)), np.zeros((n, 1))
    b = model.b or (lambda t, x, y, z, node: zero_m)
    sigma = model.sigma or (lambda t, x, y, z, node: zero_m)
    f = model.f or (lambda t, x, y, z, node: zero_z)
    h = model.h or (lambda x, node: G @ x)
    worst_coupling = worst_terminal = -math.inf
    for s in range(samples):
        a, c = states[0, s], states[1, s]
        xa, ya, za = a[:m], a[m : m + n], a[m + n :]
        xb, yb, zb = c[:m], c[m : m + n], c[m + n :]
        dx, dy, dz = xa - xb, ya - yb, za - zb
        for t in range(T + 1):
            node = tree.nodes(t)[int(picks[t, s])]
            slack = 0.0
            if 1 <= t <= T:
                df = f(t, xa, ya, zero_z if t == T else za, node) - f(t, xb, yb, zero_z if t == T else zb, node)
                slack += -float(((Gt @ df) * dx).sum()) + beta1 * float(((G @ dx) ** 2).sum())
            if t <= T - 1:
                db = b(t, xa, ya, za, node) - b(t, xb, yb, zb, node)
                ds = sigma(t, xa, ya, za, node) - sigma(t, xb, yb, zb, node)
                slack += float(((G @ db) * dy).sum()) + float(((G @ ds) * dz).sum())
                slack += beta2 * (float(((Gt @ dy) ** 2).sum()) + float(((Gt @ dz) ** 2).sum()))
            worst_coupling = max(worst_coupling, slack)
        leaf = tree.nodes(T)[int(picks[T + 1, s])]
        dh = h(xa, leaf) - h(xb, leaf)
        worst_terminal = max(worst_terminal, -float((dh * (G @ dx)).sum()))
    return worst_coupling, worst_terminal


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_monotonicity_check_matches_the_per_sample_loop(seed):
    tree = rademacher_tree(3)
    anchor, _ = make_anchor_model(tree, [[1.1, 0.2], [-0.3, 0.9]], 0.8, 1.2, np.zeros((2, 1)), g_const=[0.3, 0.1])
    wrong_sign = NonlinearModel(
        m=1, n=1, G=np.array([[1.0]]), beta1=1.0, beta2=1.0, x0=np.array([[0.0]]),
        f=lambda t, x, y, z, node: -2.0 * x,
    )

    def weight(nodes):  # 1 + the sum of the outcome indices, on one node or a slab of them
        return (1.0 + np.asarray(nodes, dtype=float).sum(axis=-1))[..., None, None]

    node_dependent = NonlinearModel(
        m=1, n=1, G=np.array([[1.0]]), beta1=1.0, beta2=1.0, x0=np.array([[0.0]]),
        f=lambda t, x, y, z, nodes: -weight(nodes) * x,
        h=lambda x, nodes: weight(nodes) * x,
    )
    cases = [
        (mild_coupled_model(m=2, seed=5), {"beta1": 0.25, "beta2": 0.25}),
        (mild_coupled_model(m=1, seed=8), {}),
        (anchor, {}),
        (wrong_sign, {}),
        (node_dependent, {}),
    ]
    for (model, margins), samples in itertools.product(cases, (300, 1)):
        report = check_monotone(model, tree, samples=samples, seed=seed, **margins)
        coupling, terminal = _reference_check_monotone(model, tree, samples, seed, **margins)
        assert report.worst_coupling_slack == pytest.approx(coupling, rel=1e-12, abs=0.0)
        assert report.worst_terminal_slack == pytest.approx(terminal, rel=1e-12, abs=0.0)


def test_continuation_calls_the_model_once_per_slab():
    model, calls = counting_model(mild_coupled_model(m=2, seed=5))
    tree = rademacher_tree(3)
    _homotopy_offsets(model, tree, slab_lists(zero_solution(tree, 2, 2)), 1.0)
    assert calls == {"b": 3, "sigma": 3, "f": 3, "h": 1}
    calls.clear()
    solve_continuation(model, tree)
    # every offset bundle and the residual report evaluate b, sigma and f on
    # three slabs and h on one; the compensator evaluates f on three more
    assert calls["h"] > 1
    assert calls["b"] == calls["sigma"] == 3 * calls["h"]
    assert calls["f"] == 3 * calls["h"] + 3
