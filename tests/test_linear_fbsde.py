"""Backward matrix recursion, solvability verdicts, and exact linear solves."""

import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsdelta import (
    AdaptedProcess,
    FbsdeSolution,
    GammaReport,
    IncrementDistribution,
    LinearCoefficients,
    NonFiniteSolutionError,
    NonlinearModel,
    NotSolvableError,
    ProbabilityTree,
    ResidualReport,
    anchor_coefficients,
    build_residual_system,
    check_solvability,
    linear_residual,
    nonlinear_residual,
    riccati_matrices,
    solve_linear,
)
from fbsdelta import linear_fbsde
from fbsdelta.bsde import build_solution
from fbsdelta.linear_fbsde import (
    MATRICES,
    OFFSETS,
    _offset_backward,
    _offset_slabs,
    _solvable_matrices,
    _solve_linear,
    _unflatten,
    domain,
)
from helpers import (
    combine,
    permute_step,
    rademacher_tree,
    random_increments,
    random_linear_coefficients,
    random_offsets,
    random_process,
    random_tree,
)

EXACT_TOL = 1e-12
RESIDUAL_TOL = 1e-10


# -- backward matrix recursion --------------------------------------------


def test_scalar_anchor_recursion_pinned_values():
    tree = rademacher_tree(2)
    coeffs = anchor_coefficients(tree, G=[[1.0]], beta1=1.0, beta2=1.0, x0=[[1.0]])
    mats = riccati_matrices(coeffs)
    assert mats.failure_t is None
    assert mats.P[2][0, 0] == 2.0
    assert abs(mats.P[1][0, 0] - 5.0 / 3.0) <= EXACT_TOL
    report = check_solvability(coeffs, tree)
    assert report.solvable and report.failure_t is None
    assert [e.t for e in report.entries] == [0, 1]
    assert all(e.invertible for e in report.entries)
    # the anchor couplings make Gamma_1 a multiple of the identity
    assert report.entries[1].sigma_min == pytest.approx(3.0, abs=1e-12)


def test_anchor_closed_form_matches_general_recursion():
    rng = np.random.default_rng(7)
    for _ in range(8):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        T = int(rng.integers(2, 5))
        while True:
            G = rng.uniform(-1.0, 1.0, size=(n, m))
            if np.linalg.svd(G, compute_uv=False)[min(m, n) - 1] > 0.3:
                break
        beta1, beta2 = rng.uniform(0.1, 2.0, size=2)
        tree = random_tree(rng, T)
        coeffs = anchor_coefficients(tree, G, beta1, beta2, x0=np.zeros((m, 1)))
        mats = riccati_matrices(coeffs)
        assert mats.failure_t is None
        closed = np.zeros_like(mats.P)
        closed[T] = (1.0 + beta1) * G
        for t in range(T - 1, 0, -1):
            shrink = np.linalg.inv(np.eye(m) + beta2 * G.T @ closed[t + 1])
            closed[t] = beta1 * G + closed[t + 1] @ shrink
        for t in range(1, T + 1):
            assert np.abs(mats.P[t] - closed[t]).max() <= EXACT_TOL


def test_anchor_coefficient_structure():
    tree = rademacher_tree(3)
    G = np.array([[0.8, -0.2], [0.1, 1.1]])
    coeffs = anchor_coefficients(tree, G, beta1=0.7, beta2=1.3, x0=np.zeros((2, 1)))
    for t in range(3):
        assert np.array_equal(coeffs.B[t], -1.3 * G.T)
        assert np.array_equal(coeffs.Cbar[t], -1.3 * G.T)
        assert not coeffs.A[t].any() and not coeffs.Abar[t].any()
        assert not coeffs.Bbar[t].any() and not coeffs.C[t].any()
    assert not coeffs.Ahat[0].any()
    for t in range(1, 4):
        assert np.array_equal(coeffs.Ahat[t], -0.7 * G)
        assert not coeffs.Bhat[t].any() and not coeffs.Chat[t].any()
    with pytest.raises(ValueError, match="nonnegative"):
        anchor_coefficients(tree, G, beta1=-0.1, beta2=1.0, x0=np.zeros((2, 1)))


def singular_instance(tree: ProbabilityTree, **offsets) -> LinearCoefficients:
    """m = n = 1, T = 2 instance whose second Gamma degenerates to diag(0, 1)."""
    B = np.array([[[0.0]], [[1.0]]])
    return LinearCoefficients.build(
        tree, 1, 1, G=[[1.0]], x0=offsets.pop("x0", [[0.0]]), B=B, **offsets
    )


def test_singular_step_detected():
    tree = rademacher_tree(2)
    coeffs = singular_instance(tree)
    mats = riccati_matrices(coeffs)
    assert mats.P[2][0, 0] == 1.0
    assert mats.failure_t == 1
    assert mats.sigma_min[1] == 0.0
    assert np.isnan(mats.sigma_min[0])
    assert np.array_equal(mats.gammas[1], np.array([[0.0, 0.0], [0.0, 1.0]]))

    report = check_solvability(coeffs, tree)
    assert not report.solvable
    assert report.failure_t == 1
    assert report.entries == (GammaReport(t=1, sigma_min=0.0, invertible=False),)

    with pytest.raises(NotSolvableError, match=r"NotSolvable at t=1 \(min singular value 0\.0e0\)") as exc:
        solve_linear(coeffs, tree)
    assert exc.value.t == 1
    assert exc.value.sigma_min == 0.0
    assert exc.value.partial.failure_t == 1
    with pytest.raises(NotSolvableError):
        _solvable_matrices(coeffs, tree)


def test_solvability_verdict_ignores_offset_data():
    rng = np.random.default_rng(11)
    tree = random_tree(rng, 3)
    coeffs = random_linear_coefficients(rng, tree, 2, 2)
    variants = [
        dataclasses.replace(coeffs, **random_offsets(rng, tree, 2, 2, scale=50.0)) for _ in range(3)
    ]
    base = check_solvability(coeffs, tree)
    for alt in variants:
        report = check_solvability(alt, tree)
        assert report.solvable == base.solvable
        assert report.entries == base.entries  # bit-identical margins

    tree2 = rademacher_tree(2)
    shifted = singular_instance(tree2, **random_offsets(rng, tree2, 1, 1, scale=9.0))
    report = check_solvability(shifted, tree2)
    assert not report.solvable and report.failure_t == 1


# -- hand-solved instances -------------------------------------------------


def test_hand_solved_offset_instance():
    # Only the terminal coupling (G = 2) and forward offsets are nonzero:
    # u = 1.5, v = 1 at the root, so X_1 = 1.5 +- 1, Y_0 = 3, Z_0 = 2.
    tree = rademacher_tree(1)
    coeffs = LinearCoefficients.build(tree, 1, 1, G=[[2.0]], x0=[[1.0]], D=0.5, Dbar=1.0)
    sol = solve_linear(coeffs, tree)
    assert np.array_equal(sol.X.at(1)[:, 0, 0], [0.5, 2.5])
    assert sol.Y.at(0)[0, 0, 0] == 3.0
    assert sol.Z.at(0)[0, 0, 0] == 2.0
    assert np.array_equal(sol.Y.at(1)[:, 0, 0], [1.0, 5.0])
    assert sol.N.sup_norm() == 0.0
    assert sol.residual_report.max <= EXACT_TOL


def test_hand_solved_coupled_instance():
    # Forward drift reacts to Y through B = 1/2; with G = 1 the fixed point is
    # X_1 = Y_0 = 2 and Z is identically zero.
    tree = rademacher_tree(1)
    coeffs = LinearCoefficients.build(tree, 1, 1, G=[[1.0]], x0=[[1.0]], B=0.5)
    sol = solve_linear(coeffs, tree)
    assert np.array_equal(sol.X.at(1)[:, 0, 0], [2.0, 2.0])
    assert sol.Y.at(0)[0, 0, 0] == 2.0
    assert sol.Z.at(0)[0, 0, 0] == 0.0
    assert sol.residual_report.max == 0.0


# -- randomized solve properties -------------------------------------------


def test_random_instances_satisfy_all_equations():
    rng = np.random.default_rng(23)
    for _ in range(10):
        T = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        tree = random_tree(rng, T)
        coeffs = random_linear_coefficients(rng, tree, m, n)
        sol = solve_linear(coeffs, tree)
        assert sol.residual_report.max <= RESIDUAL_TOL
        again = linear_residual(coeffs, tree, sol)
        assert again == sol.residual_report


def as_slab_model(coeffs: LinearCoefficients) -> NonlinearModel:
    """The same linear system written as a slab nonlinear model."""
    c, T = coeffs, coeffs.horizon
    return NonlinearModel(
        c.m, c.n, c.G, 1.0, 1.0, c.x0,
        b=lambda t, x, y, z, nodes: c.A[t] @ x + c.B[t] @ y + c.C[t] @ z + c.D.at(t),
        sigma=lambda t, x, y, z, nodes: c.Abar[t] @ x + c.Bbar[t] @ y + c.Cbar[t] @ z + c.Dbar.at(t),
        f=lambda t, x, y, z, nodes: -(c.Ahat[t] @ x + c.Bhat[t] @ y + c.Chat[t] @ z + c.Dhat.at(t)),
        h=lambda x, nodes: c.G @ x + c.g.at(T),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    branches=st.lists(st.integers(2, 4), min_size=1, max_size=3),
    m=st.integers(1, 2),
    n=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_linear_and_slab_model_forms_give_the_same_report_and_compensator(branches, m, n, seed):
    rng = np.random.default_rng(seed)
    tree = ProbabilityTree([random_increments(rng, k, 1) for k in branches])
    coeffs = random_linear_coefficients(rng, tree, m, n)
    model = as_slab_model(coeffs)
    sol = solve_linear(coeffs, tree)
    linear, nonlinear = linear_residual(coeffs, tree, sol), nonlinear_residual(model, tree, sol)
    for field in dataclasses.fields(ResidualReport):
        assert abs(getattr(linear, field.name) - getattr(nonlinear, field.name)) <= EXACT_TOL
    assert linear.max <= RESIDUAL_TOL
    compensator = build_solution(model, tree, sol.X.values, sol.Y.values, sol.Z.values).N
    assert combine((1.0, compensator), (-1.0, sol.N)).sup_norm() <= EXACT_TOL


def test_tampered_linear_y_is_caught_by_the_projection_check():
    # Y_0 enters no driver, so only the relations at t = 0 see the bump
    tree = rademacher_tree(2)
    coeffs = random_linear_coefficients(np.random.default_rng(37), tree, 1, 1)
    sol = solve_linear(coeffs, tree)
    assert sol.residual_report.y_projection <= EXACT_TOL
    y0 = sol.Y.at(0) + 0.01
    tampered = dataclasses.replace(sol, Y=AdaptedProcess(tree, 0, 2, (y0, sol.Y.at(1), sol.Y.at(2))))
    assert abs(linear_residual(coeffs, tree, tampered).y_projection - 0.01) <= EXACT_TOL


def test_horizon_one_edge_case():
    rng = np.random.default_rng(29)
    tree = random_tree(rng, 1, branch_choices=(3,))
    coeffs = random_linear_coefficients(rng, tree, 2, 1)
    sol = solve_linear(coeffs, tree)
    assert sol.residual_report.max <= RESIDUAL_TOL


def test_an_overflow_in_n_alone_is_refused_by_name():
    # X = 0 and Y_1 = g, Y_0 and Z_0 are finite, but at the third leaf
    # N_1 = Y_1 - Y_0 - Z_0 dW_0 exceeds the float range
    tree = ProbabilityTree([IncrementDistribution.trinomial(0.25)])
    g = AdaptedProcess(tree, 1, 1, (np.array([-1.5e308, -1.5e308, 1.5e308]).reshape(3, 1, 1),))
    coeffs = LinearCoefficients.build(tree, 1, 1, G=[[1.0]], x0=[0.0], g=g)
    with pytest.raises(NonFiniteSolutionError, match=r"^N_1 is not finite at node \(2,\)$"):
        solve_linear(coeffs, tree)


@pytest.mark.parametrize(
    "matrices,named",
    [
        ({"G": [[1.0]], "C": [[2.0]], "Abar": [[1e308]]}, "P_1"),  # P_1 = 1 + A + C Abar overflows
        ({"G": [[2.0]], "B": [[1e308]]}, "Gamma_1"),  # P_2 = G is finite, B_1 P_2 is not
    ],
)
def test_an_overflowing_riccati_recursion_is_refused_by_name(matrices, named):
    # an SVD of the overflowed Gamma_t would raise LinAlgError instead
    tree = rademacher_tree(2)
    coeffs = LinearCoefficients.build(tree, 1, 1, x0=[1.0], **matrices)
    for run in (riccati_matrices, lambda c: check_solvability(c, tree), lambda c: solve_linear(c, tree)):
        with pytest.raises(NonFiniteSolutionError, match=rf"^{named} is not finite$"):
            run(coeffs)


def test_backward_pair_follows_decoupling_field():
    rng = np.random.default_rng(31)
    tree = random_tree(rng, 3)
    coeffs = random_linear_coefficients(rng, tree, 2, 2)
    mats = riccati_matrices(coeffs)
    # per t the block [q_t, r_t, w_t], with q_t = E[p_{t+1}|F_t] and r_t = E[p_{t+1} dW_t|F_t]
    blocks = _offset_backward(coeffs, tree, mats, _offset_slabs(coeffs))
    sol = solve_linear(coeffs, tree, matrices=mats)
    n = coeffs.n
    for t in range(tree.horizon):
        ex = tree.expect_next(sol.X.at(t + 1), t)
        exdw = tree.expect_next_increment(sol.X.at(t + 1), t)
        y_pred = np.einsum("ij,njk->nik", mats.P[t + 1], ex) + blocks[t][:, :n, None]
        z_pred = np.einsum("ij,njk->nik", mats.P[t + 1], exdw) + blocks[t][:, n : 2 * n, None]
        assert np.abs(sol.Y.at(t) - y_pred).max() <= RESIDUAL_TOL
        assert np.abs(sol.Z.at(t) - z_pred).max() <= RESIDUAL_TOL


def step_of_kind(rng, kind: str) -> IncrementDistribution:
    if kind == "rademacher":
        return IncrementDistribution.rademacher()
    if kind == "trinomial":
        return IncrementDistribution.trinomial(float(rng.uniform(0.1, 0.4)))
    return random_increments(rng, 4, 1)  # a whitened four-point step


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kinds=st.lists(st.sampled_from(["rademacher", "trinomial", "whitened"]), min_size=1, max_size=3),
    m=st.integers(1, 3),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_fused_offset_projections_equal_the_tree_kernels_bit_for_bit(kinds, m, n, seed):
    # [q_t, r_t] of each block, one product against [probs; probs * points],
    # is E[p_{t+1}|F_t] and E[p_{t+1} dW_t|F_t] exactly as the tree computes them
    rng = np.random.default_rng(seed)
    tree = ProbabilityTree([step_of_kind(rng, kind) for kind in kinds])
    coeffs = random_linear_coefficients(rng, tree, m, n)
    mats = riccati_matrices(coeffs)
    offsets = _offset_slabs(coeffs)
    _, _, dhat, (g,) = offsets
    blocks = _offset_backward(coeffs, tree, mats, offsets)
    T = tree.horizon
    p = (g[:, :, 0] @ (np.eye(n) - coeffs.Bhat[T]).T)[:, :, None] - dhat[T - 1]
    for t in range(T - 1, -1, -1):
        kernels = np.concatenate([tree.expect_next(p, t), tree.expect_next_increment(p, t)], axis=1)[:, :, 0]
        assert np.array_equal(blocks[t][:, : 2 * n], kernels)
        p = (blocks[t] @ mats.back[t].T)[:, :, None] - dhat[t - 1]


def sweep_order(slabs: tuple) -> list:
    """(name, t, slab) of the linear sweep in the order it computes them:
    X_{t+1}, Y_t and Z_t for t = 0..T-1, then Y_T."""
    x, y, z = slabs
    T = len(z)
    steps = [(("X", t + 1, x[t + 1]), ("Y", t, y[t]), ("Z", t, z[t])) for t in range(T)]
    return [*itertools.chain(*steps), ("Y", T, y[T])]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    part=st.sampled_from(list(OFFSETS)),
    bad=st.sampled_from([np.nan, np.inf, -np.inf, 1.79e308, -1.79e308]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_a_non_finite_offset_is_refused_at_the_first_non_finite_slab_of_the_sweep(part, bad, seed, data):
    # a non-finite entry, or a finite one whose products overflow somewhere downstream
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, data.draw(st.integers(1, 3), "horizon"))
    m, n = data.draw(st.integers(1, 2), "m"), data.draw(st.integers(1, 2), "n")
    coeffs = random_linear_coefficients(rng, tree, m, n)
    mats = riccati_matrices(coeffs)
    offsets = tuple([slab.copy() for slab in slabs] for slabs in _offset_slabs(coeffs))
    slabs = offsets[list(OFFSETS).index(part)]
    slab = slabs[data.draw(st.integers(0, len(slabs) - 1), "time index")]
    slab[data.draw(st.integers(0, len(slab) - 1), "node"), data.draw(st.integers(0, slab.shape[1] - 1), "row")] = bad

    # the same solve with its refusal switched off gives the slabs to walk here
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linear_fbsde, "refuse_non_finite", lambda tree, sweep: None)
        flat, views = _solve_linear(coeffs, mats, tree, offsets)
    assert all(np.shares_memory(flat, view) for part_views in views for view in part_views)
    walk = [(name, t, s) for name, t, s in sweep_order(views) if not np.isfinite(s).all()]
    if not walk:  # a finite value that did not overflow: nothing to refuse
        assert np.isfinite(flat).all()
        _solve_linear(coeffs, mats, tree, offsets)
        return
    name, t, first = walk[0]
    node = tree.nodes(t)[np.flatnonzero(~np.isfinite(first).all(axis=(1, 2)))[0]]
    with pytest.raises(NonFiniteSolutionError, match=rf"^{name}_{t} is not finite at node {re.escape(str(node))}$"):
        _solve_linear(coeffs, mats, tree, offsets)


def test_the_flat_vector_is_viewed_as_slabs_of_the_layout():
    rng = np.random.default_rng(47)
    tree = random_tree(rng, 3)
    coeffs = random_linear_coefficients(rng, tree, 2, 1)
    flat, slabs = _solve_linear(coeffs, riccati_matrices(coeffs), tree, _offset_slabs(coeffs))
    layout = tuple(tuple(slab.shape for slab in part) for part in slabs)
    counts = [tree.node_count(t) for t in range(tree.horizon + 1)]
    assert layout == (
        tuple((c, 2, 1) for c in counts), tuple((c, 1, 1) for c in counts), tuple((c, 1, 1) for c in counts[:-1])
    )
    views = _unflatten(flat, layout)
    assert tuple(tuple(view.shape for view in part) for part in views) == layout
    for ours, theirs in zip(itertools.chain(*views), itertools.chain(*slabs)):
        assert ours.base is flat and np.array_equal(ours, theirs)
    assert np.array_equal(np.concatenate([view.ravel() for view in itertools.chain(*views)]), flat)


def test_one_linear_solve_makes_one_gamma_solve_per_time_step(monkeypatch):
    # the offset pass solves Gamma_t once per t; the forward sweep only applies
    rng = np.random.default_rng(43)
    tree = random_tree(rng, 4)
    coeffs = random_linear_coefficients(rng, tree, 2, 2)
    mats = riccati_matrices(coeffs)
    solve = np.linalg.solve
    calls = []

    def counting_solve(a, b):
        calls.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    sol = solve_linear(coeffs, tree, matrices=mats)
    assert calls == [(4, 4)] * tree.horizon
    assert sol.residual_report.max <= RESIDUAL_TOL


def test_solution_is_affine_in_offset_data():
    rng = np.random.default_rng(37)
    tree = random_tree(rng, 3)
    coeffs = random_linear_coefficients(rng, tree, 2, 1, with_offsets=False)
    mats = riccati_matrices(coeffs)
    first = random_offsets(rng, tree, 2, 1)
    second = random_offsets(rng, tree, 2, 1)
    lam = 0.3
    mixed = {
        key: combine((lam, first[key]), (1.0 - lam, second[key]))
        for key in ("D", "Dbar", "Dhat", "g")
    }
    mixed["x0"] = lam * first["x0"] + (1.0 - lam) * second["x0"]
    sol_a = solve_linear(dataclasses.replace(coeffs, **first), tree, matrices=mats)
    sol_b = solve_linear(dataclasses.replace(coeffs, **second), tree, matrices=mats)
    sol_m = solve_linear(dataclasses.replace(coeffs, **mixed), tree, matrices=mats)
    for name in ("X", "Y", "Z", "N"):
        gap = combine((lam, getattr(sol_a, name)), (1.0 - lam, getattr(sol_b, name)), (-1.0, getattr(sol_m, name)))
        assert gap.sup_norm() <= RESIDUAL_TOL


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 3), m=st.integers(1, 2), n=st.integers(1, 2))
def test_permuting_a_steps_outcomes_permutes_the_solution(seed, horizon, m, n):
    # the offsets are per-node data: they move with their nodes; the rows at
    # t = 0 (Y_0 among them) stay where they are
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, horizon, (2, 3))
    coeffs = random_linear_coefficients(rng, tree, m, n)
    s = int(rng.integers(horizon))
    permuted, move = permute_step(tree, s, rng.permutation(tree.branch_count(s)))
    moved = dataclasses.replace(coeffs, **{name: move(getattr(coeffs, name)) for name in OFFSETS})
    ours, theirs = solve_linear(moved, permuted), solve_linear(coeffs, tree)
    for name in ("X", "Y", "Z", "N"):
        assert combine((1.0, getattr(ours, name)), (-1.0, move(getattr(theirs, name)))).sup_norm() <= EXACT_TOL, name


def planted_gamma(seed: int, sigma: float, t: int = 1) -> tuple[ProbabilityTree, LinearCoefficients]:
    """Random m = n = 2 coefficients on a horizon-3 tree whose Gamma_t has
    smallest singular value ``sigma``; only B_t, C_t, Bbar_t and Cbar_t
    move, so P_{t+1} and the later Gammas stay as they were."""
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, 3)
    coeffs = random_linear_coefficients(rng, tree, 2, 2)
    mats = riccati_matrices(coeffs)
    u, s, vt = np.linalg.svd(mats.gammas[t])
    # Gamma_t = I - BC_t blockdiag(P_{t+1}, P_{t+1}): shrink its last singular value to sigma
    lift = np.linalg.inv(np.kron(np.eye(2), mats.P[t + 1]))
    bc = mats.BC[t] + (s[-1] - sigma) * np.outer(u[:, -1], vt[-1]) @ lift
    moved = {}
    for name, block in (("B", bc[:2, :2]), ("C", bc[:2, 2:]), ("Bbar", bc[2:, :2]), ("Cbar", bc[2:, 2:])):
        moved[name] = getattr(coeffs, name).copy()
        moved[name][t] = block
    return tree, dataclasses.replace(coeffs, **moved)


@pytest.mark.parametrize("sigma", [1e-3, 1e-5])
def test_a_near_singular_gamma_costs_accuracy_only_in_proportion_to_its_condition(sigma):
    # the offset part solves Gamma_t for each level, which is backward stable:
    # the residual stays within c u kappa(Gamma_t).  c = 300 is about twice the
    # worst ratio of the per-level solve (144 at 1e-3, 25 at 1e-5 over these
    # 20 seeds); a sweep through a precomputed inverse of Gamma_t reached 7,880
    # at 1e-5
    for seed in range(20):
        tree, coeffs = planted_gamma(seed, sigma)
        mats = riccati_matrices(coeffs)
        assert mats.sigma_min[1] == pytest.approx(sigma, rel=1e-6)
        bound = 300 * np.finfo(float).eps * np.linalg.cond(mats.gammas[1])
        assert solve_linear(coeffs, tree, matrices=mats).residual_report.max <= bound, seed


def test_a_cancelling_decoupling_field_is_solved_to_a_few_ulp():
    # Gamma_1 = [[1, 1], [1, 1 + eps]] has smallest singular value near
    # eps / 2, so (u, v) = Gamma_1^{-1} [1 + A; Abar] are near 1/eps in size,
    # and with Chat_1 = Bhat_1 - 1 + delta, P_1 = (1 - Bhat_1)(u + v) - delta v
    # cancels them down to order one.  A check of P_t against its products in
    # the other order failed on 654 of these 720 points.  This cannot be one
    # more sigma of the near-singular test above: planted_gamma's P_t does not
    # cancel, and that check passed on all 60 of its seeds at each sigma of
    # 1e-6, 1e-7 and 1e-8.  The residual stays within a few ulp of the
    # solution's size on every point
    tree = rademacher_tree(2)
    grid = itertools.product(
        np.geomspace(1e-8, 1e-5, 10), (0.0, 1e-10, 1e-9, 1e-8, 3e-8, 1e-7), (1.7, -0.4, 2.5), (0.3, -0.6), (-0.2, 0.5)
    )
    for eps, delta, bhat, a, abar in grid:
        coeffs = LinearCoefficients.build(
            tree, 1, 1, G=[[1.0]], x0=[[1.0]], A=a, Abar=abar, C=-1.0, Bbar=-1.0, Cbar=-eps,
            Bhat=[[[bhat]], [[0.0]]], Chat=[[bhat - 1.0 + delta]], D=0.2, Dhat=-0.3, g=0.5,
        )
        sol = solve_linear(coeffs, tree)
        sup = max(part.sup_norm() for part in (sol.X, sol.Y, sol.Z))
        assert sol.residual_report.max <= 8 * np.spacing(sup), (eps, delta, bhat, a, abar)


def test_precomputed_matrices_reproduce_the_solve_exactly():
    rng = np.random.default_rng(41)
    tree = random_tree(rng, 2)
    coeffs = random_linear_coefficients(rng, tree, 1, 2)
    direct = solve_linear(coeffs, tree)
    reused = solve_linear(coeffs, tree, matrices=riccati_matrices(coeffs))
    for name in ("X", "Y", "Z", "N"):
        a, b = getattr(direct, name), getattr(reused, name)
        for t in range(a.t_lo, a.t_hi + 1):
            assert np.array_equal(a.at(t), b.at(t))


# -- construction and validation -------------------------------------------


def test_terminal_z_coupling_must_vanish():
    tree = rademacher_tree(2)
    bad = np.full((2, 1, 1), 0.4)  # per-time Chat for t = 1..2 with nonzero last
    with pytest.raises(ValueError, match="Chat at t=T"):
        LinearCoefficients.build(tree, 1, 1, G=[[1.0]], x0=[[0.0]], Chat=bad)
    # a single matrix is broadcast to interior times only
    coeffs = LinearCoefficients.build(tree, 1, 1, G=[[1.0]], x0=[[0.0]], Chat=[[0.4]])
    assert coeffs.Chat[1][0, 0] == 0.4
    assert coeffs.Chat[2][0, 0] == 0.0


def test_rank_deficient_terminal_coupling_rejected():
    tree = rademacher_tree(2)
    with pytest.raises(ValueError, match="full rank"):
        LinearCoefficients.build(
            tree, 2, 2, G=[[1.0, 2.0], [2.0, 4.0]], x0=np.zeros((2, 1))
        )
    # a wide matrix of full row rank is fine
    LinearCoefficients.build(tree, 2, 1, G=[[1.0, 2.0]], x0=np.zeros((2, 1)))


def test_shape_and_tree_validation():
    tree = rademacher_tree(2)
    with pytest.raises(ValueError, match="must be one"):
        LinearCoefficients.build(tree, 2, 1, G=[[1.0, 0.0]], x0=np.zeros((2, 1)), A=np.eye(3))
    with pytest.raises(ValueError):
        LinearCoefficients.build(tree, 1, 1, G=[[1.0]], x0=[[0.0, 0.0]])
    rng = np.random.default_rng(0)
    wide = random_tree(rng, 2, branch_choices=(4,), d=2)
    with pytest.raises(ValueError, match="one-dimensional"):
        LinearCoefficients.build(wide, 1, 1, G=[[1.0]], x0=[[0.0]])
    coeffs = LinearCoefficients.build(tree, 1, 1, G=[[1.0]], x0=[[0.0]])
    with pytest.raises(ValueError, match="horizon"):
        solve_linear(coeffs, rademacher_tree(3))
    with pytest.raises(ValueError, match="horizon"):
        check_solvability(coeffs, rademacher_tree(3))


@pytest.mark.parametrize("name", ["x0", *OFFSETS])
def test_a_wrong_size_initial_state_or_constant_offset_is_refused_by_name(name):
    tree = rademacher_tree(2)
    given = {"x0": [0.0], name: [1.0, 2.0]}
    with pytest.raises(ValueError, match=rf"^{name} must have shape \(1, 1\), got \(2,\)$"):
        LinearCoefficients.build(tree, 1, 1, G=[[1.0]], **given)
    if name == "x0":  # the constructor refuses it the same way
        coeffs = LinearCoefficients.build(tree, 1, 1, G=[[1.0]], x0=[0.0])
        with pytest.raises(ValueError, match=r"^x0 must have shape \(1, 1\), got \(2,\)$"):
            dataclasses.replace(coeffs, x0=[0.1, 0.2])


def _unit_coefficients() -> LinearCoefficients:
    return LinearCoefficients.build(rademacher_tree(2), 1, 1, G=[[1.0]], x0=[0.0])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: dataclasses.replace(_unit_coefficients(), m=0), "horizon and dimensions must be positive"),
        (
            lambda: dataclasses.replace(_unit_coefficients(), A=np.zeros((2, 2, 2))),
            "A must have shape (2, 1, 1), got (2, 2, 2)",
        ),
        (
            lambda: dataclasses.replace(_unit_coefficients(), D=np.zeros((2, 1, 1))),
            "D must be an adapted process on [0, 1]",
        ),
        (lambda: anchor_coefficients(rademacher_tree(2), [1.0, 2.0], 1.0, 1.0, [[0.0]]), "G must be a matrix"),
    ],
    ids=["dimension", "matrix-shape", "offset-type", "anchor-G"],
)
def test_malformed_coefficients_are_refused_by_name(build, message):
    with pytest.raises(ValueError) as refusal:
        build()
    assert str(refusal.value) == message


def test_offsets_on_a_tree_with_other_node_counts_are_refused():
    trinomial = ProbabilityTree([IncrementDistribution.trinomial(0.25)] * 2)
    rademacher = rademacher_tree(2)
    message = "^tree and coefficients disagree on the node count at t=1: 2 in the tree, 3 in D$"
    coeffs = LinearCoefficients.build(trinomial, 1, 1, G=[[1.0]], x0=[0.0], D=0.1)
    for run in (solve_linear, check_solvability, lambda c, tree: build_residual_system(tree, c)):
        with pytest.raises(ValueError, match=message):
            run(coeffs, rademacher)
    foreign = AdaptedProcess.constant(trinomial, np.array([[0.1]]), 0, 1)
    with pytest.raises(ValueError, match=message):
        LinearCoefficients.build(rademacher, 1, 1, G=[[1.0]], x0=[0.0], D=foreign)
    with pytest.raises(ValueError, match="^tree and coefficients disagree on the horizon$"):
        solve_linear(coeffs, rademacher_tree(3))


def test_a_misspelled_coefficient_is_a_type_error():
    with pytest.raises(TypeError, match="'Ahatt'"):
        LinearCoefficients.build(rademacher_tree(2), 1, 1, G=[[1.0]], x0=[0.0], Ahatt=0.2)


def _stored(name: str, value, T: int, m: int, n: int) -> bytes:
    """The stored array of coefficient ``name`` built from ``value``."""
    coeffs = LinearCoefficients.build(rademacher_tree(T), m, n, G=np.eye(n, m), x0=np.zeros(m), **{name: value})
    return getattr(coeffs, name).tobytes()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(sorted(MATRICES)),
    horizon=st.integers(1, 3),
    m=st.integers(1, 2),
    n=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_accepted_matrix_form_stores_the_same_array(name, horizon, m, n, seed):
    rng = np.random.default_rng(seed)
    rows, cols, side = MATRICES[name]
    dims = {"m": m, "n": n}
    single = rng.uniform(-0.5, 0.5, size=(dims[rows], dims[cols]))
    # a single Chat applies on 1..T-1 only: the terminal z-coupling is zero
    last = horizon - 1 if name == "Chat" else horizon
    stack = np.zeros((horizon,) + single.shape)
    stack[:last] = single
    first = 1 if side == "backward" else 0  # the unused slot 0 of a backward matrix
    stored = np.zeros((first + horizon,) + single.shape)
    stored[first : first + last] = single
    forms = [single, stack, single.tolist(), stack.tolist()]
    if single.shape == (1, 1):
        forms += [float(single[0, 0]), [float(single[0, 0])], stack[:, 0, 0], stack[:, 0, 0].tolist()]
    for form in forms:
        assert _stored(name, form, horizon, m, n) == stored.tobytes(), form


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    horizon=st.integers(1, 3),
    m=st.integers(1, 2),
    n=st.integers(1, 2),
    forms=st.lists(st.sampled_from(("none", "column", "flat", "process")), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_solvability_margins_are_bit_identical_under_offsets_in_every_form(horizon, m, n, forms, seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, horizon)
    coeffs = random_linear_coefficients(rng, tree, m, n, with_offsets=False)
    matrices = {name: getattr(coeffs, name)[side == "backward" :] for name, (_, _, side) in MATRICES.items()}
    dims = {"m": m, "n": n}
    offsets = {}
    for (name, (rows, side)), form in zip(OFFSETS.items(), forms):
        column = rng.uniform(-50.0, 50.0, size=(dims[rows], 1))
        process = random_process(rng, tree, column.shape, *domain(side, horizon), 50.0)
        offsets[name] = {"none": None, "column": column, "flat": column.ravel().tolist(), "process": process}[form]
    rebuilt = LinearCoefficients.build(tree, m, n, G=coeffs.G, x0=rng.uniform(-9, 9, size=m), **matrices, **offsets)
    for name in MATRICES:
        assert getattr(rebuilt, name).tobytes() == getattr(coeffs, name).tobytes()
    assert check_solvability(rebuilt, tree).entries == check_solvability(coeffs, tree).entries


def test_offset_copy_shares_homogeneous_arrays():
    tree = rademacher_tree(2)
    rng = np.random.default_rng(3)
    coeffs = random_linear_coefficients(rng, tree, 2, 2)
    other = dataclasses.replace(coeffs, **random_offsets(rng, tree, 2, 2))
    for name in ("A", "Abar", "B", "Bbar", "C", "Cbar", "Ahat", "Bhat", "Chat", "G"):
        assert getattr(other, name) is getattr(coeffs, name)
