"""Backward matrix recursion, solvability verdicts, and exact linear solves."""

import dataclasses

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
    check_solvability,
    linear_residual,
    nonlinear_residual,
    reconstruct_compensator,
    riccati_matrices,
    solve_linear,
)
from fbsdelta.linear_fbsde import _offset_backward, _offset_slabs, _solvable_matrices
from helpers import (
    rademacher_tree,
    random_increments,
    random_linear_coefficients,
    random_offsets,
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
    compensator = reconstruct_compensator(model, tree, sol.X, sol.Y, sol.Z)
    assert (compensator - sol.N).sup_norm() <= EXACT_TOL


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
    for run in (riccati_matrices, check_solvability, lambda c: solve_linear(c, tree)):
        with pytest.raises(NonFiniteSolutionError, match=rf"^{named} is not finite$"):
            run(coeffs)


def test_backward_pair_follows_decoupling_field():
    rng = np.random.default_rng(31)
    tree = random_tree(rng, 3)
    coeffs = random_linear_coefficients(rng, tree, 2, 2)
    mats = riccati_matrices(coeffs)
    p = _offset_backward(coeffs, tree, mats, _offset_slabs(coeffs))[0]  # p_t at index t = 1..T
    sol = solve_linear(coeffs, tree, matrices=mats)
    for t in range(tree.horizon):
        ex = tree.expect_next(sol.X.at(t + 1), t)
        exdw = tree.expect_next_increment(sol.X.at(t + 1), t)
        ep = tree.expect_next(p[t + 1], t)
        epdw = tree.expect_next_increment(p[t + 1], t)
        y_pred = np.einsum("ij,njk->nik", mats.P[t + 1], ex) + ep
        z_pred = np.einsum("ij,njk->nik", mats.P[t + 1], exdw) + epdw
        assert np.abs(sol.Y.at(t) - y_pred).max() <= RESIDUAL_TOL
        assert np.abs(sol.Z.at(t) - z_pred).max() <= RESIDUAL_TOL


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
        key: first[key] * lam + second[key] * (1.0 - lam)
        for key in ("D", "Dbar", "Dhat", "g")
    }
    mixed["x0"] = lam * first["x0"] + (1.0 - lam) * second["x0"]
    sol_a = solve_linear(dataclasses.replace(coeffs, **first), tree, matrices=mats)
    sol_b = solve_linear(dataclasses.replace(coeffs, **second), tree, matrices=mats)
    sol_m = solve_linear(dataclasses.replace(coeffs, **mixed), tree, matrices=mats)
    for name in ("X", "Y", "Z", "N"):
        combo = getattr(sol_a, name) * lam + getattr(sol_b, name) * (1.0 - lam)
        assert (getattr(sol_m, name) - combo).sup_norm() <= RESIDUAL_TOL


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


def test_offset_copy_shares_homogeneous_arrays():
    tree = rademacher_tree(2)
    rng = np.random.default_rng(3)
    coeffs = random_linear_coefficients(rng, tree, 2, 2)
    other = dataclasses.replace(coeffs, **random_offsets(rng, tree, 2, 2))
    for name in ("A", "Abar", "B", "Bbar", "C", "Cbar", "Ahat", "Bhat", "Chat", "G"):
        assert getattr(other, name) is getattr(coeffs, name)
