"""Tree construction, conditional kernels, and the process-level checks."""

import numpy as np
import pytest

from fbsdelta import (
    AdaptedProcess,
    IncrementDistribution,
    ProbabilityTree,
    is_martingale,
    is_strongly_orthogonal,
    validate_increments,
)
from fbsdelta.filtration import NODE_BUDGET

from helpers import rademacher_tree, random_increments, random_process, random_tree

MOMENT_TOL = 1e-12
EXACT_TOL = 1e-12


def test_structural_length_mismatch_raises():
    with pytest.raises(ValueError, match="mismatched lengths"):
        IncrementDistribution(points=[[-1.0], [1.0]], probs=[0.5, 0.3, 0.2])


def test_biased_two_point_step_fails_mean_condition():
    dist = IncrementDistribution(points=[[-1.0], [1.0]], probs=[0.6, 0.4])
    report = validate_increments(dist)
    assert not report.ok
    names = dict(report.failures)
    assert "mean_zero" in names
    assert names["mean_zero"] == pytest.approx(0.2, abs=1e-15)


def test_rademacher_and_trinomial_are_valid():
    assert validate_increments(IncrementDistribution.rademacher()).ok
    tri = IncrementDistribution.trinomial(1.0 / 6.0)
    assert validate_increments(tri).ok
    assert tri.points[:, 0] == pytest.approx([-np.sqrt(3.0), 0.0, np.sqrt(3.0)])
    assert tri.probs == pytest.approx([1 / 6, 2 / 3, 1 / 6])


def test_trinomial_parameter_domain():
    with pytest.raises(ValueError):
        IncrementDistribution.trinomial(0.5)
    with pytest.raises(ValueError):
        IncrementDistribution.trinomial(0.0)


def test_random_steps_satisfy_moments():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(d + 1, d + 4))
        report = validate_increments(random_increments(rng, k, d))
        assert report.ok, report.failures


def test_tree_rejects_invalid_step():
    bad = IncrementDistribution(points=[[-1.0], [1.0]], probs=[0.6, 0.4])
    with pytest.raises(ValueError, match="mean_zero"):
        ProbabilityTree([IncrementDistribution.rademacher(), bad])


def test_tree_refuses_more_nodes_than_the_budget_before_counting_them():
    rademacher, trinomial = IncrementDistribution.rademacher(), IncrementDistribution.trinomial(0.25)
    assert ProbabilityTree([rademacher] * 21).node_count(21) == NODE_BUDGET
    assert ProbabilityTree([rademacher] * 10 + [trinomial] * 6).node_count(16) == 2**10 * 3**6
    with pytest.raises(ValueError, match=r"^the tree would have 2\^22 nodes at its horizon, over the node budget of 2097152$"):
        ProbabilityTree([rademacher] * 22)
    with pytest.raises(ValueError, match=r"^the tree would have 2\^10 \* 3\^8 nodes at its horizon"):
        ProbabilityTree([trinomial] * 8 + [rademacher] * 10)


def test_tree_rejects_mixed_dimensions():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="noise dimension|share one noise"):
        ProbabilityTree([IncrementDistribution.rademacher(), random_increments(rng, 3, 2)])


def test_node_ordering_and_probabilities():
    tree = ProbabilityTree([IncrementDistribution.rademacher(), IncrementDistribution.trinomial(0.25)])
    assert tree.node_count(2) == 6
    nodes = tree.nodes(2)
    assert nodes == tuple(sorted(nodes))  # lexicographic
    assert nodes[0] == (0, 0) and nodes[-1] == (1, 2)
    for i, node in enumerate(nodes):
        assert tree.node_index(node) == i
    probs = tree.node_probabilities(2)
    assert probs.sum() == pytest.approx(1.0, abs=MOMENT_TOL)
    assert probs[0] == pytest.approx(0.5 * 0.25)
    assert probs[1] == pytest.approx(0.5 * 0.5)


def test_conditional_expectation_tower_property():
    rng = np.random.default_rng(11)
    tree = random_tree(rng, horizon=3, branch_choices=(2, 3), d=1)
    x = random_process(rng, tree, (2, 1), 3, 3)
    one_step = tree.expect_next(x.at(3), 2)
    two_step = tree.expect_next(one_step, 1)
    # direct two-step weights
    direct = np.zeros((tree.node_count(1), 2, 1))
    p2, p3 = tree.steps[1].probs, tree.steps[2].probs
    grouped = x.at(3).reshape(tree.node_count(1), p2.size, p3.size, 2, 1)
    direct = np.einsum("j,k,njkrc->nrc", p2, p3, grouped)
    assert np.abs(two_step - direct).max() <= EXACT_TOL


def test_increment_covariation_recovers_identity():
    rng = np.random.default_rng(5)
    for d in (1, 2):
        tree = random_tree(rng, horizon=2, branch_choices=(d + 1, d + 2), d=d)
        for t in range(tree.horizon):
            k = tree.branch_count(t)
            # the increment itself, viewed one slot ahead as a (d,1) process slice
            vals = np.tile(tree.steps[t].points[:, :, None], (tree.node_count(t), 1, 1))
            cov = tree.expect_next_increment(vals, t)
            assert np.abs(cov - np.eye(d)).max() <= MOMENT_TOL


def test_product_rule_identity_pathwise():
    rng = np.random.default_rng(13)
    tree = random_tree(rng, horizon=4, branch_choices=(2, 3), d=1)
    x = random_process(rng, tree, (1, 1), 0, 4)
    y = random_process(rng, tree, (1, 1), 0, 4)
    for t in range(4):
        k = tree.branch_count(t)
        xt, yt = np.repeat(x.at(t), k, axis=0), np.repeat(y.at(t), k, axis=0)
        xn, yn = x.at(t + 1), y.at(t + 1)
        lhs = xn * yn - xt * yt
        rhs = xn * (yn - yt) + (xn - xt) * yt
        assert np.abs(lhs - rhs).max() <= EXACT_TOL


def test_martingale_check_accepts_projected_process():
    rng = np.random.default_rng(3)
    tree = random_tree(rng, horizon=3, branch_choices=(2, 3), d=2)
    terminal = random_process(rng, tree, (2, 1), 3, 3)
    slabs = [terminal.at(3)]
    for t in (2, 1, 0):
        slabs.insert(0, tree.expect_next(slabs[0], t))
    mart = AdaptedProcess(tree, 0, 3, tuple(slabs))
    ok, residual = is_martingale(tree, mart)
    assert ok and residual <= EXACT_TOL

    bumped = [np.array(s) for s in slabs]
    bumped[1][0, 0, 0] += 0.5
    ok, residual = is_martingale(tree, AdaptedProcess(tree, 0, 3, tuple(bumped)))
    assert not ok and residual >= 0.1


def test_strong_orthogonality_check():
    tree = ProbabilityTree([IncrementDistribution.trinomial(0.25)] * 2)
    # increments w^2 - 1 are mean-zero and, by symmetry, orthogonal to w
    def centered_square(t, node):
        if t == 0:
            return np.zeros((1, 1))
        w = tree.steps[len(node) - 1].points[node[-1], 0]
        return np.array([[w * w - 1.0]])

    base = AdaptedProcess.from_node_function(tree, centered_square, (1, 1), 0, 1)
    ok, residual = is_strongly_orthogonal(tree, base)
    assert ok and residual <= EXACT_TOL
    ok_m, _ = is_martingale(tree, base)
    assert ok_m

    # the increment w itself correlates with w: orthogonality must fail
    def linear(t, node):
        if t == 0:
            return np.zeros((1, 1))
        return np.array([[tree.steps[len(node) - 1].points[node[-1], 0]]])

    lin = AdaptedProcess.from_node_function(tree, linear, (1, 1), 0, 1)
    ok, residual = is_strongly_orthogonal(tree, lin)
    assert not ok and residual == pytest.approx(1.0, abs=1e-12)


def test_adapted_process_validation_and_access():
    tree = rademacher_tree(2)
    with pytest.raises(ValueError, match="rows"):
        AdaptedProcess(tree, 0, 1, (np.zeros((1, 1, 1)), np.zeros((3, 1, 1))))
    # a constant is one (rows, cols) array; a flat vector is refused, not read as a column
    with pytest.raises(ValueError, match=r"^slices must have shape \(nodes, rows, cols\), got \(1, 2\)$"):
        AdaptedProcess.constant(tree, np.array([2.0, 1.0]), 0, 1)
    proc = AdaptedProcess.constant(tree, np.array([[2.0], [1.0]]), 0, 2)
    assert proc.shape == (2, 1)
    assert proc.value(2, (1, 0))[0, 0] == 2.0
    with pytest.raises(ValueError):
        proc.value(1, (0, 1))  # node from the wrong time slice
    with pytest.raises(ValueError):
        proc.at(5)
    # slices are frozen
    with pytest.raises(ValueError):
        proc.at(0)[0, 0, 0] = 3.0


def test_adapted_process_algebra_and_expectation():
    rng = np.random.default_rng(21)
    tree = random_tree(rng, 2, (2,), 1)
    a = random_process(rng, tree, (1, 1), 0, 2)
    b = random_process(rng, tree, (1, 1), 0, 2)
    s = a + 2.0 * b - b
    assert np.abs(s.at(1) - (a.at(1) + b.at(1))).max() <= EXACT_TOL
    assert (a - a).sup_norm() == 0.0
    manual = float(tree.node_probabilities(2) @ a.at(2)[:, 0, 0])
    assert tree.expect_next(tree.expect_next(a.at(2), 1), 0)[0, 0, 0] == pytest.approx(manual, abs=EXACT_TOL)


def test_kernels_require_a_slab_of_the_next_time():
    rng = np.random.default_rng(2)
    tree = rademacher_tree(2)
    x = random_process(rng, tree, (1, 2), 1, 1)
    with pytest.raises(ValueError):
        tree.expect_next(x.at(1), 1)  # two nodes, where time 2 has four
    with pytest.raises(ValueError):
        tree.expect_next_increment(x.at(1), 0)  # not a column vector
