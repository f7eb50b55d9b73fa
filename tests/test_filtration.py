"""Tree construction, node sequences, conditional kernels, and the process-level checks."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsdelta import (
    AdaptedProcess,
    IncrementDistribution,
    ProbabilityTree,
    is_martingale,
    is_strongly_orthogonal,
    validate_increments,
)
from fbsdelta.filtration import NODE_BUDGET, NodeSequence, sup_abs

from helpers import combine, rademacher_tree, random_increments, random_process, random_tree

MOMENT_TOL = 1e-12
EXACT_TOL = 1e-12


def test_structural_length_mismatch_raises():
    with pytest.raises(ValueError, match="mismatched lengths"):
        IncrementDistribution(points=[[-1.0], [1.0]], probs=[0.5, 0.3, 0.2])


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: IncrementDistribution(points=np.zeros((2, 1, 1)), probs=[0.5, 0.5]),
            "increment points must form a (K, d) array",
        ),
        (
            lambda: IncrementDistribution(points=np.zeros((0, 1)), probs=[]),
            "an increment step needs at least one outcome",
        ),
        (lambda: IncrementDistribution(points=[[-np.inf], [1.0]], probs=[0.5, 0.5]), "increment data must be finite"),
        (lambda: ProbabilityTree([]), "a tree needs at least one time step"),
        (lambda: rademacher_tree(2).node_count(3), "time 3 outside [0, 2]"),
        (lambda: rademacher_tree(2).nodes(3), "time 3 outside [0, 2]"),
        (lambda: rademacher_tree(2).nodes(-1), "time -1 outside [0, 2]"),
        (lambda: rademacher_tree(2).nodes(2)[np.array([0])].index((1, 1)), "(1, 1) is not in this node sequence"),
        (lambda: AdaptedProcess(rademacher_tree(2), 1, 3, ()), "domain [1, 3] outside [0, 2]"),
        (
            lambda: AdaptedProcess(rademacher_tree(2), 0, 1, (np.zeros((1, 1, 1)),)),
            "one value array per time in the domain is required",
        ),
        (
            lambda: AdaptedProcess(rademacher_tree(2), 0, 1, (np.zeros((1, 1, 1)), np.zeros((2, 2, 1)))),
            "slice at t=1 must have shape (nodes, 1, 1)",
        ),
    ],
    ids=[
        "points-rank", "no-outcome", "non-finite", "no-step", "time", "nodes-after", "nodes-before", "ranked-index",
        "domain", "slab-count", "slab-shape",
    ],
)
def test_malformed_filtration_data_is_refused_by_name(build, message):
    with pytest.raises(ValueError) as refusal:
        build()
    assert str(refusal.value) == message


def test_sup_abs_of_an_empty_array_is_zero():
    assert sup_abs(np.empty((0, 2, 1))) == 0.0


def test_biased_two_point_step_fails_mean_condition():
    dist = IncrementDistribution(points=[[-1.0], [1.0]], probs=[0.6, 0.4])
    report = validate_increments(dist)
    assert not report.ok
    names = dict(report.failures)
    assert "mean_zero" in names
    assert names["mean_zero"] == pytest.approx(0.2, abs=1e-15)


@pytest.mark.parametrize("probs, residual", [([0.5, 0.0, 0.5], 0.0), ([0.5, -0.0, 0.5], 0.0), ([0.6, -0.1, 0.5], 0.1)])
def test_the_positivity_check_reports_a_nonnegative_residual(probs, residual):
    report = validate_increments(IncrementDistribution(points=[[-1.0], [0.0], [1.0]], probs=probs))
    got = dict(report.failures)["probabilities_strictly_positive"]
    assert got == residual and np.copysign(1.0, got) == 1.0


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
    assert tuple(nodes) == tuple(sorted(nodes))  # lexicographic
    assert nodes[0] == (0, 0) and nodes[-1] == (1, 2)
    for i, node in enumerate(nodes):
        assert node[0] * 3 + node[1] == i  # mixed-radix rank: children of rank r take ranks 3r..3r+2
    probs = tree.node_probabilities(2)
    assert probs.sum() == pytest.approx(1.0, abs=MOMENT_TOL)
    assert probs[0] == pytest.approx(0.5 * 0.25)
    assert probs[1] == pytest.approx(0.5 * 0.5)


def _check_node_sequence(nodes, expected: list, data) -> None:
    """``nodes`` against the tuple list ``expected``: length, every index,
    NumPy integers, slices, rank arrays, iteration, ``index`` and refusals."""
    n = len(expected)
    assert len(nodes) == n
    assert [nodes[i] for i in range(-n, n)] == expected + expected
    for i in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)):
        assert nodes[np.int64(i)] == nodes[np.uint16(i)] == nodes[np.int32(i - n)] == expected[i]
    assert tuple(nodes) == tuple(expected)
    assert list(reversed(nodes)) == expected[::-1]
    for i, node in enumerate(expected):
        assert nodes.index(node) == i and node in nodes
        wide = tuple(map(np.int64, node))
        assert nodes.index(wide) == i and wide in nodes
    for bad in (n, -n - 1, np.int64(n)):
        with pytest.raises(IndexError):
            nodes[bad]
    with pytest.raises(IndexError):
        nodes[np.array([0, n])]
    # a digit out of its range (a huge or a negative one) is no node either
    out_of_range = [(digit,) + expected[0][1:] for digit in (10**30, -1)] if expected[0] else []
    for outside in ((0,) * (len(expected[0]) + 1), [0] * len(expected[0]), "0", *out_of_range):
        with pytest.raises(ValueError):
            nodes.index(outside)
        assert outside not in nodes
    cut = data.draw(st.slices(n))
    part = nodes[cut]
    assert isinstance(part, NodeSequence) and tuple(part) == tuple(expected[cut])
    assert [part[i] for i in range(len(part))] == expected[cut]
    ranks = data.draw(st.lists(st.integers(-n, n - 1), max_size=2 * n))
    picked = nodes[np.array(ranks, dtype=np.int64)]
    assert isinstance(picked, NodeSequence)
    assert tuple(picked) == tuple(expected[i] for i in ranks)
    assert [picked[i] for i in range(-len(ranks), len(ranks))] == [expected[i] for i in ranks * 2]
    for node in picked:
        assert picked[picked.index(node)] == node
    # a list or a tuple (a node passed where its index belongs) is refused
    for bad in (list(ranks), tuple(ranks), expected[0], 0.0, np.array([0.0]), np.zeros((1, 1), dtype=int)):
        with pytest.raises(TypeError):
            nodes[bad]
    if ranks and len(part):
        # a rank array into a slice, and a slice of a rank array
        inner = [i % len(part) for i in ranks]
        assert tuple(part[np.array(inner)]) == tuple(expected[cut][i] for i in inner)
        assert tuple(nodes[np.array(ranks)][1::2]) == tuple(expected[i] for i in ranks[1::2])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(radices=st.lists(st.integers(1, 4), max_size=6), data=st.data())
def test_a_node_sequence_reads_as_the_tuple_of_its_nodes(radices, data):
    expected = list(itertools.product(*map(range, radices)))
    _check_node_sequence(NodeSequence(tuple(radices)), expected, data)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(counts=st.lists(st.integers(2, 4), min_size=1, max_size=6), data=st.data())
def test_each_tree_level_is_one_cached_node_sequence(counts, data):
    # a one-outcome step cannot be centred with unit variance, so trees
    # branch 2 to 4 ways; the sequence test above also takes one-way steps
    rng = np.random.default_rng(len(counts))
    tree = ProbabilityTree([random_increments(rng, k, 1) for k in counts])
    for t in range(tree.horizon + 1):
        assert tree.nodes(t) is tree.nodes(t)
        _check_node_sequence(tree.nodes(t), list(itertools.product(*map(range, counts[:t]))), data)


def test_long_partial_node_sequences_iterate_in_order():
    nodes = rademacher_tree(13).nodes(13)
    expected = list(itertools.product(range(2), repeat=13))
    assert tuple(nodes[1:]) == tuple(expected[1:])
    assert tuple(nodes[::-3]) == tuple(expected[::-3])
    ranks = np.random.default_rng(0).integers(len(expected), size=10_000)
    assert tuple(nodes[ranks]) == tuple(expected[i] for i in ranks)


@pytest.mark.parametrize("horizon", [16, 21])  # 21: the node budget
def test_a_tree_level_stores_no_node_tuples(horizon):
    # measured 14 kB at both horizons, and 11 MB at 2^16 leaves when they were
    # a tuple of tuples
    n = 2**horizon
    tracemalloc.start()
    try:
        tree = rademacher_tree(horizon)
        leaves = tree.nodes(horizon)
        assert len(leaves) == n and leaves[-1] == (1,) * horizon and leaves.index((1,) * horizon) == n - 1
        assert leaves.index(leaves[n - 2]) == n - 2
        assert tuple(leaves[np.array([0, -1, n - 1])]) == ((0,) * horizon, (1,) * horizon, (1,) * horizon)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


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
    assert proc.at(2)[tree.nodes(2).index((1, 0)), 0, 0] == 2.0
    with pytest.raises(ValueError):
        proc.at(5)
    # slices are frozen
    with pytest.raises(ValueError):
        proc.at(0)[0, 0, 0] = 3.0


def test_a_fresh_float_slab_is_frozen_in_place_not_copied():
    tree = rademacher_tree(1)
    root, leaves = np.zeros((1, 1, 1)), np.array([[[1.0]], [[2.0]]])
    proc = AdaptedProcess(tree, 0, 1, (root, leaves))
    assert proc.at(0) is root and proc.at(1) is leaves
    assert not root.flags.writeable and not leaves.flags.writeable


def _foreign_slab(kind):
    if kind == "view":
        return np.array([[[1.0]], [[9.0]], [[2.0]]])[::2]
    if kind == "int":
        return np.array([[[1]], [[2]]])
    if kind == "read-only":
        slab = np.array([[[1.0]], [[2.0]]])
        slab.setflags(write=False)
        return slab
    return [[[1.0]], [[2.0]]]


@pytest.mark.parametrize("kind", ["view", "int", "read-only", "list"])
def test_any_other_slab_is_copied(kind):
    tree = rademacher_tree(1)
    slab = _foreign_slab(kind)
    writeable = slab.flags.writeable if isinstance(slab, np.ndarray) else None
    proc = AdaptedProcess(tree, 1, 1, (slab,))
    held = proc.at(1)
    assert held is not slab and not np.shares_memory(held, np.asarray(slab))
    assert held.dtype == np.float64 and not held.flags.writeable
    assert np.array_equal(held[:, 0, 0], [1.0, 2.0])
    if writeable is not None:
        assert slab.flags.writeable == writeable  # the caller's array is left as it was


def test_adapted_process_algebra_and_expectation():
    rng = np.random.default_rng(21)
    tree = random_tree(rng, 2, (2,), 1)
    a = random_process(rng, tree, (1, 1), 0, 2)
    b = random_process(rng, tree, (1, 1), 0, 2)
    s = combine((1.0, a), (2.0, b), (-1.0, b))
    assert np.abs(s.at(1) - (a.at(1) + b.at(1))).max() <= EXACT_TOL
    assert combine((1.0, a), (-1.0, a)).sup_norm() == 0.0
    manual = float(tree.node_probabilities(2) @ a.at(2)[:, 0, 0])
    assert tree.expect_next(tree.expect_next(a.at(2), 1), 0)[0, 0, 0] == pytest.approx(manual, abs=EXACT_TOL)


def test_kernels_on_a_stack_of_whole_levels_equal_one_call_per_level():
    rng = np.random.default_rng(4)
    tree = random_tree(rng, 3, branch_choices=(2, 3))
    for t in range(tree.horizon):
        levels = [rng.uniform(-1.0, 1.0, size=(tree.node_count(t + 1), 2, 1)) for _ in range(3)]
        for kernel in (tree.expect_next, tree.expect_next_increment):
            for k in (1, 2, 3):
                stacked = kernel(np.concatenate(levels[:k]), t)
                assert np.array_equal(stacked, np.concatenate([kernel(level, t) for level in levels[:k]]))
        with pytest.raises(ValueError, match="whole time-"):
            tree.expect_next(np.concatenate(levels)[1:], t)


def test_kernels_require_a_slab_of_the_next_time():
    rng = np.random.default_rng(2)
    tree = rademacher_tree(2)
    x = random_process(rng, tree, (1, 2), 1, 1)
    with pytest.raises(ValueError):
        tree.expect_next(x.at(1), 1)  # two nodes, where time 2 has four
    with pytest.raises(ValueError):
        tree.expect_next_increment(x.at(1), 0)  # not a column vector
