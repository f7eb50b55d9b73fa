"""The slab-system layer's shared rules: every path evaluates the driver with
an all-zero z of the slab's shape at the horizon, one builder makes N, and
every map reads per-node data at the rows of the nodes it is given."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsdelta import (
    Generator,
    anchor_coefficients,
    bsde_residuals,
    build_residual_system,
    check_monotone,
    duality_gap,
    nonlinear_residual,
    solve_bsde,
    solve_continuation,
    solve_linear,
)
from fbsdelta.bsde import BackwardSystem, build_solution
from helpers import (
    mild_coupled_model,
    rademacher_tree,
    random_linear_coefficients,
    random_terminal,
    random_tree,
)


class RecordingDriver:
    """A driver ``fn(t, ..., z, nodes)`` that keeps (t, z, node count) of each call."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, t, *args):
        z, nodes = args[-2:]
        self.calls.append((t, np.array(z), len(nodes)))
        return self.fn(t, *args)

    def check_horizon(self, T: int, n: int, d: int) -> None:
        """At least one call at t = T, each with an all-zero (N, n, d) z."""
        at_horizon = [(z, count) for t, z, count in self.calls if t == T]
        assert at_horizon, "the driver was never evaluated at the horizon"
        for z, count in at_horizon:
            assert z.shape == (count, n, d)
            assert not z.any()
        self.calls.clear()


def _bsde(n=2, d=2):
    rng = np.random.default_rng(41)
    tree = random_tree(rng, 3, branch_choices=(3, 4), d=d)
    recorder = RecordingDriver(lambda t, y, z, nodes: -0.5 * y + 0.2 * np.tanh(z.sum(axis=2)))
    return tree, Generator(n=n, d=d, fn=recorder), random_terminal(rng, tree, n), recorder


def test_the_backward_solve_and_its_residuals_see_a_zero_z_at_the_horizon():
    tree, gen, eta, recorder = _bsde()
    sol = solve_bsde(tree, gen, eta)
    recorder.check_horizon(tree.horizon, 2, 2)
    assert bsde_residuals(tree, gen, eta, sol).max <= 1e-10
    recorder.check_horizon(tree.horizon, 2, 2)


def _recording_model(m=2):
    model = mild_coupled_model(m=m, seed=5)
    recorder = RecordingDriver(model.f)
    return dataclasses.replace(model, f=recorder), recorder


@pytest.mark.parametrize("kind", ["bsde", "nonlinear"])
def test_the_oracle_residual_sees_a_zero_z_at_the_horizon(kind):
    if kind == "bsde":
        tree, gen, eta, recorder = _bsde(n=1, d=1)
        system, n = build_residual_system(tree, gen, eta), 1
    else:
        model, recorder = _recording_model()
        tree = rademacher_tree(2)
        system, n = build_residual_system(tree, model), model.n
    system.residual(np.random.default_rng(3).uniform(-1.0, 1.0, system.size))
    recorder.check_horizon(tree.horizon, n, 1)


def test_the_continuation_its_residual_the_monotonicity_check_and_the_duality_pairing_see_a_zero_z_at_the_horizon():
    model, recorder = _recording_model()
    tree = rademacher_tree(3)
    sol = solve_continuation(model, tree).solution
    recorder.check_horizon(tree.horizon, model.n, 1)
    assert nonlinear_residual(model, tree, sol).max <= 1e-8
    recorder.check_horizon(tree.horizon, model.n, 1)
    check_monotone(model, tree, samples=20, beta1=0.0, beta2=0.0)
    recorder.check_horizon(tree.horizon, model.n, 1)
    anchor = anchor_coefficients(tree, model.G, model.beta1, model.beta2, model.x0)
    duality_gap(tree, model, sol, anchor, solve_linear(anchor, tree))
    recorder.check_horizon(tree.horizon, model.n, 1)


def test_the_backward_solve_builds_the_same_n_as_the_solution_builder():
    tree, gen, eta, _ = _bsde()
    sol = solve_bsde(tree, gen, eta)
    rebuilt = build_solution(BackwardSystem(tree, gen, eta), tree, None, sol.Y.values, sol.Z.values)
    assert rebuilt.X is None
    assert len(rebuilt.N.values) == len(sol.N.values)
    for ours, theirs in zip(sol.N.values, rebuilt.N.values):
        assert np.array_equal(ours, theirs)
    assert rebuilt.N.sup_norm() > 0.0  # the driver's z-dependence leaves a nonzero N


def _node_values(nodes) -> np.ndarray:
    """A value per row that reads the outcome tuple of the row's node."""
    return np.array([sum((k + 1) * 0.1**i for i, k in enumerate(node)) for node in nodes]).reshape(-1, 1, 1)


def _problem(kind: str, rng: np.random.Generator, tree):
    """A slab system of ``kind`` on ``tree`` whose maps read per-node data."""
    if kind == "linear":
        return random_linear_coefficients(rng, tree, 2, 1)
    if kind == "nonlinear":
        model = mild_coupled_model(m=2, seed=int(rng.integers(100)))
        return dataclasses.replace(
            model,
            b=lambda t, x, y, z, nodes: model.b(t, x, y, z, nodes) + _node_values(nodes),
            f=lambda t, x, y, z, nodes: model.f(t, x, y, z, nodes) * (1.0 + _node_values(nodes)),
            h=lambda x, nodes: model.h(x, nodes) - _node_values(nodes),
        )
    gen = Generator(n=2, d=1, fn=lambda t, y, z, nodes: np.tanh(y) * _node_values(nodes)[:, :, 0] - z[:, :, 0])
    return BackwardSystem(tree, gen, random_terminal(rng, tree, 2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["linear", "nonlinear", "backward"]), seed=st.integers(0, 2**16), data=st.data())
def test_each_map_on_a_rank_subset_equals_the_whole_slabs_rows(kind, seed, data):
    # the rows of a subset, repeats and any order allowed, read their own
    # nodes' data; within a few ulps, since NumPy's SIMD tails may differ
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, 3)
    problem = _problem(kind, rng, tree)
    T, m, n = tree.horizon, problem.m, problem.n
    t = data.draw(st.integers(0, T), label="t")
    level = tree.nodes(t)
    ranks = np.array(data.draw(st.lists(st.integers(0, len(level) - 1), min_size=1, max_size=2 * len(level))))
    x, y, z = (rng.uniform(-1.0, 1.0, size=(len(level), rows, 1)) for rows in (m, n, n))
    maps = []
    if m and t < T:
        maps += [problem.drift, problem.noise_loading]
    if t:
        maps.append(problem.driver)
    for fn in maps:
        whole = fn(t, x, y, z, level)
        part = fn(t, x[ranks], y[ranks], z[ranks], level[ranks])
        np.testing.assert_allclose(part, whole[ranks], rtol=0, atol=8 * np.finfo(float).eps * np.abs(whole).max())
    if t == T:
        whole = problem.terminal(x, level)
        part = problem.terminal(x[ranks], level[ranks])
        np.testing.assert_allclose(part, whole[ranks], rtol=0, atol=8 * np.finfo(float).eps * np.abs(whole).max())
