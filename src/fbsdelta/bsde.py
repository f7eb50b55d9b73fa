"""Exact solver for backward stochastic difference equations on finite trees.

Given a terminal value eta and a driver f, the solution triple (Y, Z, N)
satisfies, pathwise on the tree,

    Y_{t+1} - Y_t = -f(t+1, Y_{t+1}, Z_{t+1}) + Z_t dW_t + (N_{t+1} - N_t),

with Y_T = eta, N_0 = 0, N a martingale strongly orthogonal to the driving
noise.  On a finite tree the recursion is closed-form: project the one-step
aggregate Y_{t+1} + f(t+1, ...) onto F_t and onto the increment directions,
and let N absorb the remainder.  The driver must not depend on z at the
terminal time; there it is evaluated with z = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .filtration import (
    AdaptedProcess,
    CheckResult,
    ProbabilityTree,
    is_martingale,
    is_strongly_orthogonal,
    sup_abs,
)

GeneratorFn = Callable[[int, np.ndarray, np.ndarray, Sequence[tuple]], np.ndarray]


class NonFiniteSolutionError(ArithmeticError):
    """A solution is not finite: the solver's own arithmetic overflowed on
    finite values, or a non-finite result was about to be written out."""


def _refuse_overflow(tree: ProbabilityTree, drivers: list, y_slabs: list, z_slabs: list, n_slabs: list) -> None:
    """Raise NonFiniteSolutionError naming the first non-finite slab of the
    sweep that was built from finite driver values only."""
    # N_T sums the aggregate, Y and Z dW terms along each path to a leaf, so
    # it is finite exactly when every slab of the sweep is
    if np.isfinite(n_slabs[-1]).all():
        return
    for t in range(len(drivers) - 1, -1, -1):  # sweep order; drivers[t] holds f at t + 1
        if not np.isfinite(drivers[t]).all():
            return  # non-finite driver values are passed on to the residual checks
        _require_finite(tree, "Y", t, y_slabs[t])
        _require_finite(tree, "Z", t, z_slabs[t])
    for t, slab in enumerate(n_slabs):
        _require_finite(tree, "N", t, slab)


def _require_finite(tree: ProbabilityTree, name: str, t: int, slab: np.ndarray) -> None:
    rows = ~np.isfinite(slab.reshape(slab.shape[0], -1)).all(axis=1)
    if rows.any():
        raise NonFiniteSolutionError(f"{name}_{t} is not finite at node {tree.nodes(t)[np.argmax(rows)]}")


@dataclass(frozen=True)
class Generator:
    """Driver of a backward equation, evaluated one time slab at a time.

    ``fn(t, y, z, nodes)`` takes ``y`` of shape (N, n), ``z`` of shape
    (N, n, d) and the N tree nodes the rows belong to (on a whole slab,
    ``tree.nodes(t)``), and returns the driver values as an (N, n) array.
    It must not modify its arguments.  Per-node drivers
    ``fn(t, y, z, node)`` with ``y`` of length n and ``z`` of shape (n, d)
    are wrapped by :meth:`pointwise`.  ``terminal_z_independent`` declares
    that the driver ignores z at the horizon; solving requires it.  Optional
    Lipschitz constants are carried for diagnostics only.
    """

    n: int
    d: int
    fn: GeneratorFn
    terminal_z_independent: bool = True
    lipschitz_c1: float | None = None
    lipschitz_c2: float | None = None

    @classmethod
    def pointwise(cls, n: int, d: int, fn: Callable[[int, np.ndarray, np.ndarray, tuple], np.ndarray], **options):
        """Generator from a per-node driver, called once per row of a slab."""

        def slab_fn(t, y, z, nodes):
            out = np.empty((len(nodes), n))
            for i, node in enumerate(nodes):
                out[i] = np.asarray(fn(t, y[i], z[i], node), dtype=float).reshape(n)
            return out

        return cls(n, d, slab_fn, **options)

    def on_slab(self, tree: ProbabilityTree, t: int, y_slab: np.ndarray, z_slab: np.ndarray | None) -> np.ndarray:
        """Driver values on the whole time-t slab as (N, n, 1); z = 0 when ``z_slab`` is None."""
        count = y_slab.shape[0]
        if z_slab is None:
            z_slab = np.zeros((count, self.n, self.d))
        value = np.asarray(self.fn(t, y_slab[:, :, 0], z_slab, tree.nodes(t)), dtype=float)
        return value.reshape(count, self.n, 1)


@dataclass(frozen=True)
class BsdeSolution:
    """Solution triple: Y on [0,T], Z on [0,T-1], N on [0,T]."""

    Y: AdaptedProcess
    Z: AdaptedProcess
    N: AdaptedProcess


def solve_bsde(tree: ProbabilityTree, gen: Generator, eta: AdaptedProcess) -> BsdeSolution:
    """Solve the backward equation exactly by one backward sweep.

    Raises NonFiniteSolutionError if the sweep overflows.  Non-finite driver
    values are passed on, and every residual check reads them as inf.
    """
    if not gen.terminal_z_independent:
        raise ValueError("the driver must not depend on z at the terminal time")
    if gen.d != tree.d:
        raise ValueError(f"driver noise dimension {gen.d} does not match tree (d={tree.d})")
    horizon = tree.horizon
    if not eta.t_lo <= horizon <= eta.t_hi:
        raise ValueError("terminal data must be defined at the tree horizon")
    if eta.shape != (gen.n, 1):
        raise ValueError(f"terminal data must be ({gen.n}, 1)-valued, got {eta.shape}")

    y_slabs: list[np.ndarray] = [np.empty(0)] * (horizon + 1)
    z_slabs: list[np.ndarray | None] = [None] * (horizon + 1)
    aggregates: list[np.ndarray] = [np.empty(0)] * horizon
    drivers: list[np.ndarray] = [np.empty(0)] * horizon
    y_slabs[horizon] = np.array(eta.at(horizon))

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon - 1, -1, -1):
            drivers[t] = gen.on_slab(tree, t + 1, y_slabs[t + 1], z_slabs[t + 1])
            aggregate = y_slabs[t + 1] + drivers[t]
            aggregates[t] = aggregate
            y_slabs[t] = tree.expect_next(aggregate, t)
            z_slabs[t] = tree.expect_next_increment(aggregate, t)

        n_slabs = [np.zeros((1, gen.n, 1))]
        for t in range(horizon):
            k = tree.branch_count(t)
            zdw = np.einsum("nrd,kd->nkr", z_slabs[t], tree.steps[t].points)
            grouped = tree.children_view(aggregates[t], t)
            delta_n = grouped - y_slabs[t][:, None, :, :] - zdw[:, :, :, None]
            n_slabs.append(np.repeat(n_slabs[t], k, axis=0) + delta_n.reshape(tree.node_count(t + 1), gen.n, 1))
    _refuse_overflow(tree, drivers, y_slabs, z_slabs[:horizon], n_slabs)

    return BsdeSolution(
        Y=AdaptedProcess(tree, 0, horizon, tuple(y_slabs)),
        Z=AdaptedProcess(tree, 0, horizon - 1, tuple(z_slabs[:horizon])),
        N=AdaptedProcess(tree, 0, horizon, tuple(n_slabs)),
    )


@dataclass(frozen=True)
class BsdeResidualReport:
    """Worst pathwise residuals of a candidate backward-equation solution."""

    equation: float
    terminal: float
    martingale: float
    orthogonality: float

    @property
    def max(self) -> float:
        return max(self.equation, self.terminal, self.martingale, self.orthogonality)


def bsde_residuals(
    tree: ProbabilityTree, gen: Generator, eta: AdaptedProcess, sol: BsdeSolution
) -> BsdeResidualReport:
    """Evaluate the defining equation of the backward system pathwise."""
    horizon = tree.horizon
    worst_eq = 0.0
    for t in range(horizon):
        z_next = sol.Z.at(t + 1) if t + 1 < horizon else None
        f_next = gen.on_slab(tree, t + 1, sol.Y.at(t + 1), z_next)
        k = tree.branch_count(t)
        dy = sol.Y.at(t + 1) - np.repeat(sol.Y.at(t), k, axis=0)
        dn = sol.N.at(t + 1) - np.repeat(sol.N.at(t), k, axis=0)
        zdw = np.einsum("nrd,kd->nkr", sol.Z.at(t), tree.steps[t].points)
        resid = dy + f_next - zdw.reshape(dy.shape) - dn
        worst_eq = max(worst_eq, sup_abs(resid))
    terminal = sup_abs(sol.Y.at(horizon) - eta.at(horizon))
    mart: CheckResult = is_martingale(tree, sol.N)
    orth: CheckResult = is_strongly_orthogonal(tree, sol.N)
    return BsdeResidualReport(
        equation=worst_eq,
        terminal=terminal,
        martingale=mart.residual,
        orthogonality=orth.residual,
    )


def solution_energy(tree: ProbabilityTree, sol: BsdeSolution) -> dict[str, float]:
    """Squared-norm diagnostics under both summation conventions for Y.

    Reported keys: expected sum of |Y_t|^2 with and without the terminal
    slice, expected sum of |Z_t|^2, and expected sum of |N_{t+1} - N_t|^2.
    """
    horizon = tree.horizon

    def mean_sq(slab: np.ndarray, t: int) -> float:
        probs = tree.node_probabilities(t)
        return float(probs @ (slab.reshape(slab.shape[0], -1) ** 2).sum(axis=1))

    y_below = sum(mean_sq(sol.Y.at(t), t) for t in range(horizon))
    y_full = y_below + mean_sq(sol.Y.at(horizon), horizon)
    z_sum = sum(mean_sq(sol.Z.at(t), t) for t in range(horizon))
    dn_sum = 0.0
    for t in range(horizon):
        k = tree.branch_count(t)
        dn = sol.N.at(t + 1) - np.repeat(sol.N.at(t), k, axis=0)
        dn_sum += mean_sq(dn, t + 1)
    return {
        "y_sq_sum_before_terminal": y_below,
        "y_sq_sum_with_terminal": y_full,
        "z_sq_sum": z_sum,
        "n_increment_sq_sum": dn_sum,
    }


def spot_check_terminal_independence(
    tree: ProbabilityTree, gen: Generator, samples: int = 32, seed: int = 0, box: float = 5.0
) -> float:
    """Max observed |fn(T,y,z) - fn(T,y,z')| over random pairs; 0 means clean."""
    rng = np.random.default_rng(seed)
    horizon = tree.horizon
    leaves = tree.nodes(horizon)
    worst = 0.0
    for _ in range(samples):
        node = leaves[int(rng.integers(len(leaves)))]
        y = rng.uniform(-box, box, size=gen.n)
        z1 = rng.uniform(-box, box, size=(gen.n, gen.d))
        z2 = rng.uniform(-box, box, size=(gen.n, gen.d))
        rows = gen.fn(horizon, np.stack([y, y]), np.stack([z1, z2]), (node, node))
        f1, f2 = np.asarray(rows, dtype=float)
        worst = max(worst, sup_abs(f1 - f2))
    return worst


def spot_check_lipschitz(
    tree: ProbabilityTree, gen: Generator, samples: int = 200, seed: int = 0, box: float = 5.0
) -> dict[str, float | bool | None]:
    """Sampled Lipschitz diagnostic for the driver.

    Estimates the steepest observed variation in y (with z frozen) and in z
    (with y frozen) over random pairs and times; when the generator declares
    constants, reports whether the observations stay below them.
    """
    rng = np.random.default_rng(seed)
    horizon = tree.horizon
    c1_obs = 0.0
    c2_obs = 0.0
    for _ in range(samples):
        t = int(rng.integers(1, horizon + 1))
        nodes = tree.nodes(t)
        node = nodes[int(rng.integers(len(nodes)))]
        y1, y2 = rng.uniform(-box, box, size=(2, gen.n))
        z1, z2 = rng.uniform(-box, box, size=(2, gen.n, gen.d))
        if t == horizon:
            z1 = z2 = np.zeros((gen.n, gen.d))
        # one 3-row slab: (y1, z1), (y2, z1), (y1, z2)
        rows = gen.fn(t, np.stack([y1, y2, y1]), np.stack([z1, z1, z2]), (node,) * 3)
        f11, f21, f12 = np.asarray(rows, dtype=float)
        dy = float(np.linalg.norm(y1 - y2))
        if dy > 0:
            c1_obs = max(c1_obs, float(np.linalg.norm(f11 - f21)) / dy)
        dz = float(np.linalg.norm(z1 - z2))
        if dz > 0:
            c2_obs = max(c2_obs, float(np.linalg.norm(f11 - f12)) / dz)
    within: bool | None = None
    if gen.lipschitz_c1 is not None and gen.lipschitz_c2 is not None:
        within = c1_obs <= gen.lipschitz_c1 + 1e-9 and c2_obs <= gen.lipschitz_c2 + 1e-9
    return {"observed_c1": c1_obs, "observed_c2": c2_obs, "within_declared": within}
