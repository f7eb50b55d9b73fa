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
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .filtration import (
    AdaptedProcess,
    ProbabilityTree,
    is_martingale,
    is_strongly_orthogonal,
    sup_abs,
)

if TYPE_CHECKING:
    from .linear_fbsde import ResidualReport

GeneratorFn = Callable[[int, np.ndarray, np.ndarray, Sequence[tuple]], np.ndarray]


class NonFiniteSolutionError(ArithmeticError):
    """A solution is not finite: the solver's own arithmetic overflowed on
    finite values, or a non-finite result was about to be written out."""


def refuse_non_finite(tree: ProbabilityTree, sweep) -> None:
    """Raise NonFiniteSolutionError naming the first non-finite slab of
    ``sweep``, (name, t, slab) triples in sweep order."""
    for name, t, slab in sweep:
        if not np.isfinite(slab).all():
            rows = ~np.isfinite(slab.reshape(slab.shape[0], -1)).all(axis=1)
            raise NonFiniteSolutionError(f"{name}_{t} is not finite at node {tree.nodes(t)[np.argmax(rows)]}")


def compensator_slabs(tree: ProbabilityTree, aggregates: list, y_slabs: list, z_slabs: list) -> list[np.ndarray]:
    """Slabs of N for t = 0..T: N_0 = 0 and
    N_{t+1} = N_t + aggregates[t] - Y_t - Z_t dW_t, where ``aggregates[t]``
    is the time-(t+1) one-step aggregate Y_{t+1} + f(t+1, ...)."""
    n = y_slabs[0].shape[1]
    n_slabs = [np.zeros((1, n, 1))]
    for t in range(tree.horizon):
        zdw = np.einsum("nrd,kd->nkr", z_slabs[t], tree.steps[t].points)
        delta_n = tree.children_view(aggregates[t], t) - y_slabs[t][:, None, :, :] - zdw[:, :, :, None]
        n_slabs.append(np.repeat(n_slabs[t], tree.branch_count(t), axis=0) + delta_n.reshape(-1, n, 1))
    return n_slabs


def driver_terms(problem, tree: ProbabilityTree, x, y: list, z: list) -> tuple[list, list]:
    """The negated drivers of the slab system ``problem`` along the slab lists
    x (X_0..X_T, or None when m = 0), y (Y_0..Y_T) and z (Z_0..Z_{T-1}), and
    the one-step aggregates Y_t + f(t, ...) they make; index t - 1 holds time
    t = 1..T.  The driver is evaluated with z = None (zero) at T."""
    horizon = tree.horizon
    minus_f = [
        problem.minus_driver(t, None if x is None else x[t], y[t], z[t] if t < horizon else None, tree.nodes(t))
        for t in range(1, horizon + 1)
    ]
    return minus_f, [y[t + 1] - slab for t, slab in enumerate(minus_f)]


def backward_defect(tree: ProbabilityTree, t: int, y: list, z: list, n: list, minus_f: np.ndarray) -> np.ndarray:
    """Defect of the backward equation from t to t + 1 on the time-(t+1)
    slab: (Y_{t+1} - Y_t) - (-f) - Z_t dW_t - (N_{t+1} - N_t), where
    ``minus_f`` is the negated driver at t + 1."""
    k = tree.branch_count(t)
    dy = y[t + 1] - np.repeat(y[t], k, axis=0)
    dn = n[t + 1] - np.repeat(n[t], k, axis=0)
    zdw = np.einsum("nrd,kd->nkr", z[t], tree.steps[t].points)
    return dy - minus_f - zdw.reshape(dy.shape) - dn


@dataclass(frozen=True)
class Generator:
    """Driver of a backward equation, evaluated one time slab at a time.

    ``fn(t, y, z, nodes)`` takes ``y`` of shape (N, n), ``z`` of shape
    (N, n, d) and the N tree nodes the rows belong to (on a whole slab,
    ``tree.nodes(t)``), and returns the driver values as an (N, n) array.
    It must not modify its arguments.  Per-node drivers
    ``fn(t, y, z, node)`` with ``y`` of length n and ``z`` of shape (n, d)
    are wrapped by :meth:`pointwise`.  ``terminal_z_independent`` declares
    that the driver ignores z at the horizon; solving requires it.
    """

    n: int
    d: int
    fn: GeneratorFn
    terminal_z_independent: bool = True

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
class BackwardSystem:
    """A plain backward equation as a slab system: the coupled system with no
    forward state (m = 0), driver ``gen`` and terminal data ``eta``.  It
    answers ``minus_driver`` and ``terminal_map`` of the slab protocol that
    LinearCoefficients and NonlinearModel share; with m = 0 nothing calls
    ``forward_terms``, so it has none."""

    tree: ProbabilityTree
    gen: Generator
    eta: AdaptedProcess
    m = 0

    def __post_init__(self):
        gen, eta, horizon = self.gen, self.eta, self.tree.horizon
        if gen.d != self.tree.d:
            raise ValueError(f"driver noise dimension {gen.d} does not match tree (d={self.tree.d})")
        if not eta.t_lo <= horizon <= eta.t_hi:
            raise ValueError("terminal data must be defined at the tree horizon")
        if eta.shape != (gen.n, 1):
            raise ValueError(f"terminal data must be ({gen.n}, 1)-valued, got {eta.shape}")

    @property
    def n(self) -> int:
        return self.gen.n

    @property
    def x0(self) -> np.ndarray:
        return np.zeros((0, 1))

    def minus_driver(self, t: int, x, y, z, nodes) -> np.ndarray:
        return -self.gen.on_slab(self.tree, t, y, z)

    def terminal_map(self, x, nodes) -> np.ndarray:
        return self.eta.at(self.tree.horizon)


@dataclass(frozen=True)
class FbsdeSolution:
    """Solution of a forward-backward system, with its residual report when
    the solver checked one.  ``X`` is None for a plain backward equation."""

    X: AdaptedProcess | None
    Y: AdaptedProcess
    Z: AdaptedProcess
    N: AdaptedProcess
    residual_report: ResidualReport | None = None


def solve_bsde(tree: ProbabilityTree, gen: Generator, eta: AdaptedProcess) -> FbsdeSolution:
    """Solve the backward equation exactly by one backward sweep.

    Raises NonFiniteSolutionError if the sweep overflows.  Non-finite driver
    values are passed on, and every residual check reads them as inf.
    """
    if not gen.terminal_z_independent:
        raise ValueError("the driver must not depend on z at the terminal time")
    BackwardSystem(tree, gen, eta)  # validates the dimensions and the terminal data
    horizon = tree.horizon

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

        n_slabs = compensator_slabs(tree, aggregates, y_slabs, z_slabs)

    def sweep():
        for t in range(horizon - 1, -1, -1):  # drivers[t] holds f at t + 1
            if not np.isfinite(drivers[t]).all():
                return  # non-finite driver values are passed on to the residual checks
            yield from (("Y", t, y_slabs[t]), ("Z", t, z_slabs[t]))
        yield from (("N", t, slab) for t, slab in enumerate(n_slabs))

    # N_T sums the slabs of the sweep along each path to a leaf, so it is
    # finite unless one of them overflowed
    if not np.isfinite(n_slabs[horizon]).all():
        refuse_non_finite(tree, sweep())

    return FbsdeSolution(
        X=None,
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
    tree: ProbabilityTree, gen: Generator, eta: AdaptedProcess, sol: FbsdeSolution
) -> BsdeResidualReport:
    """Evaluate the backward equation, the terminal condition and N's checks
    pathwise; unlike the coupled report, no projection of the aggregate."""
    system = BackwardSystem(tree, gen, eta)
    horizon = tree.horizon
    y, z, n = sol.Y.values, sol.Z.values, sol.N.values
    minus_f, _ = driver_terms(system, tree, None, y, z)
    return BsdeResidualReport(
        equation=max(sup_abs(backward_defect(tree, t, y, z, n, minus_f[t])) for t in range(horizon)),
        terminal=sup_abs(y[horizon] - system.terminal_map(None, tree.nodes(horizon))),
        martingale=is_martingale(tree, sol.N).residual,
        orthogonality=is_strongly_orthogonal(tree, sol.N).residual,
    )


def solution_energy(tree: ProbabilityTree, sol: FbsdeSolution) -> dict[str, float]:
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
