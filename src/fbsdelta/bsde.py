"""Exact solver for backward stochastic difference equations on finite trees.

Given a terminal value eta and a driver f, the solution triple (Y, Z, N)
satisfies, pathwise on the tree,

    Y_{t+1} - Y_t = -f(t+1, Y_{t+1}, Z_{t+1}) + Z_t dW_t + (N_{t+1} - N_t),

with Y_T = eta, N_0 = 0, N a martingale strongly orthogonal to the driving
noise.  On a finite tree the recursion is closed-form: project the one-step
aggregate Y_{t+1} + f(t+1, ...) onto F_t and onto the increment directions,
and let N absorb the remainder.  The driver must not depend on z at the
terminal time; there it is evaluated with z = 0.  :func:`driver_terms` and
:func:`build_solution` are the slab-system layer every solver shares.
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
    per_node,
    sup_abs,
)

if TYPE_CHECKING:
    from .linear_fbsde import ResidualReport

__all__ = [
    "BackwardSystem", "BsdeResidualReport", "FbsdeSolution", "Generator", "NonFiniteSolutionError",
    "bsde_residuals", "solve_bsde",
]

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
    """The drivers f of the slab system ``problem`` along the slab lists
    x (X_0..X_T, or None when m = 0), y (Y_0..Y_T) and z (Z_0..Z_{T-1}), and
    the one-step aggregates Y_t + f(t, ...) they make; index t - 1 holds time
    t = 1..T.  At T it passes a zero (N_T, n, d) slab for z, as the sweep
    of :func:`solve_bsde` and ``check_monotone`` do.  The slabs may be
    stacks of copies of whole levels, as in
    :func:`~fbsdelta.linear_fbsde.equation_defects`."""
    horizon, copies, f = tree.horizon, len(y[0]), []
    for t in range(1, horizon + 1):
        z_t = z[t] if t < horizon else np.zeros((len(y[t]), problem.n, tree.d))
        f.append(problem.driver(t, None if x is None else x[t], y[t], z_t, tree.nodes(t).tile(copies)))
    return f, [y[t + 1] + slab for t, slab in enumerate(f)]


def backward_defect(tree: ProbabilityTree, t: int, y: list, z: list, n: list, f: np.ndarray) -> np.ndarray:
    """Defect of the backward equation from t to t + 1 on the time-(t+1)
    slab: (Y_{t+1} - Y_t) + f - Z_t dW_t - (N_{t+1} - N_t), where ``f`` is
    the driver at t + 1."""
    k = tree.branch_count(t)
    dy = y[t + 1] - np.repeat(y[t], k, axis=0)
    dn = n[t + 1] - np.repeat(n[t], k, axis=0)
    zdw = np.einsum("nrd,kd->nkr", z[t], tree.steps[t].points)
    return dy + f - zdw.reshape(dy.shape) - dn


@dataclass(frozen=True)
class Generator:
    """Driver of a backward equation, evaluated one time slab at a time.

    ``fn(t, y, z, nodes)`` takes ``y`` of shape (N, n), ``z`` of shape
    (N, n, d) and the N tree nodes the rows belong to (on a whole slab,
    ``tree.nodes(t)``), and returns the driver values as an (N, n) array.
    ``nodes`` is a read-only sequence of outcome tuples in rank order:
    indexing decodes one, slicing or a rank array gives another sequence,
    and nothing is stored per node.
    It must not modify its arguments.  Per-node drivers
    ``fn(t, y, z, node)`` with ``y`` of length n and ``z`` of shape (n, d)
    are wrapped by :meth:`pointwise`.  At the horizon the driver is
    evaluated with z = 0.
    """

    n: int
    d: int
    fn: GeneratorFn

    @classmethod
    def pointwise(cls, n: int, d: int, fn: Callable[[int, np.ndarray, np.ndarray, tuple], np.ndarray]):
        """Generator from a per-node driver, called once per row of a slab."""
        return cls(n, d, per_node(fn, (n,)))


@dataclass(frozen=True)
class BackwardSystem:
    """A plain backward equation as a slab system: the coupled system with no
    forward state (m = 0), driver ``gen`` and terminal data ``eta``.  It
    answers ``driver`` and ``terminal`` of the slab protocol that
    LinearCoefficients and NonlinearModel share; with m = 0 nothing asks for
    ``drift`` or ``noise_loading``, so it has neither."""

    tree: ProbabilityTree
    gen: Generator
    eta: AdaptedProcess
    m = 0
    x0 = np.zeros((0, 1))

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

    def driver(self, t: int, x, y, z, nodes) -> np.ndarray:
        """``gen.fn`` on the (N, n, 1) slab ``y`` as (N, n, 1); ``x`` is not read."""
        return np.asarray(self.gen.fn(t, y[:, :, 0], z, nodes), dtype=float).reshape(len(nodes), self.n, 1)

    def terminal(self, x, nodes) -> np.ndarray:
        """``eta`` at the rows of ``nodes``; ``x`` is not read."""
        return nodes.take(self.eta.at(self.tree.horizon))


@dataclass(frozen=True)
class FbsdeSolution:
    """Solution of a forward-backward system, with its residual report when
    the solver checked one.  ``X`` is None for a plain backward equation."""

    X: AdaptedProcess | None
    Y: AdaptedProcess
    Z: AdaptedProcess
    N: AdaptedProcess
    residual_report: ResidualReport | None = None


@np.errstate(over="ignore", invalid="ignore")  # each caller reads or refuses a non-finite N itself
def build_solution(problem, tree: ProbabilityTree, x, y: list, z: list, aggregates: list | None = None) -> FbsdeSolution:
    """The solution of the slab system ``problem`` with the slab lists x
    (X_0..X_T, or None when m = 0), y (Y_0..Y_T) and z (Z_0..Z_{T-1}), and
    the N they fix, from the one-step aggregates of :func:`driver_terms`
    (``aggregates`` when the caller already holds them)."""
    if aggregates is None:
        aggregates = driver_terms(problem, tree, x, y, z)[1]
    T = tree.horizon
    n = compensator_slabs(tree, aggregates, y, z)
    return FbsdeSolution(
        X=None if x is None else AdaptedProcess(tree, 0, T, tuple(x)),
        Y=AdaptedProcess(tree, 0, T, tuple(y)),
        Z=AdaptedProcess(tree, 0, T - 1, tuple(z)),
        N=AdaptedProcess(tree, 0, T, tuple(n)),
    )


def solve_bsde(tree: ProbabilityTree, gen: Generator, eta: AdaptedProcess) -> FbsdeSolution:
    """Solve the backward equation exactly by one backward sweep.

    Raises NonFiniteSolutionError if the sweep overflows or the terminal
    data is not finite.  Non-finite driver values are passed on, and every
    residual check reads them as inf.
    """
    system = BackwardSystem(tree, gen, eta)  # validates the dimensions and the terminal data
    horizon = tree.horizon

    y_slabs: list[np.ndarray] = [np.empty(0)] * horizon + [np.array(eta.at(horizon))]
    z_slabs: list[np.ndarray] = [np.empty(0)] * horizon
    aggregates: list[np.ndarray] = [np.empty(0)] * horizon
    z_next = np.zeros((tree.node_count(horizon), gen.n, tree.d))  # z = 0 at T

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(horizon - 1, -1, -1):
            driver = system.driver(t + 1, None, y_slabs[t + 1], z_next, tree.nodes(t + 1))
            aggregates[t] = y_slabs[t + 1] + driver
            y_slabs[t] = tree.expect_next(aggregates[t], t)
            z_slabs[t] = z_next = tree.expect_next_increment(aggregates[t], t)

    sol = build_solution(system, tree, None, y_slabs, z_slabs, aggregates)
    # N_T sums the slabs of the sweep along each path to a leaf, so it is
    # finite unless one of them overflowed
    if np.isfinite(sol.N.at(horizon)).all():
        return sol

    # Non-finite driver values go on to the residual checks, so the scan stops
    # above the largest t whose driver (f at t + 1) is not finite.  Y is
    # finite above some time and not at or below it, so that t can only be
    # where the aggregate turns non-finite over a finite Y_{t+1}; the driver
    # there, evaluated again, tells a non-finite driver from a sum that overflowed.
    finite = [np.isfinite(slab).all() for slab in y_slabs[1:]]
    last_bad = next((t for t in range(horizon - 1, -1, -1) if finite[t] and not np.isfinite(aggregates[t]).all()), -1)
    if last_bad >= 0:
        z_at = z_slabs[last_bad + 1] if last_bad + 1 < horizon else np.zeros((tree.node_count(horizon), gen.n, tree.d))
        with np.errstate(over="ignore", invalid="ignore"):
            driver = system.driver(last_bad + 1, None, y_slabs[last_bad + 1], z_at, tree.nodes(last_bad + 1))
        if np.isfinite(driver).all():
            last_bad = -1

    def sweep():
        for t in range(horizon - 1, last_bad, -1):
            yield from (("Y", t, y_slabs[t]), ("Z", t, z_slabs[t]))
        if last_bad < 0:
            yield from (("N", t, slab) for t, slab in enumerate(sol.N.values))

    refuse_non_finite(tree, sweep())
    return sol


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
    f, _ = driver_terms(system, tree, None, y, z)
    return BsdeResidualReport(
        equation=max(sup_abs(backward_defect(tree, t, y, z, n, f[t])) for t in range(horizon)),
        terminal=sup_abs(y[horizon] - system.terminal(None, tree.nodes(horizon))),
        martingale=is_martingale(tree, sol.N).residual,
        orthogonality=is_strongly_orthogonal(tree, sol.N).residual,
    )
