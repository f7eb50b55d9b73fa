"""Finite filtered probability spaces driven by i.i.d.-in-law increment steps.

The randomness model is a dense product tree: at each time step the driving
noise takes one of finitely many vector values, so a node at time t is the
tuple of outcome indices chosen so far.  All conditional operators reduce to
weighted sums over the children of a node, which makes every solver in this
package exact up to floating-point rounding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "AdaptedProcess", "CheckResult", "IncrementDistribution", "MomentReport", "ProbabilityTree",
    "is_martingale", "is_strongly_orthogonal", "validate_increments",
]

# Tolerance for the moment conditions a driving-noise step must satisfy.
MOMENT_TOL = 1e-12
# Tolerance below which a process is accepted as a martingale / orthogonal.
MARTINGALE_TOL = 1e-10


class CheckResult(NamedTuple):
    """Outcome of a numerical property check: verdict plus worst residual."""

    ok: bool
    residual: float


class MomentReport(NamedTuple):
    """Validation outcome for one increment step.

    ``failures`` lists (condition-name, residual) pairs for every condition
    that is violated beyond :data:`MOMENT_TOL`.
    """

    ok: bool
    failures: tuple[tuple[str, float], ...]


def sup_abs(a: np.ndarray) -> float:
    """Largest absolute entry, 0 for an empty array, and inf as soon as any
    entry is not finite, so that a NaN can never pass a check as 0."""
    if a.size == 0:
        return 0.0
    worst = float(np.abs(a).max())
    return worst if math.isfinite(worst) else math.inf


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class IncrementDistribution:
    """Finite-support law of one noise increment in R^d.

    ``points`` has shape (K, d) and ``probs`` shape (K,).  A valid step is
    normalised (probabilities strictly positive, summing to one), centred
    (zero mean) and isotropic (second moment equal to the identity); use
    :func:`validate_increments` to check those conditions.
    """

    points: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=float))
        probs = np.asarray(self.probs, dtype=float).reshape(-1)
        if points.ndim != 2:
            raise ValueError("increment points must form a (K, d) array")
        if points.shape[0] != probs.shape[0]:
            raise ValueError(
                "increment points and probabilities have mismatched lengths: "
                f"{points.shape[0]} vs {probs.shape[0]}"
            )
        if points.shape[0] == 0:
            raise ValueError("an increment step needs at least one outcome")
        if not (np.isfinite(points).all() and np.isfinite(probs).all()):
            raise ValueError("increment data must be finite")
        object.__setattr__(self, "points", _readonly(points))
        object.__setattr__(self, "probs", _readonly(probs))

    @property
    def branch_count(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @classmethod
    def rademacher(cls) -> "IncrementDistribution":
        """Fair one-dimensional two-point step at -1 and +1."""
        return cls(points=[[-1.0], [1.0]], probs=[0.5, 0.5])

    @classmethod
    def trinomial(cls, p: float) -> "IncrementDistribution":
        """Symmetric three-point step: +-sqrt(1/(2p)) and 0, probs (p, 1-2p, p)."""
        p = float(p)
        if not 0.0 < p < 0.5:
            raise ValueError("trinomial parameter must lie in (0, 1/2)")
        a = np.sqrt(1.0 / (2.0 * p))
        return cls(points=[[-a], [0.0], [a]], probs=[p, 1.0 - 2.0 * p, p])


def validate_increments(dist: IncrementDistribution, tol: float = MOMENT_TOL) -> MomentReport:
    """Check positivity, normalisation, zero mean and unit second moment."""
    failures: list[tuple[str, float]] = []
    probs, points = dist.probs, dist.points
    min_p = float(probs.min())
    if min_p <= 0.0:
        failures.append(("probabilities_strictly_positive", -min_p))
    sum_dev = abs(float(probs.sum()) - 1.0)
    if sum_dev > tol:
        failures.append(("probabilities_sum_to_one", sum_dev))
    mean = probs @ points
    mean_dev = float(np.abs(mean).max())
    if mean_dev > tol:
        failures.append(("mean_zero", mean_dev))
    second = np.einsum("k,ki,kj->ij", probs, points, points)
    second_dev = float(np.abs(second - np.eye(dist.d)).max())
    if second_dev > tol:
        failures.append(("second_moment_identity", second_dev))
    return MomentReport(ok=not failures, failures=tuple(failures))


class ProbabilityTree:
    """Dense product tree generated by a sequence of increment steps.

    Nodes at time t are tuples of outcome indices ``(k_0, ..., k_{t-1})``,
    ordered lexicographically; the children of the node with rank r at time t
    occupy the contiguous ranks ``r*K_t .. (r+1)*K_t - 1`` at time t+1.
    """

    def __init__(self, steps: Sequence[IncrementDistribution]):
        steps = tuple(steps)
        if not steps:
            raise ValueError("a tree needs at least one time step")
        d = steps[0].d
        for t, step in enumerate(steps):
            if step.d != d:
                raise ValueError(
                    f"all steps must share one noise dimension; step {t} has d={step.d}, expected {d}"
                )
            report = validate_increments(step)
            if not report.ok:
                conditions = ", ".join(f"{name} (residual {res:.3e})" for name, res in report.failures)
                raise ValueError(f"invalid increment step at t={t}: {conditions}")
        self.steps = steps
        self.horizon = len(steps)
        self.d = d
        counts = [1]
        for step in steps:
            counts.append(counts[-1] * step.branch_count)
        self._counts = tuple(counts)
        self._nodes_cache: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._probs_cache: dict[int, np.ndarray] = {}

    # -- bookkeeping ---------------------------------------------------

    def branch_count(self, t: int) -> int:
        return self.steps[t].branch_count

    def node_count(self, t: int) -> int:
        if not 0 <= t <= self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        return self._counts[t]

    def nodes(self, t: int) -> tuple[tuple[int, ...], ...]:
        """All nodes at time t in lexicographic (= rank) order."""
        if t not in self._nodes_cache:
            self.node_count(t)
            ranges = [range(self.steps[s].branch_count) for s in range(t)]
            self._nodes_cache[t] = tuple(itertools.product(*ranges))
        return self._nodes_cache[t]

    def node_index(self, node: tuple[int, ...]) -> int:
        """Rank of a node among the nodes of its own time slice."""
        rank = 0
        for t, k in enumerate(node):
            step = self.steps[t]
            if not 0 <= k < step.branch_count:
                raise ValueError(f"outcome index {k} at position {t} out of range")
            rank = rank * step.branch_count + k
        return rank

    def node_probabilities(self, t: int) -> np.ndarray:
        """Unconditional probabilities of the nodes at time t (rank order)."""
        if t not in self._probs_cache:
            self.node_count(t)
            p = np.ones(1)
            for s in range(t):
                p = np.repeat(p, self.steps[s].branch_count) * np.tile(self.steps[s].probs, p.size)
            self._probs_cache[t] = _readonly(p)
        return self._probs_cache[t]

    def children_view(self, values_next: np.ndarray, t: int) -> np.ndarray:
        """Reshape a time-(t+1) value array to (count(t), K_t, ...)."""
        k = self.branch_count(t)
        return values_next.reshape((self.node_count(t), k) + values_next.shape[1:])

    # -- conditional kernels on raw arrays -----------------------------

    def expect_next(self, values_next: np.ndarray, t: int) -> np.ndarray:
        """E[x_{t+1} | F_t] for a (count(t+1), r, c) value array."""
        grouped = self.children_view(values_next, t)
        return np.einsum("k,nkrc->nrc", self.steps[t].probs, grouped)

    def expect_next_increment(self, values_next: np.ndarray, t: int) -> np.ndarray:
        """E[x_{t+1} (dW_t)^T | F_t] for (count(t+1), r, 1) values; result (count(t), r, d)."""
        if values_next.shape[2] != 1:
            raise ValueError("increment covariation expects column-vector values")
        grouped = self.children_view(values_next[:, :, 0], t)
        return np.einsum("k,nkr,kd->nrd", self.steps[t].probs, grouped, self.steps[t].points)


@dataclass(frozen=True)
class AdaptedProcess:
    """Process adapted to a tree: one value array per time in its domain.

    ``values[i]`` holds the time ``t_lo + i`` slice with shape
    (node_count(t), rows, cols), rows/cols fixed across the domain.
    """

    tree: ProbabilityTree
    t_lo: int
    t_hi: int
    values: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        if not 0 <= self.t_lo <= self.t_hi <= self.tree.horizon:
            raise ValueError(f"domain [{self.t_lo}, {self.t_hi}] outside [0, {self.tree.horizon}]")
        vals = tuple(np.asarray(v, dtype=float) for v in self.values)
        if len(vals) != self.t_hi - self.t_lo + 1:
            raise ValueError("one value array per time in the domain is required")
        shape = vals[0].shape[1:]
        if len(shape) != 2:
            raise ValueError(f"slices must have shape (nodes, rows, cols), got {vals[0].shape}")
        for i, v in enumerate(vals):
            t = self.t_lo + i
            if v.ndim != 3 or v.shape[1:] != shape:
                raise ValueError(f"slice at t={t} must have shape (nodes, {shape[0]}, {shape[1]})")
            if v.shape[0] != self.tree.node_count(t):
                raise ValueError(
                    f"slice at t={t} has {v.shape[0]} rows, expected {self.tree.node_count(t)}"
                )
        object.__setattr__(self, "values", tuple(_readonly(v) for v in vals))

    # -- construction ---------------------------------------------------

    @classmethod
    def zeros(cls, tree: ProbabilityTree, shape: tuple[int, int], t_lo: int, t_hi: int) -> "AdaptedProcess":
        vals = [np.zeros((tree.node_count(t),) + shape) for t in range(t_lo, t_hi + 1)]
        return cls(tree, t_lo, t_hi, tuple(vals))

    @classmethod
    def constant(cls, tree: ProbabilityTree, value: np.ndarray, t_lo: int, t_hi: int) -> "AdaptedProcess":
        """The (rows, cols) array ``value`` at every node of every time."""
        value = np.asarray(value, dtype=float)
        vals = [np.broadcast_to(value, (tree.node_count(t),) + value.shape).copy() for t in range(t_lo, t_hi + 1)]
        return cls(tree, t_lo, t_hi, tuple(vals))

    @classmethod
    def from_node_function(
        cls,
        tree: ProbabilityTree,
        fn: Callable[[int, tuple[int, ...]], np.ndarray],
        shape: tuple[int, int],
        t_lo: int,
        t_hi: int,
    ) -> "AdaptedProcess":
        vals = []
        for t in range(t_lo, t_hi + 1):
            slab = np.empty((tree.node_count(t),) + shape)
            for i, node in enumerate(tree.nodes(t)):
                slab[i] = np.asarray(fn(t, node), dtype=float).reshape(shape)
            vals.append(slab)
        return cls(tree, t_lo, t_hi, tuple(vals))

    # -- access ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.values[0].shape[1:]

    def at(self, t: int) -> np.ndarray:
        if not self.t_lo <= t <= self.t_hi:
            raise ValueError(f"time {t} outside process domain [{self.t_lo}, {self.t_hi}]")
        return self.values[t - self.t_lo]

    def value(self, t: int, node: tuple[int, ...]) -> np.ndarray:
        if len(node) != t:
            raise ValueError(f"node {node} does not live at time {t}")
        return self.at(t)[self.tree.node_index(node)]

    # -- algebra ----------------------------------------------------------

    def _binary(self, other: "AdaptedProcess", op) -> "AdaptedProcess":
        if not isinstance(other, AdaptedProcess):
            return NotImplemented
        if other.tree is not self.tree or (other.t_lo, other.t_hi) != (self.t_lo, self.t_hi):
            raise ValueError("processes must share tree and domain")
        return AdaptedProcess(self.tree, self.t_lo, self.t_hi, tuple(op(a, b) for a, b in zip(self.values, other.values)))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        scalar = float(scalar)
        return AdaptedProcess(self.tree, self.t_lo, self.t_hi, tuple(scalar * v for v in self.values))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def sup_norm(self) -> float:
        return max(sup_abs(v) for v in self.values)


# -- checks on processes --------------------------------------------------


def is_martingale(tree: ProbabilityTree, x: AdaptedProcess) -> CheckResult:
    """Whether E[x_{t+1}|F_t] = x_t across the whole domain of x, to
    :data:`MARTINGALE_TOL`."""
    worst = 0.0
    for t in range(x.t_lo, x.t_hi):
        worst = max(worst, sup_abs(tree.expect_next(x.at(t + 1), t) - x.at(t)))
    return CheckResult(worst <= MARTINGALE_TOL, worst)


def is_strongly_orthogonal(tree: ProbabilityTree, n_proc: AdaptedProcess) -> CheckResult:
    """Whether E[(n_{t+1}-n_t)(dW_t)^T | F_t] vanishes, to
    :data:`MARTINGALE_TOL`, at every node of the domain of ``n_proc``; the
    martingale property is checked separately."""
    worst = 0.0
    for t in range(n_proc.t_lo, n_proc.t_hi):
        k = tree.branch_count(t)
        delta = n_proc.at(t + 1) - np.repeat(n_proc.at(t), k, axis=0)
        worst = max(worst, sup_abs(tree.expect_next_increment(delta, t)))
    return CheckResult(worst <= MARTINGALE_TOL, worst)
