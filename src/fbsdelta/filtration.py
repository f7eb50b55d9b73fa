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
import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "AdaptedProcess", "CheckResult", "IncrementDistribution", "MomentReport", "ProbabilityTree",
    "is_martingale", "is_strongly_orthogonal", "validate_increments",
]

# Tolerance for the moment conditions a driving-noise step must satisfy.
MOMENT_TOL = 1e-12
# Tolerance below which a process is accepted as a martingale / orthogonal.
MARTINGALE_TOL = 1e-10
# The most nodes a tree may have at its horizon (Rademacher horizon 21); a
# larger tree is refused before anything of its size is built.
NODE_BUDGET = 2**21


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


def _readonly(a) -> np.ndarray:
    """``a`` as a read-only float array.  A writeable float array that owns
    its data is frozen in place and returned, so whoever hands it over must
    not write to it again; anything else (a view, another dtype, an array
    already read-only, a list) is copied."""
    if type(a) is np.ndarray and a.dtype == np.float64 and a.flags.owndata and a.flags.writeable:
        out = a
    else:
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
        failures.append(("probabilities_strictly_positive", abs(min_p)))  # +0.0 for a zero, not -0.0
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


def require_node_budget(steps_per_count: dict[int, int]) -> None:
    """Raise ValueError, naming the projected node count, for a tree of
    ``steps_per_count[K]`` steps with K outcomes each that would have more
    than NODE_BUDGET nodes at its horizon, or more time layers than that.
    Compares logarithms, step count by step count, so no count of the
    projected size is ever formed."""
    limit = math.log2(NODE_BUDGET)
    branching = {k: c for k, c in steps_per_count.items() if k > 1}
    if any(c > limit / math.log2(k) for k, c in branching.items()) or sum(
        c * math.log2(k) for k, c in branching.items()
    ) > limit:
        size = " * ".join(f"{k}^{c}" for k, c in sorted(branching.items()))
        raise ValueError(f"the tree would have {size} nodes at its horizon, over the node budget of {NODE_BUDGET}")
    horizon = sum(steps_per_count.values())
    if horizon >= NODE_BUDGET:
        raise ValueError(f"the tree would have {horizon + 1} time layers, over the node budget of {NODE_BUDGET}")


class NodeSequence(Sequence):
    """The nodes at time t of a tree, or some of them, as a read-only
    sequence of outcome tuples ``(k_0, ..., k_{t-1})`` held as their ranks,
    the mixed-radix numbers in the branch counts that NumPy's
    ``unravel_index`` and ``ravel_multi_index`` decode and encode.

    An integer index (a NumPy integer too, negative ones counting from the
    end) decodes one node; a slice or a 1-D NumPy integer array of indices
    gives another such sequence, holding the ranks it selects, and any other
    index raises TypeError; ``index`` encodes a tuple back to its position.
    A whole level holds no rank and iterates with ``itertools.product``.
    """

    __slots__ = ("_radices", "_ranks", "_len")

    def __init__(self, radices: tuple[int, ...], ranks: np.ndarray | None = None):
        self._radices = radices  # the branch counts K_0 .. K_{t-1}
        self._ranks = ranks  # None for the whole level, else a read-only intp array
        self._len = math.prod(radices) if ranks is None else len(ranks)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            i = np.arange(*i.indices(self._len))  # its positions, taken as a rank array below
        if isinstance(i, np.ndarray) and i.ndim == 1 and (i.dtype.kind in "iu" or not i.size):
            i, n = i.astype(np.intp), self._len
            if i.size and not -n <= i.min() <= i.max() < n:
                raise IndexError(f"node index out of range for {n} nodes")
            ranks = np.where(i < 0, i + n, i)
            if self._ranks is not None:
                ranks = self._ranks[ranks]
            ranks.setflags(write=False)
            return NodeSequence(self._radices, ranks)
        try:
            i = operator.index(i)
        except TypeError:
            raise TypeError("nodes are indexed by an integer, a slice or a 1-D integer array") from None
        rank = range(self._len)[i] if self._ranks is None else self._ranks[i]
        return tuple(map(int, np.unravel_index(rank, self._radices)))

    def __iter__(self):
        if self._ranks is None:
            return itertools.product(*map(range, self._radices))
        # a leading radix 1 gives each row a first digit 0, so level 0 decodes to ()
        digits = np.stack(np.unravel_index(self._ranks, (1, *self._radices)), axis=1)[:, 1:]
        return map(tuple, digits.tolist())

    def index(self, node) -> int:
        """Position of the tuple ``node`` here; ValueError when it is not here."""
        radices = self._radices
        if not isinstance(node, tuple) or len(node) != len(radices):
            raise ValueError(f"{node!r} is not a node at time {len(radices)}")
        try:
            rank = operator.index(np.ravel_multi_index(node, radices))
        except (TypeError, ValueError):  # a digit that is not an int in range(K)
            raise ValueError(f"{node!r} is not a node at time {len(radices)}") from None
        if self._ranks is None:
            return rank
        hits = np.flatnonzero(self._ranks == rank)
        if hits.size:
            return int(hits[0])
        raise ValueError(f"{node!r} is not in this node sequence")

    def take(self, slab: np.ndarray) -> np.ndarray:
        """The rows of the whole-level slab ``slab`` at these nodes: ``slab``
        itself for a whole level, with no gather and no copy."""
        return slab if self._ranks is None else slab[self._ranks]

    def tile(self, copies: int) -> NodeSequence:
        """These nodes ``copies`` times over, one run after another: the
        nodes of a stack of ``copies`` slabs (itself for one copy)."""
        if copies == 1:
            return self
        ranks = np.tile(np.arange(self._len) if self._ranks is None else self._ranks, copies)
        ranks.setflags(write=False)
        return NodeSequence(self._radices, ranks)

    def __contains__(self, node) -> bool:
        try:
            self.index(node)
        except ValueError:
            return False
        return True

    def __repr__(self) -> str:
        return f"<{len(self)} nodes at time {len(self._radices)}>"


class ProbabilityTree:
    """Dense product tree generated by a sequence of increment steps.

    Nodes at time t are tuples of outcome indices ``(k_0, ..., k_{t-1})``,
    ordered lexicographically; the children of the node with rank r at time t
    occupy the contiguous ranks ``r*K_t .. (r+1)*K_t - 1`` at time t+1.
    :meth:`nodes` gives each level as one :class:`NodeSequence`, which stores
    nothing per node.
    """

    def __init__(self, steps: Sequence[IncrementDistribution]):
        steps = tuple(steps)
        if not steps:
            raise ValueError("a tree needs at least one time step")
        require_node_budget(Counter(step.branch_count for step in steps))
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
        radices = tuple(step.branch_count for step in steps)
        self._levels = {t: NodeSequence(radices[:t]) for t in range(self.horizon + 1)}
        self._probs_cache: dict[int, np.ndarray] = {}

    # -- bookkeeping ---------------------------------------------------

    def branch_count(self, t: int) -> int:
        return self.steps[t].branch_count

    def node_count(self, t: int) -> int:
        if not 0 <= t <= self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        return len(self._levels[t])

    def nodes(self, t: int) -> NodeSequence:
        """All nodes at time t in lexicographic (= rank) order, as a
        read-only sequence of tuples that decodes each one when it is read."""
        try:
            return self._levels[t]
        except KeyError:
            raise ValueError(f"time {t} outside [0, {self.horizon}]") from None

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
        """Reshape a time-(t+1) value array to (count(t), K_t, ...); a stack
        of c whole time-(t+1) slabs, one after another, to
        (c count(t), K_t, ...).  Any other row count is a ValueError."""
        rows, count = len(values_next), self.node_count(t + 1)
        if not rows or rows % count:
            raise ValueError(f"expected whole time-{t + 1} slabs of {count} rows, got {rows} rows")
        k = self.branch_count(t)
        return values_next.reshape((rows // k, k) + values_next.shape[1:])

    # -- conditional kernels on raw arrays -----------------------------
    # Each takes a time-(t+1) slab, or a stack of whole ones, and returns the
    # time-t slab, or the stack of them in the same order.

    def expect_next(self, values_next: np.ndarray, t: int) -> np.ndarray:
        """E[x_{t+1} | F_t] for a (count(t+1), r, c) value array."""
        grouped = self.children_view(values_next, t)
        return np.einsum("k,nkrc->nrc", self.steps[t].probs, grouped)

    def expect_next_increment(self, values_next: np.ndarray, t: int) -> np.ndarray:
        """E[x_{t+1} (dW_t)^T | F_t] for (count(t+1), r, 1) values; result (count(t), r, d)."""
        if values_next.shape[2] != 1:
            raise ValueError("increment covariation expects column-vector values")
        grouped = self.children_view(values_next[:, :, 0], t)
        step = self.steps[t]
        return np.einsum("nkr,kd->nrd", grouped, step.probs[:, None] * step.points)


def per_node(fn: Callable, shape: tuple[int, ...]) -> Callable:
    """Slab function ``slab_fn(*args, nodes)`` from the per-node function
    ``fn(*args, node)``: one call per node, with row i of each array argument
    (other arguments, such as t, as they are), each result reshaped to
    ``shape`` and stacked into an (N,) + shape array."""

    def slab_fn(*args):
        *head, nodes = args
        out = np.empty((len(nodes), *shape))
        for i, node in enumerate(nodes):
            row = [a[i] if isinstance(a, np.ndarray) else a for a in head]
            out[i] = np.asarray(fn(*row, node), dtype=float).reshape(shape)
        return out

    return slab_fn


@dataclass(frozen=True)
class AdaptedProcess:
    """Process adapted to a tree: one value array per time in its domain.

    ``values[i]`` holds the time ``t_lo + i`` slice with shape
    (node_count(t), rows, cols), rows/cols fixed across the domain.  The
    slabs are read-only.  A writeable float array that owns its data is
    frozen in place rather than copied, so a caller must not keep writing to
    an array it has handed over; any other slab is copied.
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
        slab_fn = per_node(fn, shape)
        return cls(tree, t_lo, t_hi, tuple(slab_fn(t, tree.nodes(t)) for t in range(t_lo, t_hi + 1)))

    # -- access ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.values[0].shape[1:]

    def at(self, t: int) -> np.ndarray:
        if not self.t_lo <= t <= self.t_hi:
            raise ValueError(f"time {t} outside process domain [{self.t_lo}, {self.t_hi}]")
        return self.values[t - self.t_lo]

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
