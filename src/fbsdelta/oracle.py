"""Independent verification by global root finding.

Instead of exploiting any decoupling structure, every defining equation of a
system is assembled into one square residual map F over the stacked unknowns

    X_t(node) for t = 1..T   (X_0 is pinned to x0 and not an unknown),
    Y_t(node) for t = 0..T,
    Z_t(node) for t = 0..T-1,

with residual blocks ordered: forward equations at every child node
(t ascending), conditional-mean projections of Y, increment projections of Z,
then the terminal condition at the leaves.  The blocks are the defect slabs of
``linear_fbsde.equation_defects``, the one statement of the equations that the
residual reports read too.  That statement is all the oracle shares with the
structured solvers: no solving step (no P_t, Gamma_t, offset process or
continuation).  F is driven to zero by a damped Newton iteration with
finite-difference Jacobians, a method of its own, so the oracle is an
independent check of the solvers.
Each residual row reads only its node, the node's parent and its children, so
the Jacobian is built from one bumped vector per colour of columns (Curtis,
Powell & Reid 1974): K_max + 2 node colours (K_max the largest branch count)
times the unknowns per node, 12 for m = n = 1 on a binary tree, whatever its
size.  The bumped vectors of a chunk of colours, up to STACK_FLOATS floats,
go through F as one stack, each slab holding the copies of its level one
after another, so a small system takes one evaluation of F per Jacobian and
each model map is called once per slab.  For the same reason the Jacobian's
block graph is the tree itself, and it is kept as per-level blocks
(``JacobianBlocks``): per node a diagonal block
and the couplings to its parent and its children.  Newton factorises it by
block elimination, leaves first, which creates no fill outside the parents'
diagonal blocks (Parter 1961, SIAM Review 3(2)): each level is one batched
inversion of its pivot blocks, and time and memory are linear in the nodes.
The storage is checked against BLOCK_BUDGET from the node counts before
anything is allocated.  While Newton contracts it keeps its last
factorisation (a chord step; Kelley, Solving Nonlinear Equations with
Newton's Method, SIAM 2003), so a chord step is two sweeps of batched
matrix-vector products, and it measures convergence on F itself, never on
the Jacobian.

What is independent, and what is not: the elimination factorises the
numerical Jacobian of the whole residual map in a fixed order and never forms
P_t, Gamma_t or an offset.  The paper's decoupling is a structured form of the
same leaves-first elimination, so a singular Gamma_t and a singular pivot
block come together.  The oracle's independence lies in its code and its data
(finite differences of the defining equations), not in its algebra.
Plain backward equations (no forward state) are covered by the same machinery
with an empty X block.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bsde import BackwardSystem, Generator, build_solution
from .filtration import AdaptedProcess, ProbabilityTree, sup_abs
from .linear_fbsde import LinearCoefficients, equation_defects, require_coupled_tree
from .nonlinear_fbsde import NonlinearModel

__all__ = [
    "JacobianBlocks", "NewtonTrace", "OracleFailedError", "OracleSolution", "ResidualSystem",
    "build_residual_system", "solution_gap", "solve_global_newton",
]

NEWTON_TOL = 1e-10
NEWTON_MAX_ITERS = 50
FD_STEP = 1e-7
# the most floats of bumped vectors one residual evaluation of a Jacobian
# takes side by side (512 KiB): a chunk holds as many colours as fit, and
# always one.  Measured from 2^14 to 2^18: a larger bound saves at most a
# few ms per Jacobian on systems of 5,000 to 20,000 unknowns and adds to
# their peak; above 2^15 unknowns every bound gives one colour per chunk
STACK_FLOATS = 2**16
ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 30
# a full Newton step that cuts the sup-residual by this factor keeps its Jacobian
REUSE_CONTRACTION = 0.1
# the most floats one Jacobian may hold: its colour differences plus its
# diagonal and coupling blocks (128 MiB); the factorisation and the cached
# 32-bit scatter positions add less than as much again
BLOCK_BUDGET = 2**24


@dataclass(frozen=True)
class NewtonTrace:
    converged: bool
    iterations: int
    jacobians: int  # Jacobians built
    residual_norms: tuple[float, ...]
    step_sizes: tuple[float, ...]
    message: str


class OracleFailedError(Exception):
    """The damped Newton iteration could not reach the requested tolerance."""

    def __init__(self, message: str, trace: NewtonTrace | None = None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class JacobianBlocks:
    """A Jacobian of a residual system as per-level node blocks; every entry
    outside them is zero.

    ``rows`` and ``cols`` give the positions of the residual rows and of the
    unknowns in the stacked vectors, level by level and node by node: level t
    takes N_t w_t of each, w_t to a node (so the blocks are square).  A
    node's children are consecutive, K to a parent (K the branch count of the
    parent's level), so node i of level t has parent i // K.
    ``diagonal[t]``, shape (N_t, w_t, w_t), holds each node's rows against its
    own unknowns.  For t >= 1, ``parent[t]``, shape (N_t, w_t, w_{t-1}), holds
    each node's rows against its parent's unknowns, and ``child[t]``, shape
    (N_{t-1}, w_{t-1}, K w_t), each parent's rows against the unknowns of its
    K children side by side.  ``parent[0]`` and ``child[0]`` are None.
    """

    diagonal: tuple[np.ndarray, ...]
    parent: tuple[np.ndarray | None, ...]
    child: tuple[np.ndarray | None, ...]
    rows: np.ndarray
    cols: np.ndarray


@dataclass(frozen=True)
class ResidualSystem:
    """Square residual map of one slab system ``problem`` on one tree.

    ``problem`` is a LinearCoefficients, NonlinearModel or BackwardSystem:
    anything with ``m``, ``n``, ``x0`` and the slab protocol that
    :func:`~fbsdelta.linear_fbsde.equation_defects` reads (``drift``,
    ``noise_loading``, ``driver`` and ``terminal``).  Those four must be
    row-local (row i of a result reads only row i of the inputs), which is
    what the colouring in :meth:`jacobian` relies on, and what lets
    :meth:`residual` evaluate a stack of vectors as one system whose slabs
    hold each level once per vector.  A system whose Jacobian would hold
    more than ``BLOCK_BUDGET`` floats is refused with OracleFailedError.
    """

    tree: ProbabilityTree
    problem: LinearCoefficients | NonlinearModel | BackwardSystem

    def __post_init__(self):
        # from the node counts alone, before any array of the system's size exists
        tree, T = self.tree, self.tree.horizon
        widths = [sum(math.prod(shape) for lo, hi, shape in self._blocks if lo <= t <= hi) for t in range(T + 1)]
        counts = [tree.node_count(t) for t in range(T + 1)]
        size = sum(count * width for count, width in zip(counts, widths))
        colours = (max(tree.branch_count(t) for t in range(T)) + 2) * sum(math.prod(s) for *_, s in self._blocks)
        # the colour differences, then per node its diagonal block and the two
        # couplings to its parent
        above = [0] + widths[:-1]
        floats = colours * size + sum(n * w * (w + 2 * a) for n, w, a in zip(counts, widths, above))
        if floats > BLOCK_BUDGET:
            raise OracleFailedError(
                f"the oracle's Jacobian for {size} unknowns would hold {floats} floats ({8 * floats:.3e} bytes), "
                f"over the budget of {BLOCK_BUDGET}"
            )

    @property
    def m(self) -> int:
        return self.problem.m

    @property
    def n(self) -> int:
        return self.problem.n

    @property
    def size(self) -> int:
        return self._layout[0]

    @property
    def _blocks(self) -> tuple:
        """The stacked unknowns as (first time, last time, slab shape) per
        block: X for t = 1..T, Y for t = 0..T, Z for t = 0..T-1."""
        T = self.tree.horizon
        return ((1, T, (self.m, 1)), (0, T, (self.n, 1)), (0, T - 1, (self.n, self.tree.d)))

    @cached_property
    def _layout(self) -> tuple[int, list, list[np.ndarray], list[np.ndarray]]:
        return _stacking(self.tree, self._blocks)

    # -- packing -------------------------------------------------------

    def unpack(self, vec: np.ndarray):
        """Slab lists (X_0..X_T, Y_0..Y_T, Z_0..Z_{T-1}) viewing the flat
        vector ``vec``; X_0 is x0.  For a (c, size) stack of vectors each
        slab holds the c vectors' slabs one after another, as
        :func:`~fbsdelta.linear_fbsde.equation_defects` reads them."""
        vec = np.asarray(vec, dtype=float)
        if vec.ndim not in (1, 2) or vec.shape[-1] != self.size:
            raise ValueError(f"expected a flat vector of {self.size} unknowns, or a stack of them")
        stack = vec.reshape(-1, self.size)
        copies = len(stack)
        x, y, z = (
            [stack[:, span].reshape((copies * shape[0], *shape[1:])) for _, span, shape in block]
            for block in self._layout[1]
        )
        return [np.repeat(self.problem.x0[None, :, :], copies, axis=0)] + x, y, z

    # -- evaluation ------------------------------------------------------

    def residual(self, vec: np.ndarray) -> np.ndarray:
        """F at the flat vector ``vec``, or F at each vector of a (c, size)
        stack as a (c, size) stack, from one evaluation of the equations."""
        x, y, z = self.unpack(vec)
        defects = equation_defects(self.problem, self.tree, x, y, z)
        slabs = (*defects.forward, *defects.y_projection, *defects.z_projection, defects.terminal)
        copies = len(y[0])
        return np.concatenate([slab.reshape(copies, -1) for slab in slabs], axis=1).reshape(np.shape(vec))

    def jacobian(self, vec: np.ndarray, *, _base: np.ndarray | None = None) -> JacobianBlocks:
        """Forward-difference Jacobian as per-level node blocks, one bumped
        vector per colour of columns rather than per unknown, and one
        residual evaluation per chunk of colours (plus the base point).

        All columns of one colour are bumped together; since no residual row
        depends on two of them, each row's difference belongs to the one
        column of that colour in the row's structural neighbourhood, so each
        block entry equals the column-by-column quotient exactly.  A chunk's
        bumped vectors are evaluated as one stack (see :meth:`residual`); it
        holds as many colours as keep the stack within ``STACK_FLOATS``
        floats, and at least one.  ``_base`` is the residual at ``vec`` when
        the caller already holds it (Newton does), which saves the base
        evaluation.
        """
        vec = np.asarray(vec, dtype=float)
        groups, scatter, pieces, rows, cols = self._colouring
        base = self.residual(vec) if _base is None else _base
        diffs = np.empty((len(groups), self.size))
        chunk = max(1, STACK_FLOATS // self.size)
        for first in range(0, len(groups), chunk):
            part = groups[first : first + chunk]
            bumped = np.tile(vec, (len(part), 1))
            for copy, group in zip(bumped, part):
                copy[group] += FD_STEP
            diffs[first : first + len(part)] = (self.residual(bumped) - base) / FD_STEP
        entries = np.take(diffs, scatter)
        blocks = [entries[start:end].reshape(shape) for start, end, shape in pieces]
        return JacobianBlocks((blocks[0], *blocks[1::3]), (None, *blocks[2::3]), (None, *blocks[3::3]), rows, cols)

    @cached_property
    def _colouring(self) -> tuple[tuple[np.ndarray, ...], np.ndarray, list[tuple], np.ndarray, np.ndarray]:
        """Column colouring of the Jacobian: the columns bumped together per
        colour; where each block entry sits in the (colour, residual row)
        array of differences, as one array of flat positions, block after
        block (the root's diagonal block, then per level t >= 1 the diagonal,
        parent and child blocks of :class:`JacobianBlocks`), with each
        block's (start, end, shape) in it; and the ``rows`` and ``cols`` of
        :class:`JacobianBlocks`.

        An unknown at node a enters only the residual rows of a, of its
        parent and of its children (the model functions are row-local), so
        two unknowns share a row only if their nodes are at most two edges
        apart: parent and child, siblings, or grandparent and grandchild.
        K_max + 2 node colours keep every such pair apart: the root takes 0,
        and the children of a node coloured c whose parent is coloured p take,
        in sibling order, the colours outside {c, p}.  A column's colour adds
        its block (X, Y, Z) and component, so no row sees two columns of one
        colour.
        """
        tree, m, n = self.tree, self.m, self.n
        T, d = tree.horizon, tree.d
        width = m + n + n * d
        _, _, col_index, col_slot = self._layout
        row_index = _stacking(tree, ((1, T, (m, 1)), (0, T - 1, (n, 1)), (0, T - 1, (n, d)), (T, T, (n, 1))))[2]
        k_max = max(tree.branch_count(t) for t in range(T))
        # the root's parent stands in with colour k_max + 1, so its children take 1..K
        node_colour, parent_colour = np.zeros(1, dtype=np.intp), np.full(1, k_max + 1)
        colour = np.empty(self.size, dtype=np.intp)
        for t in range(T + 1):
            colour[col_index[t]] = node_colour[:, None] * width + col_slot[t][None, :]
            if t < T:
                # the k-th child of a node coloured c, whose parent is coloured
                # p, takes the k-th colour outside {c, p}: skip the smaller, then the larger
                parent, q = np.divmod(np.arange(tree.node_count(t + 1)), tree.branch_count(t))
                c, p = node_colour[parent], parent_colour[parent]
                q += q >= np.minimum(c, p)
                q += q >= np.maximum(c, p)
                node_colour, parent_colour = q, c
        _, colour = np.unique(colour, return_inverse=True)
        groups = tuple(np.flatnonzero(colour == c) for c in range(colour.max() + 1))
        # entry (row, column) of the Jacobian is differences[colour of the column, row]
        at = [colour[index] * self.size for index in col_index]
        scatter = [at[0][:, None, :] + row_index[0][:, :, None]]
        for t in range(1, T + 1):
            above, (count, w) = len(row_index[t - 1]), row_index[t].shape
            scatter.append(at[t][:, None, :] + row_index[t][:, :, None])
            # the level's nodes grouped by parent: (parent, sibling) axes
            scatter.append((at[t - 1][:, None, None, :] + row_index[t].reshape(above, -1, w, 1)).reshape(count, w, -1))
            scatter.append(at[t].reshape(above, 1, -1) + row_index[t - 1][:, :, None])
        ends = itertools.accumulate(block.size for block in scatter)
        pieces = [(end - block.size, end, block.shape) for end, block in zip(ends, scatter)]
        # under BLOCK_BUDGET every position fits in 32 bits
        flat = np.concatenate([block.ravel() for block in scatter]).astype(np.int32)
        rows, cols = (np.concatenate([index.ravel() for index in where]) for where in (row_index, col_index))
        return groups, flat, pieces, rows, cols


def _stacking(tree: ProbabilityTree, blocks) -> tuple[int, list, list[np.ndarray], list[np.ndarray]]:
    """Layout of a vector stacking ``blocks``, each (first time, last time,
    slab shape) with one slab per time, times ascending: the length, per block
    the (t, slice, slab shape) of each slab, and per time t the positions of
    each node's entries as a (node_count(t), entries) array, with the label of
    each entry (its offset across the concatenated block widths)."""
    T = tree.horizon
    index: list[list[np.ndarray]] = [[] for _ in range(T + 1)]
    labels: list[list[np.ndarray]] = [[] for _ in range(T + 1)]
    spans = []
    pos = label = 0
    for lo, hi, shape in blocks:
        width = math.prod(shape)
        spans.append([])
        for t in range(lo, hi + 1):
            count = tree.node_count(t)
            spans[-1].append((t, slice(pos, pos + count * width), (count,) + shape))
            index[t].append(pos + np.arange(count * width).reshape(count, width))
            labels[t].append(label + np.arange(width))
            pos += count * width
        label += width
    return pos, spans, [np.hstack(ix) for ix in index], [np.concatenate(lb) for lb in labels]


def build_residual_system(
    tree: ProbabilityTree,
    problem,
    eta: AdaptedProcess | None = None,
) -> ResidualSystem:
    """Residual system for linear coefficients, a nonlinear model, or a plain
    backward equation (generator plus terminal data ``eta``)."""
    if isinstance(problem, Generator):
        if eta is None:
            raise ValueError("a plain backward equation needs terminal data eta")
        return ResidualSystem(tree, BackwardSystem(tree, problem, eta))
    if not isinstance(problem, (LinearCoefficients, NonlinearModel)):
        raise TypeError(f"no residual system is defined for {type(problem).__name__}")
    require_coupled_tree(tree, problem if isinstance(problem, LinearCoefficients) else None)
    return ResidualSystem(tree, problem)


@dataclass(frozen=True)
class OracleSolution:
    """Root of the residual system, repackaged as adapted processes."""

    X: AdaptedProcess | None
    Y: AdaptedProcess
    Z: AdaptedProcess
    N: AdaptedProcess
    equation_residual: float
    trace: NewtonTrace


@dataclass(frozen=True)
class _Elimination:
    """Leaves-first block elimination of a JacobianBlocks: per level t the
    inverse of its pivot block S_t (the diagonal block less the Schur updates
    of its children) and S_t^{-1} times the parent coupling (None at t = 0),
    and each level's slice of the blocks' ``rows`` and ``cols``."""

    blocks: JacobianBlocks
    inverse: tuple[np.ndarray, ...]
    solved_parent: tuple[np.ndarray | None, ...]
    levels: tuple[slice, ...]

    @np.errstate(over="ignore", invalid="ignore")
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """J^{-1} rhs by two sweeps of batched matrix-vector products: the
        reduced right-hand sides from the leaves to the root, then the
        unknowns from the root to the leaves."""
        child, inverse, solved_parent, levels = self.blocks.child, self.inverse, self.solved_parent, self.levels
        T = len(levels) - 1
        r = rhs[self.blocks.rows]
        reduced: list = [None] * (T + 1)
        for t in range(T, -1, -1):
            level = r[levels[t]].reshape(inverse[t].shape[:2])
            if t < T:
                # the children's reduced right-hand sides, siblings side by side
                level -= (child[t + 1] @ reduced[t + 1].reshape(len(level), -1, 1))[..., 0]
            reduced[t] = (inverse[t] @ level[..., None])[..., 0]
        x = reduced[0]
        r[levels[0]] = x.ravel()
        for t in range(1, T + 1):
            x = reduced[t] - (solved_parent[t].reshape(len(x), -1, x.shape[1]) @ x[..., None]).reshape(reduced[t].shape)
            r[levels[t]] = x.ravel()
        out = np.empty_like(rhs)
        out[self.blocks.cols] = r
        return out


@np.errstate(over="ignore", invalid="ignore")
def _factorise(blocks: JacobianBlocks) -> _Elimination:
    """Eliminate the nodes leaves first, one batched inversion per level over
    its pivot blocks.  Raises _SingularPivot at the first pivot that fails."""
    T = len(blocks.diagonal) - 1
    inverse: list = [None] * (T + 1)
    solved_parent: list = [None] * (T + 1)
    for t in range(T, -1, -1):
        pivot = blocks.diagonal[t]
        if t < T:
            # S_t^{-1} U of the K children stacked: their Schur updates sum in one product
            pivot = pivot - blocks.child[t + 1] @ solved_parent[t + 1].reshape(len(pivot), -1, pivot.shape[1])
        inverse[t] = _invert_pivots(pivot, t)
        if t:
            solved_parent[t] = inverse[t] @ blocks.parent[t]
    sizes = [len(block) * block.shape[1] for block in blocks.diagonal]
    levels = tuple(slice(end - size, end) for end, size in zip(itertools.accumulate(sizes), sizes))
    return _Elimination(blocks, tuple(inverse), tuple(solved_parent), levels)


class _SingularPivot(Exception):
    """A pivot block of the elimination is singular or has a non-finite
    inverse; the arguments are its time t and its node's index in level t."""


def _invert_pivots(pivot: np.ndarray, t: int) -> np.ndarray:
    """Batched inverse of a level's pivot blocks; _SingularPivot names the
    first block that is singular or has a non-finite inverse."""
    try:
        inverse = np.linalg.inv(pivot)
        if np.isfinite(inverse).all():
            return inverse
    except np.linalg.LinAlgError:
        pass
    for index, block in enumerate(pivot):
        try:
            if not np.isfinite(np.linalg.inv(block)).all():
                break
        except np.linalg.LinAlgError:
            break
    else:
        index = 0
    raise _SingularPivot(t, index)


def _line_search(system: ResidualSystem, vec, res, sup: float, direction, tries: int):
    """The first of the steps 1, 1/2, 1/4, ... (at most ``tries``) whose trial
    point passes the sufficient-decrease rule, as (step, point, residual);
    None if none does."""
    scaled = res / sup
    phi0 = float(scaled @ scaled)
    s = 1.0
    for _ in range(tries):
        trial = vec + s * direction
        trial_res = system.residual(trial)
        trial_scaled = trial_res / sup
        if float(trial_scaled @ trial_scaled) <= (1.0 - 2.0 * ARMIJO_SLOPE * s) * phi0:
            return s, trial, trial_res
        s *= 0.5
    return None


# A trial residual past the float range reads inf and fails the line search.
@np.errstate(over="ignore")
def solve_global_newton(system: ResidualSystem) -> OracleSolution:
    """Drive the stacked residual from zero to sup-norm ``NEWTON_TOL`` by
    damped Newton steps.

    Each step solves the finite-difference Jacobian system by leaves-first
    block elimination and backtracks until the squared norm of the residual,
    divided by the current sup-norm, satisfies a standard sufficient-decrease
    rule.  The scaling keeps the merit finite at the current point, so a
    residual near the float range cannot pass every trial as inf <= inf.  A
    singular or non-finite pivot block ends the iteration as a stalled line
    search does, naming the time and node of the pivot.

    While Newton contracts, the last Jacobian's factorisation is kept (a chord
    step): after a full step that cut the sup-residual by
    ``REUSE_CONTRACTION``, the next step first tries the full step along the
    kept factorisation's direction, which factorises nothing.  A new Jacobian
    is built after a damped step, after a step that contracted less, and when
    that full chord step fails the sufficient-decrease rule (then at the same
    point, followed by the usual backtracking).  So a failed line search
    always comes from a fresh Jacobian.
    """
    vec = np.zeros(system.size)
    res = system.residual(vec)
    norms: list[float] = []
    steps: list[float] = []
    factors, jacobians = None, 0
    for iteration in range(NEWTON_MAX_ITERS):
        sup = float(np.abs(res).max())
        if steps and (steps[-1] < 1.0 or sup > REUSE_CONTRACTION * norms[-1]):
            factors = None
        norms.append(sup)
        if sup <= NEWTON_TOL:
            trace = NewtonTrace(True, iteration, jacobians, tuple(norms), tuple(steps), "converged")
            x, y, z = system.unpack(vec)
            sol = build_solution(system.problem, system.tree, x if system.m else None, y, z)
            return OracleSolution(sol.X, sol.Y, sol.Z, sol.N, equation_residual=sup, trace=trace)
        found = None if factors is None else _line_search(system, vec, res, sup, factors.solve(-res), 1)
        reason = ""
        if found is None:
            jacobians += 1
            try:
                factors = _factorise(system.jacobian(vec, _base=res))
            except _SingularPivot as pivot:
                t, index = pivot.args
                node = system.tree.nodes(t)[index]
                reason = f": no Newton direction, the pivot block at t={t}, node {node} is singular or not finite"
            else:
                found = _line_search(system, vec, res, sup, factors.solve(-res), MAX_BACKTRACKS)
        if found is None:
            trace = NewtonTrace(False, iteration, jacobians, tuple(norms), tuple(steps), "line search stalled")
            raise OracleFailedError(f"line search could not reduce the residual below {sup:.3e}{reason}", trace)
        s, vec, res = found
        steps.append(s)
    norms.append(float(np.abs(res).max()))
    trace = NewtonTrace(False, NEWTON_MAX_ITERS, jacobians, tuple(norms), tuple(steps), "iteration limit reached")
    raise OracleFailedError(
        f"no convergence within {NEWTON_MAX_ITERS} iterations (residual {norms[-1]:.3e})", trace
    )


def component_gaps(first, second) -> dict[str, float | None]:
    """sup |a - b| over the slabs of each component X, Y, Z and N of two
    solutions, None for a component that either solution lacks."""
    gaps = {}
    for name in ("X", "Y", "Z", "N"):
        pa, pb = getattr(first, name, None), getattr(second, name, None)
        gaps[name] = None if pa is None or pb is None else max(
            sup_abs(a - b) for a, b in zip(pa.values, pb.values, strict=True)
        )
    return gaps


def solution_gap(first, second) -> float:
    """Largest sup-norm gap between the shared components of two solutions."""
    return max((gap for gap in component_gaps(first, second).values() if gap is not None), default=0.0)
