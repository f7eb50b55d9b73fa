"""Independent verification by global root finding.

Instead of exploiting any decoupling structure, every defining equation of a
system is assembled into one square residual map F over the stacked unknowns

    X_t(node) for t = 1..T   (X_0 is pinned to x0 and not an unknown),
    Y_t(node) for t = 0..T,
    Z_t(node) for t = 0..T-1,

level by level (t ascending), each node's X_t, Y_t and Z_t side by side.
The residual rows, the defect slabs of ``linear_fbsde.equation_defects``,
follow the same order: each node's forward defect (t >= 1), then its
conditional-mean projection of Y and increment projection of Z (t < T) or
its terminal defect (t = T), so level t takes N_t w_t of both, w_t to a node.
``equation_defects`` is the one statement of the equations that the residual
reports read too, and all the oracle shares with the structured solvers: no
solving step (no P_t, Gamma_t, offset process or continuation).  F is driven
to zero by a damped Newton iteration with finite-difference Jacobians, a
method of its own, so the oracle is an independent check of the solvers.
Each residual row reads only its node, the node's parent and its children, so
the Jacobian is built from one bumped vector per colour of columns (Curtis,
Powell & Reid 1974): K_max + 2 node colours (K_max the largest branch count)
times the unknowns per node, 12 for m = n = 1 on a binary tree, whatever its
size.  The bumped vectors of a chunk of colours, up to STACK_FLOATS floats,
go through F as one stack, each slab holding the copies of its level one
after another, so a small system takes one evaluation of F per Jacobian and
each model map is called once per slab.  For the same reason the
Jacobian's block graph is the tree itself, and it is kept as per-level blocks
(``JacobianBlocks``): per node a diagonal block and the couplings to its
parent and its children.  Newton factorises it by block elimination, leaves
first, which creates no fill outside the parents' diagonal blocks (Parter
1961, SIAM Review 3(2)): each level is one batched inversion of its pivot
blocks over one contiguous span of the stacked vectors, and time and memory
are linear in the nodes.  The storage is checked against BLOCK_BUDGET from
the node counts before anything is allocated.  While Newton contracts it
keeps its last factorisation (a chord step; Kelley, Solving Nonlinear
Equations with Newton's Method, SIAM 2003), so a chord step is two sweeps of
batched matrix-vector products, and it measures convergence on F itself,
never on the Jacobian.

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
# diagonal and coupling blocks (128 MiB); the factorisation adds less than as
# much again, and the colouring keeps three integers per unknown
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

    The residual rows and the unknowns are stacked in the same order, level by
    level and node by node: level t takes N_t w_t of each, w_t to a node (so
    the blocks are square).  A node's children are consecutive, K to a parent
    (K the branch count of the parent's level), so node i of level t has
    parent i // K.
    ``diagonal[t]``, shape (N_t, w_t, w_t), holds each node's rows against its
    own unknowns.  For t >= 1, ``parent[t]``, shape (N_t, w_t, w_{t-1}), holds
    each node's rows against its parent's unknowns, and ``child[t]``, shape
    (N_{t-1}, w_{t-1}, K w_t), each parent's rows against the unknowns of its
    K children side by side.  ``parent[0]`` and ``child[0]`` are None.
    """

    diagonal: tuple[np.ndarray, ...]
    parent: tuple[np.ndarray | None, ...]
    child: tuple[np.ndarray | None, ...]


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
        colours = (max(tree.branch_count(t) for t in range(T)) + 2) * (self.m + self.n + self.n * tree.d)
        # the colour differences, then per node its diagonal block and the two
        # couplings to its parent: N_t w_t (w_t + 2 w_{t-1}) floats at level t
        above = [0] + [width for _, width in self._levels]
        floats = colours * self.size + sum((s.stop - s.start) * (w + 2 * a) for (s, w), a in zip(self._levels, above))
        if floats > BLOCK_BUDGET:
            raise OracleFailedError(
                f"the oracle's Jacobian for {self.size} unknowns would hold {floats} floats ({8 * floats:.3e} bytes), "
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
        return self._levels[-1][0].stop

    @cached_property
    def _levels(self) -> tuple[tuple[slice, int], ...]:
        """Per level t, the span of a stacked vector that holds it and the
        width w_t of each of its N_t nodes: X_t (t >= 1), Y_t and Z_t (t < T)."""
        tree, T, levels = self.tree, self.tree.horizon, []
        for t in range(T + 1):
            width = self.m * (t > 0) + self.n + self.n * tree.d * (t < T)
            start = levels[-1][0].stop if levels else 0
            levels.append((slice(start, start + tree.node_count(t) * width), width))
        return tuple(levels)

    # -- packing -------------------------------------------------------

    def unpack(self, vec: np.ndarray):
        """Slab lists (X_0..X_T, Y_0..Y_T, Z_0..Z_{T-1}) viewing the flat
        vector ``vec``; X_0 is x0.  For a (c, size) stack of vectors each
        slab, a copy, holds the c vectors' slabs one after another, as
        :func:`~fbsdelta.linear_fbsde.equation_defects` reads them."""
        vec = np.asarray(vec, dtype=float)
        if vec.ndim not in (1, 2) or vec.shape[-1] != self.size:
            raise ValueError(f"expected a flat vector of {self.size} unknowns, or a stack of them")
        stack = vec.reshape(-1, self.size)
        m, n, T = self.m, self.n, self.tree.horizon
        x, y, z = [np.repeat(self.problem.x0[None, :, :], len(stack), axis=0)], [], []
        for t, (span, width) in enumerate(self._levels):
            # (copies x nodes, entries): each node's X_t, Y_t and Z_t side by side
            level, first = stack[:, span].reshape(-1, width), m * (t > 0)
            if t:
                x.append(level[:, :m, None])
            y.append(level[:, first : first + n, None])
            if t < T:
                z.append(level[:, first + n :].reshape(len(level), n, -1))
        return x, y, z

    # -- evaluation ------------------------------------------------------

    def residual(self, vec: np.ndarray) -> np.ndarray:
        """F at the flat vector ``vec``, or F at each vector of a (c, size)
        stack as a (c, size) stack, from one evaluation of the equations."""
        x, y, z = self.unpack(vec)
        defects = equation_defects(self.problem, self.tree, x, y, z)
        copies = len(y[0])
        # per level, each node's defects side by side: forward (t >= 1, none
        # when m = 0), then the Y and Z projections (t < T) or terminal (t = T)
        tails = [*zip(defects.y_projection, defects.z_projection), (defects.terminal,)]
        levels = ([*defects.forward[max(t - 1, 0) : t], *tail] for t, tail in enumerate(tails))
        rows = [np.concatenate([slab.reshape(len(slab), -1) for slab in level], axis=1) for level in levels]
        return np.concatenate([row.reshape(copies, -1) for row in rows], axis=1).reshape(np.shape(vec))

    def jacobian(self, vec: np.ndarray, *, _base: np.ndarray | None = None) -> JacobianBlocks:
        """Forward-difference Jacobian as per-level node blocks, one bumped
        vector per colour of columns rather than per unknown, and one
        residual evaluation per chunk of colours (plus the base point).

        All columns of one colour are bumped together; since no residual row
        depends on two of them, each row's difference belongs to the one
        column of that colour in the row's structural neighbourhood, so each
        block entry equals the column-by-column quotient exactly and is
        gathered straight from the differences.  A chunk's bumped vectors are
        evaluated as one stack (see :meth:`residual`); it holds as many
        colours as keep the stack within ``STACK_FLOATS`` floats, and at
        least one.  ``_base`` is the residual at ``vec`` when the caller
        already holds it (Newton does), which saves the base evaluation.
        """
        vec = np.asarray(vec, dtype=float)
        groups, colour, index = self._colouring
        base = self.residual(vec) if _base is None else _base
        diffs = np.empty((len(groups), self.size))
        chunk = max(1, STACK_FLOATS // self.size)
        for first in range(0, len(groups), chunk):
            part = groups[first : first + chunk]
            bumped = np.tile(vec, (len(part), 1))
            for copy, group in zip(bumped, part):
                copy[group] += FD_STEP
            diffs[first : first + len(part)] = (self.residual(bumped) - base) / FD_STEP

        def block(rows, cols):
            # entry (row, column) of the Jacobian is diffs[colour of the column, row]
            return diffs[colour[cols][:, None, :], rows[:, :, None]]

        # per level t >= 1 (rows of level t - 1 ``up``): each node against its
        # parent's unknowns, and each parent against its children's side by side
        return JacobianBlocks(
            tuple(block(rows, rows) for rows in index),
            (None, *(block(rows, np.repeat(up, len(rows) // len(up), axis=0)) for up, rows in zip(index, index[1:]))),
            (None, *(block(up, rows.reshape(len(up), -1)) for up, rows in zip(index, index[1:]))),
        )

    @cached_property
    def _colouring(self) -> tuple[tuple[np.ndarray, ...], np.ndarray, list[np.ndarray]]:
        """Column colouring of the Jacobian: the columns bumped together per
        colour, each unknown's colour, and per level t the positions of its
        nodes' rows and unknowns (the same order) as an (N_t, w_t) array.

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
        T, width = tree.horizon, m + n + n * tree.d
        index = [np.arange(span.start, span.stop).reshape(-1, w) for span, w in self._levels]
        k_max = max(tree.branch_count(t) for t in range(T))
        # the root's parent stands in with colour k_max + 1, so its children take 1..K
        node_colour, parent_colour = np.zeros(1, dtype=np.intp), np.full(1, k_max + 1)
        colour = np.empty(self.size, dtype=np.intp)
        for t in range(T + 1):
            # an entry's slot: its block's offset (X 0, Y m, Z m + n) plus its component
            slot = np.arange(0 if t else m, width if t < T else m + n)
            colour[index[t]] = node_colour[:, None] * width + slot[None, :]
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
        return groups, colour, index


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
    of its children), S_t^{-1} times the parent coupling (None at t = 0), and
    the span of the stacked vectors that holds the level."""

    blocks: JacobianBlocks
    inverse: tuple[np.ndarray, ...]
    solved_parent: tuple[np.ndarray | None, ...]
    levels: tuple[slice, ...]

    @np.errstate(over="ignore", invalid="ignore")
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """J^{-1} rhs, written over ``rhs``, by two sweeps of batched
        matrix-vector products: the reduced right-hand sides from the leaves
        to the root, then the unknowns from the root to the leaves."""
        child, inverse, solved_parent, levels = self.blocks.child, self.inverse, self.solved_parent, self.levels
        T = len(levels) - 1
        reduced: list = [None] * (T + 1)
        for t in range(T, -1, -1):
            level = rhs[levels[t]].reshape(inverse[t].shape[:2])
            if t < T:
                # the children's reduced right-hand sides, siblings side by side
                level -= (child[t + 1] @ reduced[t + 1].reshape(len(level), -1, 1))[..., 0]
            reduced[t] = (inverse[t] @ level[..., None])[..., 0]
        x = reduced[0]
        rhs[levels[0]] = x.ravel()
        for t in range(1, T + 1):
            x = reduced[t] - (solved_parent[t].reshape(len(x), -1, x.shape[1]) @ x[..., None]).reshape(reduced[t].shape)
            rhs[levels[t]] = x.ravel()
        return rhs


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
    # a batch fails only where a block fails on its own, through the same LAPACK call
    for index, block in enumerate(pivot):
        try:
            if not np.isfinite(np.linalg.inv(block)).all():
                break
        except np.linalg.LinAlgError:
            break
    raise _SingularPivot(t, index)


def _line_search(system: ResidualSystem, vec, res, sup: float, direction, tries: int):
    """The first of the steps 1, 1/2, 1/4, ... (at most ``tries``) whose trial
    point passes the sufficient-decrease rule, as (step, point, residual);
    None if none does.  The full step takes one evaluation; the halvings
    after it go as stacks of 2, 4, 8, ... trial points, each at most as many
    as ``STACK_FLOATS`` holds (and one at least), so that a search evaluates
    fewer than twice the trials it needs, and each trial's residual is bit
    for bit that of its own evaluation."""
    scaled = res / sup
    phi0 = float(scaled @ scaled)
    steps = 0.5 ** np.arange(tries)
    cap = max(1, STACK_FLOATS // system.size)
    lo, width = 0, 1
    while lo < tries:
        hi = min(tries, lo + width)
        trials = vec + steps[lo:hi, None] * direction
        for s, trial, trial_res in zip(steps[lo:hi], trials, system.residual(trials)):
            trial_scaled = trial_res / sup
            if float(trial_scaled @ trial_scaled) <= (1.0 - 2.0 * ARMIJO_SLOPE * s) * phi0:
                return float(s), trial, trial_res
        lo, width = hi, min(2 * width, cap)
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
