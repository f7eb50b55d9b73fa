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
the Jacobian is built with one evaluation of F per colour of columns (Curtis,
Powell & Reid 1974), a count that depends on the branch counts and the
dimensions but not on the size of the tree.
Plain backward equations (no forward state) are covered by the same machinery
with an empty X block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bsde import BackwardSystem, Generator, compensator_slabs, driver_terms
from .filtration import AdaptedProcess, ProbabilityTree
from .linear_fbsde import LinearCoefficients, equation_defects, require_coupled_tree
from .nonlinear_fbsde import NonlinearModel

__all__ = [
    "NewtonTrace", "OracleFailedError", "OracleSolution", "ResidualSystem",
    "build_residual_system", "solution_gap", "solve_global_newton",
]

NEWTON_TOL = 1e-10
NEWTON_MAX_ITERS = 50
FD_STEP = 1e-7
ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class NewtonTrace:
    converged: bool
    iterations: int
    residual_norms: tuple[float, ...]
    step_sizes: tuple[float, ...]
    message: str


class OracleFailedError(Exception):
    """The damped Newton iteration could not reach the requested tolerance."""

    def __init__(self, message: str, trace: NewtonTrace | None = None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class ResidualSystem:
    """Square residual map of one slab system ``problem`` on one tree.

    ``problem`` is a LinearCoefficients, NonlinearModel or BackwardSystem:
    anything with ``n``, ``x0`` and the slab protocol that
    :func:`~fbsdelta.linear_fbsde.equation_defects` reads.  Its functions must
    be row-local (row i of a result reads only row i of the inputs), which is
    what the colouring in :meth:`jacobian` relies on.
    """

    tree: ProbabilityTree
    problem: LinearCoefficients | NonlinearModel | BackwardSystem

    @property
    def m(self) -> int:
        return self.problem.m

    @property
    def n(self) -> int:
        return self.problem.n

    @property
    def size(self) -> int:
        return self._layout[0]

    @cached_property
    def _layout(self) -> tuple[int, list, list[np.ndarray], list[np.ndarray]]:
        """The stacked unknowns: X for t = 1..T, Y for t = 0..T, Z for t = 0..T-1."""
        T, d = self.tree.horizon, self.tree.d
        return _stacking(self.tree, ((1, T, (self.m, 1)), (0, T, (self.n, 1)), (0, T - 1, (self.n, d))))

    # -- packing -------------------------------------------------------

    def unpack(self, vec: np.ndarray):
        """Slab lists (X_0..X_T, Y_0..Y_T, Z_0..Z_{T-1}) viewing ``vec``; X_0 is x0."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.size,):
            raise ValueError(f"expected a flat vector of {self.size} unknowns")
        x, y, z = ([vec[span].reshape(shape) for _, span, shape in block] for block in self._layout[1])
        return [self.problem.x0[None, :, :]] + x, y, z

    def pack(
        self,
        y: AdaptedProcess,
        z: AdaptedProcess,
        x: AdaptedProcess | None = None,
    ) -> np.ndarray:
        if self.m and x is None:
            raise ValueError("this system has forward unknowns; x is required")
        vec = np.empty(self.size)
        for proc, block in zip((x if self.m else None, y, z), self._layout[1]):
            if proc is not None:
                for t, span, _ in block:
                    vec[span] = proc.at(t).ravel()
        return vec

    # -- evaluation ------------------------------------------------------

    def residual(self, vec: np.ndarray) -> np.ndarray:
        defects = equation_defects(self.problem, self.tree, *self.unpack(vec))
        slabs = (*defects.forward, *defects.y_projection, *defects.z_projection, defects.terminal)
        return np.concatenate([slab.ravel() for slab in slabs])

    def jacobian(self, vec: np.ndarray) -> np.ndarray:
        """Forward-difference Jacobian, one residual evaluation per colour of
        columns (plus the base point) rather than per unknown.

        All columns of one colour are bumped together; since no residual row
        depends on two of them, each row's difference belongs to the one
        column of that colour in the row's structural neighbourhood, so the
        result equals the column-by-column quotients exactly.
        """
        vec = np.asarray(vec, dtype=float)
        groups, rows, cols, colours = self._colouring
        base = self.residual(vec)
        diffs = np.empty((len(groups), self.size))
        for c, group in enumerate(groups):
            bumped = vec.copy()
            bumped[group] += FD_STEP
            diffs[c] = (self.residual(bumped) - base) / FD_STEP
        jac = np.zeros((self.size, self.size))
        jac[rows, cols] = diffs[colours, rows]
        return jac

    @cached_property
    def _colouring(self) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray, np.ndarray]:
        """Column colouring and structural nonzeros of the Jacobian: the
        columns bumped together per colour, and each structural nonzero
        ``(rows[i], cols[i])`` with the colour ``colours[i]`` of its column.

        An unknown at node a enters only the residual rows of a, of its
        parent and of its children (the model functions are row-local), so
        two unknowns share a row only if their nodes are at most two edges
        apart.  The node colour (t mod 3, index among siblings) differs
        across any such pair; a column's colour adds its block (X, Y, Z) and
        component, so no row sees two columns of one colour.
        """
        tree, m, n = self.tree, self.m, self.n
        T, d = tree.horizon, tree.d
        width = m + n + n * d
        _, _, col_index, col_slot = self._layout
        row_index = _stacking(tree, ((1, T, (m, 1)), (0, T - 1, (n, 1)), (0, T - 1, (n, d)), (T, T, (n, 1))))[2]
        k_max = max(tree.branch_count(t) for t in range(T))
        colour = np.empty(self.size, dtype=np.intp)
        rows, cols = [], []
        for t in range(T + 1):
            count = tree.node_count(t)
            ranks = np.arange(count)
            related = [row_index[t]]
            sibling = np.zeros(count, dtype=np.intp)
            if t > 0:
                sibling = ranks % tree.branch_count(t - 1)
                related.append(row_index[t - 1][ranks // tree.branch_count(t - 1)])
            if t < T:
                related.append(row_index[t + 1].reshape(count, -1))
            related = np.hstack(related)
            node_colour = (t % 3) * k_max + sibling
            colour[col_index[t]] = node_colour[:, None] * width + col_slot[t][None, :]
            shape = col_index[t].shape + related.shape[1:]
            rows.append(np.broadcast_to(related[:, None, :], shape).ravel())
            cols.append(np.broadcast_to(col_index[t][:, :, None], shape).ravel())
        _, colour = np.unique(colour, return_inverse=True)
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        groups = tuple(np.flatnonzero(colour == c) for c in range(colour.max() + 1))
        return groups, rows, cols, colour[cols]


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
    require_coupled_tree(tree, getattr(problem, "horizon", None))
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


def _assemble_solution(system: ResidualSystem, vec: np.ndarray, trace: NewtonTrace) -> OracleSolution:
    tree = system.tree
    T = tree.horizon
    x, y, z = system.unpack(vec)
    n_slabs = compensator_slabs(tree, driver_terms(system.problem, tree, x, y, z)[1], y, z)
    return OracleSolution(
        X=AdaptedProcess(tree, 0, T, tuple(x)) if system.m else None,
        Y=AdaptedProcess(tree, 0, T, tuple(y)),
        Z=AdaptedProcess(tree, 0, T - 1, tuple(z)),
        N=AdaptedProcess(tree, 0, T, tuple(n_slabs)),
        equation_residual=float(np.abs(system.residual(vec)).max()),
        trace=trace,
    )


# A trial residual past the float range reads inf and fails the line search.
@np.errstate(over="ignore")
def solve_global_newton(system: ResidualSystem, max_iters: int = NEWTON_MAX_ITERS) -> OracleSolution:
    """Drive the stacked residual from zero to sup-norm ``NEWTON_TOL`` by
    damped Newton steps.

    Each step solves the finite-difference Jacobian system (falling back to a
    least-squares direction when it is singular) and backtracks until the
    squared norm of the residual, divided by the current sup-norm, satisfies
    a standard sufficient-decrease rule.  The scaling keeps the merit finite
    at the current point, so a residual near the float range cannot pass
    every trial as inf <= inf.
    """
    vec = np.zeros(system.size)
    norms: list[float] = []
    steps: list[float] = []
    for iteration in range(max_iters):
        res = system.residual(vec)
        sup = float(np.abs(res).max())
        norms.append(sup)
        if sup <= NEWTON_TOL:
            trace = NewtonTrace(True, iteration, tuple(norms), tuple(steps), "converged")
            return _assemble_solution(system, vec, trace)
        jac = system.jacobian(vec)
        try:
            direction = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(jac, -res, rcond=None)[0]
        scaled = res / sup
        phi0 = float(scaled @ scaled)
        s = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = vec + s * direction
            trial_res = system.residual(trial) / sup
            if float(trial_res @ trial_res) <= (1.0 - 2.0 * ARMIJO_SLOPE * s) * phi0:
                break
            s *= 0.5
        else:
            trace = NewtonTrace(False, iteration, tuple(norms), tuple(steps), "line search stalled")
            raise OracleFailedError(
                f"line search could not reduce the residual below {sup:.3e}", trace
            )
        steps.append(s)
        vec = vec + s * direction
    res = system.residual(vec)
    norms.append(float(np.abs(res).max()))
    trace = NewtonTrace(False, max_iters, tuple(norms), tuple(steps), "iteration limit reached")
    raise OracleFailedError(
        f"no convergence within {max_iters} iterations (residual {norms[-1]:.3e})", trace
    )


def solution_gap(first, second) -> float:
    """Largest sup-norm gap between the shared components of two solutions."""
    worst = 0.0
    for name in ("X", "Y", "Z", "N"):
        pa = getattr(first, name, None)
        pb = getattr(second, name, None)
        if pa is None or pb is None:
            continue
        worst = max(worst, (pa - pb).sup_norm())
    return worst
