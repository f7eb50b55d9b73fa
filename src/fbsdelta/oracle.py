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
Powell & Reid 1974): K_max + 2 node colours (K_max the largest branch count)
times the unknowns per node, 12 for m = n = 1 on a binary tree, whatever its
size.  While Newton contracts it keeps its last Jacobian (a chord step;
Kelley, Solving Nonlinear Equations with Newton's Method, SIAM 2003), and it
measures convergence on F itself, never on the Jacobian.  The Jacobian is a
dense matrix, so a system of more than DENSE_SIZE_LIMIT unknowns is refused.
Plain backward equations (no forward state) are covered by the same machinery
with an empty X block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bsde import BackwardSystem, Generator, build_solution
from .filtration import AdaptedProcess, ProbabilityTree, sup_abs
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
# a full Newton step that cuts the sup-residual by this factor keeps its Jacobian
REUSE_CONTRACTION = 0.1
# largest system the dense Jacobian serves: the matrix and the solve's copy of
# it take 2 * 8 * size**2 bytes, about 1 GiB at this size
DENSE_SIZE_LIMIT = 8000


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
class ResidualSystem:
    """Square residual map of one slab system ``problem`` on one tree.

    ``problem`` is a LinearCoefficients, NonlinearModel or BackwardSystem:
    anything with ``m``, ``n``, ``x0`` and the slab protocol that
    :func:`~fbsdelta.linear_fbsde.equation_defects` reads (``drift``,
    ``noise_loading``, ``driver`` and ``terminal``).  Those four must be
    row-local (row i of a result reads only row i of the inputs), which is
    what the colouring in :meth:`jacobian` relies on.  A system of more than
    ``DENSE_SIZE_LIMIT`` unknowns is refused with OracleFailedError.
    """

    tree: ProbabilityTree
    problem: LinearCoefficients | NonlinearModel | BackwardSystem

    def __post_init__(self):
        # from the node counts alone, before any array of the system's size exists
        size = sum(
            self.tree.node_count(t) * math.prod(shape) for lo, hi, shape in self._blocks for t in range(lo, hi + 1)
        )
        if size > DENSE_SIZE_LIMIT:
            raise OracleFailedError(
                f"the oracle's dense Jacobian would have {size} unknowns and need {16 * size**2:.3e} bytes "
                f"with the solve's copy, over the limit of {DENSE_SIZE_LIMIT} unknowns"
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
        """Slab lists (X_0..X_T, Y_0..Y_T, Z_0..Z_{T-1}) viewing ``vec``; X_0 is x0."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.size,):
            raise ValueError(f"expected a flat vector of {self.size} unknowns")
        x, y, z = ([vec[span].reshape(shape) for _, span, shape in block] for block in self._layout[1])
        return [self.problem.x0[None, :, :]] + x, y, z

    # -- evaluation ------------------------------------------------------

    def residual(self, vec: np.ndarray) -> np.ndarray:
        defects = equation_defects(self.problem, self.tree, *self.unpack(vec))
        slabs = (*defects.forward, *defects.y_projection, *defects.z_projection, defects.terminal)
        return np.concatenate([slab.ravel() for slab in slabs])

    def jacobian(self, vec: np.ndarray, *, _base: np.ndarray | None = None) -> np.ndarray:
        """Forward-difference Jacobian, one residual evaluation per colour of
        columns (plus the base point) rather than per unknown.

        All columns of one colour are bumped together; since no residual row
        depends on two of them, each row's difference belongs to the one
        column of that colour in the row's structural neighbourhood, so the
        result equals the column-by-column quotients exactly.  ``_base`` is
        the residual at ``vec`` when the caller already holds it (Newton
        does), which saves the base evaluation.
        """
        vec = np.asarray(vec, dtype=float)
        groups, rows, cols, colours = self._colouring
        base = self.residual(vec) if _base is None else _base
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
        rows, cols = [], []
        for t in range(T + 1):
            count = tree.node_count(t)
            related = [row_index[t]]
            if t > 0:
                related.append(row_index[t - 1][np.arange(count) // tree.branch_count(t - 1)])
            if t < T:
                related.append(row_index[t + 1].reshape(count, -1))
            related = np.hstack(related)
            colour[col_index[t]] = node_colour[:, None] * width + col_slot[t][None, :]
            shape = col_index[t].shape + related.shape[1:]
            rows.append(np.broadcast_to(related[:, None, :], shape).ravel())
            cols.append(np.broadcast_to(col_index[t][:, :, None], shape).ravel())
            if t < T:
                # the k-th child of a node coloured c, whose parent is coloured
                # p, takes the k-th colour outside {c, p}: skip the smaller, then the larger
                parent, q = np.divmod(np.arange(tree.node_count(t + 1)), tree.branch_count(t))
                c, p = node_colour[parent], parent_colour[parent]
                q += q >= np.minimum(c, p)
                q += q >= np.maximum(c, p)
                node_colour, parent_colour = q, c
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


def _direction(jac: np.ndarray, res: np.ndarray) -> np.ndarray:
    """The Newton direction, or a least-squares one when ``jac`` is singular."""
    try:
        return np.linalg.solve(jac, -res)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(jac, -res, rcond=None)[0]


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

    Each step solves the finite-difference Jacobian system (falling back to a
    least-squares direction when it is singular) and backtracks until the
    squared norm of the residual, divided by the current sup-norm, satisfies
    a standard sufficient-decrease rule.  The scaling keeps the merit finite
    at the current point, so a residual near the float range cannot pass
    every trial as inf <= inf.

    While Newton contracts, the last Jacobian is kept (a chord step): after a
    full step that cut the sup-residual by ``REUSE_CONTRACTION``, the next
    step first tries the full step along the kept Jacobian's direction.  A
    new Jacobian is built after a damped step, after a step that contracted
    less, and when that full chord step fails the sufficient-decrease rule
    (then at the same point, followed by the usual backtracking).  So a failed
    line search always comes from a fresh Jacobian.
    """
    vec = np.zeros(system.size)
    res = system.residual(vec)
    norms: list[float] = []
    steps: list[float] = []
    jac, jacobians = None, 0
    for iteration in range(NEWTON_MAX_ITERS):
        sup = float(np.abs(res).max())
        if steps and (steps[-1] < 1.0 or sup > REUSE_CONTRACTION * norms[-1]):
            jac = None
        norms.append(sup)
        if sup <= NEWTON_TOL:
            trace = NewtonTrace(True, iteration, jacobians, tuple(norms), tuple(steps), "converged")
            x, y, z = system.unpack(vec)
            sol = build_solution(system.problem, system.tree, x if system.m else None, y, z)
            return OracleSolution(sol.X, sol.Y, sol.Z, sol.N, equation_residual=sup, trace=trace)
        found = None if jac is None else _line_search(system, vec, res, sup, _direction(jac, res), 1)
        if found is None:
            jac = system.jacobian(vec, _base=res)
            jacobians += 1
            found = _line_search(system, vec, res, sup, _direction(jac, res), MAX_BACKTRACKS)
        if found is None:
            trace = NewtonTrace(False, iteration, jacobians, tuple(norms), tuple(steps), "line search stalled")
            raise OracleFailedError(
                f"line search could not reduce the residual below {sup:.3e}", trace
            )
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
