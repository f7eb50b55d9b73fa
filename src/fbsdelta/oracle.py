"""Independent verification by global root finding.

Instead of exploiting any decoupling structure, every defining equation of a
system is assembled into one square residual map F over the stacked unknowns

    X_t(node) for t = 1..T   (X_0 is pinned to x0 and not an unknown),
    Y_t(node) for t = 0..T,
    Z_t(node) for t = 0..T-1,

with residual blocks ordered: forward equations at every child node
(t ascending), conditional-mean projections of Y, increment projections of Z,
then the terminal condition at the leaves.  F is driven to zero by a damped
Newton iteration with finite-difference Jacobians, which shares no algorithmic
step with the structured solvers and therefore serves as an oracle for them.
Each residual row reads only its node, the node's parent and its children, so
the Jacobian is built with one evaluation of F per colour of columns (Curtis,
Powell & Reid 1974), a count that depends on the branch counts and the
dimensions but not on the size of the tree.
Plain backward equations (no forward state) are covered by the same machinery
with an empty X block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .bsde import Generator
from .filtration import AdaptedProcess, ProbabilityTree
from .linear_fbsde import LinearCoefficients
from .nonlinear_fbsde import NonlinearModel

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
    """Square residual map for one system on one tree.

    ``forward_terms(t, x, y, z) -> (drift, vol)`` evaluates the forward
    coefficients on whole time slabs (``None`` when there is no forward
    state); ``minus_driver(t, x, y, z)`` returns the term added to the
    backward increment (the negated driver), with ``z=None`` at t = T;
    ``terminal_map(x_T)`` gives the required Y_T slab.  All three must be
    row-local (row i of a result reads only row i of the inputs), which is
    what the colouring in :meth:`jacobian` relies on.
    """

    tree: ProbabilityTree
    m: int
    n: int
    size: int
    x0: np.ndarray
    forward_terms: Callable | None
    minus_driver: Callable
    terminal_map: Callable

    # -- packing -------------------------------------------------------

    def unpack(self, vec: np.ndarray):
        tree, m, n = self.tree, self.m, self.n
        T, d = tree.horizon, tree.d
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.size,):
            raise ValueError(f"expected a flat vector of {self.size} unknowns")
        pos = 0
        x_slabs = [self.x0[None, :, :]]
        for t in range(1, T + 1):
            cnt = tree.node_count(t)
            x_slabs.append(vec[pos : pos + cnt * m].reshape(cnt, m, 1))
            pos += cnt * m
        y_slabs = []
        for t in range(T + 1):
            cnt = tree.node_count(t)
            y_slabs.append(vec[pos : pos + cnt * n].reshape(cnt, n, 1))
            pos += cnt * n
        z_slabs = []
        for t in range(T):
            cnt = tree.node_count(t)
            z_slabs.append(vec[pos : pos + cnt * n * d].reshape(cnt, n, d))
            pos += cnt * n * d
        return x_slabs, y_slabs, z_slabs

    def pack(
        self,
        y: AdaptedProcess,
        z: AdaptedProcess,
        x: AdaptedProcess | None = None,
    ) -> np.ndarray:
        T = self.tree.horizon
        parts = []
        if self.m:
            if x is None:
                raise ValueError("this system has forward unknowns; x is required")
            parts.extend(x.at(t).ravel() for t in range(1, T + 1))
        parts.extend(y.at(t).ravel() for t in range(T + 1))
        parts.extend(z.at(t).ravel() for t in range(T))
        return np.concatenate(parts)

    # -- evaluation ------------------------------------------------------

    def residual(self, vec: np.ndarray) -> np.ndarray:
        tree = self.tree
        T = tree.horizon
        x, y, z = self.unpack(vec)
        out = []
        if self.m:
            for t in range(T):
                k = tree.branch_count(t)
                points = tree.steps[t].points[:, 0]
                w = np.tile(points, tree.node_count(t))[:, None, None]
                drift, vol = self.forward_terms(t, x[t], y[t], z[t])
                pred = np.repeat(x[t] + drift, k, axis=0) + np.repeat(vol, k, axis=0) * w
                out.append((x[t + 1] - pred).ravel())
        lam = []
        for t in range(T):
            z_next = z[t + 1] if t + 1 < T else None
            lam_t = y[t + 1] - self.minus_driver(t + 1, x[t + 1], y[t + 1], z_next)
            lam.append(lam_t)
            out.append((y[t] - tree.expect_next(lam_t, t)).ravel())
        for t in range(T):
            out.append((z[t] - tree.expect_next_increment(lam[t], t)).ravel())
        out.append((y[T] - self.terminal_map(x[T])).ravel())
        return np.concatenate(out)

    def jacobian(self, vec: np.ndarray, step: float = FD_STEP, scheme: str = "forward") -> np.ndarray:
        """Finite-difference Jacobian, one residual evaluation (two for
        ``central``) per colour of columns rather than per unknown.

        All columns of one colour are bumped together; since no residual row
        depends on two of them, each row's difference belongs to the one
        column of that colour in the row's structural neighbourhood, so the
        result equals the column-by-column quotients exactly.
        """
        if scheme not in ("forward", "central"):
            raise ValueError("scheme must be 'forward' or 'central'")
        vec = np.asarray(vec, dtype=float)
        groups, rows, cols, colours = self._colouring
        base = self.residual(vec) if scheme == "forward" else None
        diffs = np.empty((len(groups), self.size))
        for c, group in enumerate(groups):
            bumped = vec.copy()
            bumped[group] += step
            hi = self.residual(bumped)
            if scheme == "forward":
                diffs[c] = (hi - base) / step
            else:
                bumped[group] -= 2.0 * step
                diffs[c] = (hi - self.residual(bumped)) / (2.0 * step)
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
        col_index, col_slot = _node_layout(tree, ((1, T, m), (0, T, n), (0, T - 1, n * d)))
        row_index, _ = _node_layout(tree, ((1, T, m), (0, T - 1, n), (0, T - 1, n * d), (T, T, n)))
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


def _node_layout(tree: ProbabilityTree, blocks) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Positions in a stacked vector, gathered by node.

    ``blocks`` lists ``(first time, last time, width)`` in stacking order;
    each block holds ``width`` entries per node, times ascending.  Returns
    per time t a (node_count(t), entries) array of positions and the label
    of each entry (its offset across the concatenated block widths).
    """
    T = tree.horizon
    index: list[list[np.ndarray]] = [[] for _ in range(T + 1)]
    labels: list[list[np.ndarray]] = [[] for _ in range(T + 1)]
    pos = label = 0
    for lo, hi, width in blocks:
        for t in range(lo, hi + 1):
            count = tree.node_count(t)
            index[t].append(pos + np.arange(count * width).reshape(count, width))
            labels[t].append(label + np.arange(width))
            pos += count * width
        label += width
    return [np.hstack(ix) for ix in index], [np.concatenate(lb) for lb in labels]


def _system_size(tree: ProbabilityTree, m: int, n: int) -> int:
    T, d = tree.horizon, tree.d
    size = sum(tree.node_count(t) * m for t in range(1, T + 1))
    size += sum(tree.node_count(t) * n for t in range(T + 1))
    size += sum(tree.node_count(t) * n * d for t in range(T))
    return size


def build_residual_system(
    tree: ProbabilityTree,
    problem,
    eta: AdaptedProcess | None = None,
) -> ResidualSystem:
    """Residual system for linear coefficients, a nonlinear model, or a plain
    backward equation (generator plus terminal data ``eta``)."""
    if isinstance(problem, LinearCoefficients):
        if tree.horizon != problem.horizon:
            raise ValueError("tree and coefficients disagree on the horizon")
        if tree.d != 1:
            raise ValueError("linear systems require one-dimensional driving noise")
        coeffs = problem

        def terminal_map(x):
            return np.einsum("ij,njk->nik", coeffs.G, x) + coeffs.g.at(tree.horizon)

        return ResidualSystem(
            tree=tree,
            m=coeffs.m,
            n=coeffs.n,
            size=_system_size(tree, coeffs.m, coeffs.n),
            x0=coeffs.x0,
            forward_terms=coeffs.forward_terms,
            minus_driver=coeffs.minus_driver,
            terminal_map=terminal_map,
        )

    if isinstance(problem, NonlinearModel):
        if tree.d != 1:
            raise ValueError("coupled nonlinear systems require one-dimensional driving noise")
        model = problem
        m, n = model.m, model.n

        def forward_terms(t, x, y, z):
            nodes = tree.nodes(t)
            return model.drift(t, x, y, z, nodes), model.noise_loading(t, x, y, z, nodes)

        def minus_driver(t, x, y, z):
            return -model.driver(t, x, y, z, tree.nodes(t))

        def terminal_map(x):
            return model.terminal(x, tree.nodes(tree.horizon))

        return ResidualSystem(
            tree=tree,
            m=m,
            n=n,
            size=_system_size(tree, m, n),
            x0=model.x0,
            forward_terms=forward_terms,
            minus_driver=minus_driver,
            terminal_map=terminal_map,
        )

    if isinstance(problem, Generator):
        if eta is None:
            raise ValueError("a plain backward equation needs terminal data eta")
        gen = problem
        if gen.d != tree.d:
            raise ValueError("generator and tree disagree on the noise dimension")
        n = gen.n
        if eta.shape != (n, 1) or eta.t_hi < tree.horizon or eta.t_lo > tree.horizon:
            raise ValueError("eta must be an (n, 1) process defined at the horizon")
        eta_slab = eta.at(tree.horizon)

        def minus_driver(t, x, y, z):
            return -gen.on_slab(tree, t, y, z)

        return ResidualSystem(
            tree=tree,
            m=0,
            n=n,
            size=_system_size(tree, 0, n),
            x0=np.zeros((0, 1)),
            forward_terms=None,
            minus_driver=minus_driver,
            terminal_map=lambda x: eta_slab,
        )

    raise TypeError(f"no residual system is defined for {type(problem).__name__}")


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
    n_slabs = [np.zeros((1, system.n, 1))]
    for t in range(T):
        k = tree.branch_count(t)
        points = tree.steps[t].points
        zdw = np.einsum("nrd,kd->nkr", z[t], points).reshape(tree.node_count(t + 1), system.n, 1)
        z_next = z[t + 1] if t + 1 < T else None
        dn = (
            y[t + 1]
            - np.repeat(y[t], k, axis=0)
            - system.minus_driver(t + 1, x[t + 1], y[t + 1], z_next)
            - zdw
        )
        n_slabs.append(np.repeat(n_slabs[t], k, axis=0) + dn)
    return OracleSolution(
        X=AdaptedProcess(tree, 0, T, tuple(x)) if system.m else None,
        Y=AdaptedProcess(tree, 0, T, tuple(y)),
        Z=AdaptedProcess(tree, 0, T - 1, tuple(z)),
        N=AdaptedProcess(tree, 0, T, tuple(n_slabs)),
        equation_residual=float(np.abs(system.residual(vec)).max()),
        trace=trace,
    )


def solve_global_newton(
    system: ResidualSystem,
    start: np.ndarray | None = None,
    tol: float = NEWTON_TOL,
    max_iters: int = NEWTON_MAX_ITERS,
    fd_step: float = FD_STEP,
    scheme: str = "forward",
) -> OracleSolution:
    """Drive the stacked residual to (sup-norm) ``tol`` by damped Newton steps.

    Each step solves the finite-difference Jacobian system (falling back to a
    least-squares direction when it is singular) and backtracks until the
    squared residual norm satisfies a standard sufficient-decrease rule.
    """
    vec = np.zeros(system.size) if start is None else np.asarray(start, dtype=float).copy()
    norms: list[float] = []
    steps: list[float] = []
    for iteration in range(max_iters):
        res = system.residual(vec)
        sup = float(np.abs(res).max())
        norms.append(sup)
        if sup <= tol:
            trace = NewtonTrace(True, iteration, tuple(norms), tuple(steps), "converged")
            return _assemble_solution(system, vec, trace)
        jac = system.jacobian(vec, step=fd_step, scheme=scheme)
        try:
            direction = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(jac, -res, rcond=None)[0]
        phi0 = float(res @ res)
        s = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = vec + s * direction
            trial_res = system.residual(trial)
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
