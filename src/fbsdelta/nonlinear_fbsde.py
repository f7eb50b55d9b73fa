"""Continuation solver for coupled nonlinear forward-backward systems (d = 1).

A nonlinear model prescribes drift b, noise loading sigma, backward driver f
and terminal map h for the system

    X_{t+1} - X_t = b(t, L_t) + sigma(t, L_t) dW_t,          L_t = (X_t, Y_t, Z_t),
    Y_{t+1} - Y_t = -f(t+1, L_{t+1}) + Z_t dW_t + (N_{t+1} - N_t),
    X_0 = x0,  Y_T = h(X_T),

together with coupling weights (beta1, beta2) and a full-rank matrix G.  The
solver embeds the model into the one-parameter family that interpolates, with
weight alpha, between an always-solvable linear base system (the anchor:
forward reacting through -beta2 * G^T, backward through -beta1 * G, terminal
G) and the model itself.  Each interpolation level is solved by freezing the
level increment at the previous iterate and solving the resulting linear
system exactly, walking alpha from 0 to 1 in adaptive steps that halve when a
fixed-point stage stalls.  Recursion into previously solved levels is capped;
beyond the cap a level is attacked directly from the anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .filtration import AdaptedProcess, ProbabilityTree, is_martingale, is_strongly_orthogonal, sup_abs
from .linear_fbsde import (
    RANK_TOL,
    FbsdeSolution,
    LinearCoefficients,
    NotSolvableError,
    _solve_linear,
    anchor_coefficients,
    riccati_matrices,
)

__all__ = [
    "NonlinearModel",
    "ProcessTriple",
    "ContinuationConfig",
    "ContinuationFailedError",
    "ContinuationResult",
    "ContinuationTrace",
    "StageRecord",
    "MonotonicityReport",
    "NonlinearResidualReport",
    "DualityReport",
    "check_monotone",
    "duality_gap",
    "homotopy_coefficients",
    "nonlinear_residual",
    "reconstruct_compensator",
    "solve_continuation",
    "weighted_distance",
]


def _slab(value, rows: int, what: str, nodes) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    try:
        arr = arr.reshape(len(nodes), rows, 1)
    except ValueError as exc:
        raise ValueError(f"{what} must produce {len(nodes)} x {rows} values, got shape {arr.shape}") from exc
    if not np.isfinite(arr).all():
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=(1, 2)))[0]
        raise ValueError(f"{what} produced non-finite values at node {nodes[bad]}")
    return arr


@dataclass(frozen=True)
class NonlinearModel:
    """Coupled nonlinear system, phrased around its linear anchor.

    ``b``, ``sigma`` and ``f`` are slab callables ``fn(t, x, y, z, nodes)``:
    ``x`` of shape (N, m, 1), ``y`` and ``z`` of shape (N, n, 1) and the N
    tree nodes the rows belong to (on a whole slab, ``tree.nodes(t)``).  They
    return (N, m, 1), (N, m, 1) and (N, n, 1) arrays, or anything that
    reshapes to them, and must not modify their arguments.  ``f`` is
    evaluated at times 1..T with z frozen to zero at t = T.  ``h(x, nodes)``
    returns (N, n, 1).  ``None`` means the zero function for b/sigma/f and
    the plain linear map x -> G x for h.  Per-node callables are wrapped by
    :meth:`pointwise`.
    """

    m: int
    n: int
    G: np.ndarray
    beta1: float
    beta2: float
    x0: np.ndarray
    b: Callable | None = None
    sigma: Callable | None = None
    f: Callable | None = None
    h: Callable | None = None

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("dimensions must be positive")
        G = np.asarray(self.G, dtype=float)
        if G.shape != (self.n, self.m):
            raise ValueError(f"G must have shape ({self.n}, {self.m}), got {G.shape}")
        s = np.linalg.svd(G, compute_uv=False)
        if s[min(self.m, self.n) - 1] <= RANK_TOL:
            raise ValueError("terminal coupling G must have full rank min(m, n)")
        if self.beta1 < 0 or self.beta2 < 0:
            raise ValueError("the coupling weights must be nonnegative")
        if self.beta1 + self.beta2 <= 0:
            raise ValueError("at least one coupling weight must be positive")
        if self.n > self.m and self.beta1 <= 0:
            raise ValueError("beta1 must be positive when n > m")
        if self.m > self.n and self.beta2 <= 0:
            raise ValueError("beta2 must be positive when m > n")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(self.m, 1))

    @classmethod
    def pointwise(cls, m: int, n: int, G, beta1: float, beta2: float, x0, b=None, sigma=None, f=None, h=None):
        """Model from per-node callables ``b/sigma/f(t, x, y, z, node)`` with
        (m, 1), (n, 1), (n, 1) column arguments and ``h(x, node)``, each
        called once per row of a slab."""

        def per_row(fn, rows: int):
            def slab_fn(*args):  # (t, x, y, z, nodes) or (x, nodes); t is the only non-array
                *head, nodes = args
                out = np.empty((len(nodes), rows, 1))
                for i, node in enumerate(nodes):
                    row = [a[i] if isinstance(a, np.ndarray) else a for a in head]
                    out[i] = np.asarray(fn(*row, node), dtype=float).reshape(rows, 1)
                return out

            return None if fn is None else slab_fn

        return cls(m, n, G, beta1, beta2, x0, per_row(b, m), per_row(sigma, m), per_row(f, n), per_row(h, n))

    # -- slab evaluation with zero/linear defaults ----------------------

    def drift(self, t, x, y, z, nodes) -> np.ndarray:
        if self.b is None:
            return np.zeros((len(nodes), self.m, 1))
        return _slab(self.b(t, x, y, z, nodes), self.m, f"b(t={t})", nodes)

    def noise_loading(self, t, x, y, z, nodes) -> np.ndarray:
        if self.sigma is None:
            return np.zeros((len(nodes), self.m, 1))
        return _slab(self.sigma(t, x, y, z, nodes), self.m, f"sigma(t={t})", nodes)

    def driver(self, t, x, y, z, nodes) -> np.ndarray:
        """f on a slab; ``z=None`` stands for z = 0 (the value used at t = T)."""
        if self.f is None:
            return np.zeros((len(nodes), self.n, 1))
        if z is None:
            z = np.zeros((len(nodes), self.n, 1))
        return _slab(self.f(t, x, y, z, nodes), self.n, f"f(t={t})", nodes)

    def terminal(self, x, nodes) -> np.ndarray:
        if self.h is None:
            return self.G @ x
        return _slab(self.h(x, nodes), self.n, "h", nodes)


@dataclass(frozen=True)
class ProcessTriple:
    """The (X, Y, Z) part of a solution, the state a fixed-point map acts on."""

    x: AdaptedProcess
    y: AdaptedProcess
    z: AdaptedProcess

    @classmethod
    def zeros(cls, tree: ProbabilityTree, m: int, n: int) -> "ProcessTriple":
        T = tree.horizon
        return cls(
            x=AdaptedProcess.zeros(tree, (m, 1), 0, T),
            y=AdaptedProcess.zeros(tree, (n, 1), 0, T),
            z=AdaptedProcess.zeros(tree, (n, 1), 0, T - 1),
        )

    @classmethod
    def from_solution(cls, sol: FbsdeSolution) -> "ProcessTriple":
        return cls(x=sol.X, y=sol.Y, z=sol.Z)


def weighted_distance(tree: ProbabilityTree, a: ProcessTriple, b: ProcessTriple) -> float:
    """Root mean-square gap: interior times weigh all three components, the
    terminal time only the forward state and backward value."""
    total = 0.0
    T = tree.horizon
    for t in range(T):
        probs = tree.node_probabilities(t)
        gap = 0.0
        for pa, pb in ((a.x, b.x), (a.y, b.y), (a.z, b.z)):
            diff = pa.at(t) - pb.at(t)
            gap += np.einsum("n,nrc->", probs, diff * diff)
        total += gap
    probs = tree.node_probabilities(T)
    for pa, pb in ((a.x, b.x), (a.y, b.y)):
        diff = pa.at(T) - pb.at(T)
        total += np.einsum("n,nrc->", probs, diff * diff)
    return math.sqrt(float(total))


class _OffsetBundle(NamedTuple):
    D: AdaptedProcess
    Dbar: AdaptedProcess
    Dhat: AdaptedProcess
    g: AdaptedProcess

    def scaled_add(self, other: "_OffsetBundle", scale: float) -> "_OffsetBundle":
        return _OffsetBundle(
            D=self.D + other.D * scale,
            Dbar=self.Dbar + other.Dbar * scale,
            Dhat=self.Dhat + other.Dhat * scale,
            g=self.g + other.g * scale,
        )


def _zero_bundle(tree: ProbabilityTree, m: int, n: int) -> _OffsetBundle:
    T = tree.horizon
    return _OffsetBundle(
        D=AdaptedProcess.zeros(tree, (m, 1), 0, T - 1),
        Dbar=AdaptedProcess.zeros(tree, (m, 1), 0, T - 1),
        Dhat=AdaptedProcess.zeros(tree, (n, 1), 1, T),
        g=AdaptedProcess.zeros(tree, (n, 1), T, T),
    )


def _homotopy_bundle(model: NonlinearModel, tree: ProbabilityTree, frozen: ProcessTriple) -> _OffsetBundle:
    """Offsets whose alpha-scaled addition to the anchor system reproduces the
    level-alpha equations with the nonlinearity evaluated at ``frozen``."""
    T = tree.horizon
    G, Gt = model.G, model.G.T
    d_vals, dbar_vals = [], []
    for t in range(T):
        x, y, z = frozen.x.at(t), frozen.y.at(t), frozen.z.at(t)
        nodes = tree.nodes(t)
        d_vals.append(model.drift(t, x, y, z, nodes) + model.beta2 * (Gt @ y))
        dbar_vals.append(model.noise_loading(t, x, y, z, nodes) + model.beta2 * (Gt @ z))
    dhat_vals = [model.beta1 * (G @ frozen.x.at(t)) - _driver_slab(model, tree, t, frozen) for t in range(1, T + 1)]
    x_T = frozen.x.at(T)
    return _OffsetBundle(
        D=AdaptedProcess(tree, 0, T - 1, tuple(d_vals)),
        Dbar=AdaptedProcess(tree, 0, T - 1, tuple(dbar_vals)),
        Dhat=AdaptedProcess(tree, 1, T, tuple(dhat_vals)),
        g=AdaptedProcess(tree, T, T, (model.terminal(x_T, tree.nodes(T)) - G @ x_T,)),
    )


def homotopy_coefficients(
    model: NonlinearModel, tree: ProbabilityTree, alpha: float, frozen: ProcessTriple
) -> LinearCoefficients:
    """Linear system equal to the level-``alpha`` member of the interpolation
    family with its nonlinearity frozen at the given triple.  At alpha = 1 a
    solution of the model is exactly a fixed point of
    ``solve_linear(homotopy_coefficients(model, tree, 1.0, triple))``.
    """
    anchor = anchor_coefficients(tree, model.G, model.beta1, model.beta2, model.x0)
    bundle = _zero_bundle(tree, model.m, model.n).scaled_add(
        _homotopy_bundle(model, tree, frozen), alpha
    )
    return anchor.with_inhomogeneous(
        D=bundle.D, Dbar=bundle.Dbar, Dhat=bundle.Dhat, g=bundle.g, x0=model.x0
    )


# -- continuation ------------------------------------------------------------


@dataclass(frozen=True)
class ContinuationConfig:
    """Step control for the interpolation ladder.

    ``delta_init`` is the first attempted alpha step; a stage whose fixed-point
    iteration fails halves the step, down to ``delta_min``.  ``picard_start``
    selects whether each iteration starts from the best available triple
    ("warm") or from zero ("zero").  ``inner_recursion_depth_cap`` bounds how
    deep stage solves recurse into previous ladder levels before falling back
    to iterating directly against the anchor system.
    """

    delta_init: float = 0.5
    delta_min: float = 1e-3
    picard_tol: float = 1e-11
    picard_max_iters: int = 80
    inner_recursion_depth_cap: int = 2
    picard_start: str = "warm"
    validation_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.delta_min <= self.delta_init <= 1.0:
            raise ValueError("need 0 < delta_min <= delta_init <= 1")
        if self.picard_tol <= 0 or self.validation_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.picard_max_iters < 1 or self.inner_recursion_depth_cap < 0:
            raise ValueError("iteration limits must be positive")
        if self.picard_start not in ("warm", "zero"):
            raise ValueError("picard_start must be 'warm' or 'zero'")


class StageRecord(NamedTuple):
    alpha_from: float
    alpha_to: float
    delta: float
    iterations: int
    distance: float
    accepted: bool


@dataclass(frozen=True)
class ContinuationTrace:
    stages: tuple[StageRecord, ...]
    grid: tuple[float, ...]
    linear_solves: int
    final_residual: float


@dataclass(frozen=True)
class ContinuationResult:
    solution: FbsdeSolution
    trace: ContinuationTrace


class ContinuationFailedError(Exception):
    """The interpolation ladder could not reach the model (alpha = 1)."""

    def __init__(self, message: str, alpha: float, delta: float, trace: ContinuationTrace | None = None):
        super().__init__(message)
        self.alpha = alpha
        self.delta = delta
        self.trace = trace


class _StageFailed(Exception):
    def __init__(self, iterations: int, distance: float):
        super().__init__(f"fixed-point stage stalled after {iterations} iterations")
        self.iterations = iterations
        self.distance = distance


def solve_continuation(
    model: NonlinearModel,
    tree: ProbabilityTree,
    config: ContinuationConfig | None = None,
) -> ContinuationResult:
    """Walk the interpolation parameter from the anchor system to the model.

    Raises NotSolvableError if the anchor itself is not solvable and
    ContinuationFailedError if stages keep stalling at the minimum step or the
    final solution fails its residual validation.
    """
    config = config if config is not None else ContinuationConfig()
    if tree.d != 1:
        raise ValueError("continuation requires one-dimensional driving noise")
    anchor = anchor_coefficients(tree, model.G, model.beta1, model.beta2, model.x0)
    mats = riccati_matrices(anchor)
    if mats.failure_t is not None:
        raise NotSolvableError(mats.failure_t, float(mats.sigma_min[mats.failure_t]), mats)

    zero_bundle = _zero_bundle(tree, model.m, model.n)
    zero_triple = ProcessTriple.zeros(tree, model.m, model.n)
    counters = {"solves": 0}

    def linear_solve(bundle: _OffsetBundle) -> FbsdeSolution:
        counters["solves"] += 1
        coeffs = anchor.with_inhomogeneous(
            D=bundle.D, Dbar=bundle.Dbar, Dhat=bundle.Dhat, g=bundle.g, x0=model.x0
        )
        return _solve_linear(coeffs, tree, matrices=mats)

    def picard(step, start: ProcessTriple):
        u = start if config.picard_start == "warm" else zero_triple
        sol = None
        dist = math.inf
        for it in range(1, config.picard_max_iters + 1):
            sol = step(u)
            v = ProcessTriple.from_solution(sol)
            dist = weighted_distance(tree, u, v)
            u = v
            if dist <= config.picard_tol:
                return sol, it, dist
        raise _StageFailed(config.picard_max_iters, dist)

    grid = [0.0]

    def solve_level(i: int, extra: _OffsetBundle, depth: int, start: ProcessTriple):
        if i == 0:
            return linear_solve(extra), 0, 0.0
        if depth >= config.inner_recursion_depth_cap:
            alpha = grid[i]

            def step(u: ProcessTriple) -> FbsdeSolution:
                return linear_solve(extra.scaled_add(_homotopy_bundle(model, tree, u), alpha))

        else:
            delta_i = grid[i] - grid[i - 1]

            def step(u: ProcessTriple) -> FbsdeSolution:
                inner = extra.scaled_add(_homotopy_bundle(model, tree, u), delta_i)
                sol, _, _ = solve_level(i - 1, inner, depth + 1, start=u)
                return sol

        return picard(step, start)

    current = ProcessTriple.from_solution(linear_solve(zero_bundle))
    records: list[StageRecord] = []
    alpha, delta = 0.0, config.delta_init

    while alpha < 1.0 - 1e-12:
        if len(records) > 4000:
            raise ContinuationFailedError(
                f"continuation abandoned after {len(records)} stage attempts",
                alpha,
                delta,
                ContinuationTrace(tuple(records), tuple(grid), counters["solves"], math.nan),
            )
        target = min(1.0, alpha + delta)
        grid.append(target)
        try:
            sol, iters, dist = solve_level(len(grid) - 1, zero_bundle, depth=0, start=current)
        except _StageFailed as fail:
            grid.pop()
            records.append(StageRecord(alpha, target, delta, fail.iterations, fail.distance, False))
            delta *= 0.5
            if delta < config.delta_min:
                raise ContinuationFailedError(
                    f"stage from alpha={alpha:.6g} stalled even at the minimum step "
                    f"(distance {fail.distance:.3e})",
                    alpha,
                    delta,
                    ContinuationTrace(tuple(records), tuple(grid), counters["solves"], math.nan),
                ) from None
            continue
        records.append(StageRecord(alpha, target, delta, iters, dist, True))
        current = ProcessTriple.from_solution(sol)
        alpha = target

    compensator = reconstruct_compensator(model, tree, current)
    solution = FbsdeSolution(X=current.x, Y=current.y, Z=current.z, N=compensator)
    report = nonlinear_residual(model, tree, solution)
    solution = replace(solution, residual_report=report)
    trace = ContinuationTrace(tuple(records), tuple(grid), counters["solves"], report.max)
    if report.max > config.validation_tol:
        raise ContinuationFailedError(
            f"ladder reached alpha=1 but the solution residual {report.max:.3e} "
            f"exceeds {config.validation_tol:.1e}",
            1.0,
            delta,
            trace,
        )
    return ContinuationResult(solution=solution, trace=trace)


# -- residuals and reconstruction -------------------------------------------


def _driver_slab(
    model: NonlinearModel, tree: ProbabilityTree, t: int, triple: ProcessTriple
) -> np.ndarray:
    """f(t, X_t, Y_t, Z_t) on the time-t slab (z frozen to zero at t = T)."""
    z = triple.z.at(t) if t < tree.horizon else None
    return model.driver(t, triple.x.at(t), triple.y.at(t), z, tree.nodes(t))


def reconstruct_compensator(
    model: NonlinearModel, tree: ProbabilityTree, triple: ProcessTriple
) -> AdaptedProcess:
    """Orthogonal remainder implied by (X, Y, Z): accumulate the part of each
    backward increment not explained by the driver and the Z dW term."""
    T = tree.horizon
    n_slabs = [np.zeros((1, model.n, 1))]
    for t in range(T):
        k = tree.branch_count(t)
        points = tree.steps[t].points[:, 0]
        w = np.tile(points, tree.node_count(t))[:, None, None]
        dn = (
            triple.y.at(t + 1)
            - np.repeat(triple.y.at(t), k, axis=0)
            + _driver_slab(model, tree, t + 1, triple)
            - np.repeat(triple.z.at(t), k, axis=0) * w
        )
        n_slabs.append(np.repeat(n_slabs[t], k, axis=0) + dn)
    return AdaptedProcess(tree, 0, T, tuple(n_slabs))


@dataclass(frozen=True)
class NonlinearResidualReport:
    """Worst pathwise defect of each defining relation of a nonlinear system."""

    forward: float
    backward: float
    initial: float
    terminal: float
    y_projection: float
    z_projection: float
    martingale: float
    orthogonality: float

    @property
    def max(self) -> float:
        return max(
            self.forward,
            self.backward,
            self.initial,
            self.terminal,
            self.y_projection,
            self.z_projection,
            self.martingale,
            self.orthogonality,
        )


def nonlinear_residual(
    model: NonlinearModel, tree: ProbabilityTree, sol: FbsdeSolution
) -> NonlinearResidualReport:
    T = tree.horizon
    drift, vol, minus_f = _realized_terms(model, tree, sol)
    fwd = bwd = y_proj = z_proj = 0.0
    for t in range(T):
        k = tree.branch_count(t)
        points = tree.steps[t].points[:, 0]
        w = np.tile(points, tree.node_count(t))[:, None, None]
        x, y, z = sol.X.at(t), sol.Y.at(t), sol.Z.at(t)
        dx = sol.X.at(t + 1) - np.repeat(x, k, axis=0)
        fwd = max(fwd, sup_abs(dx - np.repeat(drift[t], k, axis=0) - np.repeat(vol[t], k, axis=0) * w))

        f_next = -minus_f[t + 1]
        dy = sol.Y.at(t + 1) - np.repeat(y, k, axis=0)
        dn = sol.N.at(t + 1) - np.repeat(sol.N.at(t), k, axis=0)
        bwd = max(bwd, sup_abs(dy + f_next - np.repeat(z, k, axis=0) * w - dn))

        lam = sol.Y.at(t + 1) + f_next
        y_proj = max(y_proj, sup_abs(y - tree.expect_next(lam, t)))
        z_proj = max(z_proj, sup_abs(z - tree.expect_next_increment(lam, t)))

    terminal = sup_abs(sol.Y.at(T) - model.terminal(sol.X.at(T), tree.nodes(T)))
    initial = sup_abs(sol.X.at(0)[0] - model.x0)
    mart = is_martingale(tree, sol.N)
    orth = is_strongly_orthogonal(tree, sol.N)
    return NonlinearResidualReport(
        forward=fwd,
        backward=bwd,
        initial=initial,
        terminal=terminal,
        y_projection=y_proj,
        z_projection=z_proj,
        martingale=mart.residual,
        orthogonality=orth.residual,
    )


# -- structural diagnostics --------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    """Sampled verification of the dissipativity inequalities that guarantee
    solvability of the coupled system for the declared weights."""

    ok: bool
    worst_coupling_slack: float
    worst_terminal_slack: float
    samples: int
    tol: float


def check_monotone(
    model: NonlinearModel,
    tree: ProbabilityTree,
    samples: int = 200,
    seed: int = 0,
    box: float = 5.0,
    tol: float = 1e-9,
    beta1: float | None = None,
    beta2: float | None = None,
) -> MonotonicityReport:
    """Sample pairs of states and test the coupling slack at every time layer.

    For each sampled pair and time the combined pairing of the coefficient
    differences against the state differences, plus beta1 |G dx|^2 for the
    driver part and beta2 (|G^T dy|^2 + |G^T dz|^2) for the forward part, must
    be nonpositive; the terminal map must pair nonnegatively with G dx.

    The margins default to the model's declared weights, which demand that the
    model be at least as dissipative as the solver's base family.  Pass smaller
    ``beta1``/``beta2`` (down to zero, plain monotonicity) to test a weaker
    inequality, e.g. for models that perturb the base family and keep only part
    of its margin.
    """
    rng = np.random.default_rng(seed)
    T = tree.horizon
    m, n = model.m, model.n
    beta1 = model.beta1 if beta1 is None else float(beta1)
    beta2 = model.beta2 if beta2 is None else float(beta2)
    if beta1 < 0.0 or beta2 < 0.0:
        raise ValueError("monotonicity margins beta1 and beta2 must be nonnegative")
    G, Gt = model.G, model.G.T
    # Draw in the order of one pass per sample: the pair of states, a node
    # at every time 0..T, then a leaf for the terminal map.
    counts = [tree.node_count(t) for t in range(T + 1)] + [tree.node_count(T)]
    states = np.empty((2, samples, m + 2 * n, 1))
    picks = np.empty((len(counts), samples), dtype=int)
    for s in range(samples):
        states[0, s] = rng.uniform(-box, box, size=(m + 2 * n, 1))
        states[1, s] = rng.uniform(-box, box, size=(m + 2 * n, 1))
        for j, count in enumerate(counts):
            picks[j, s] = rng.integers(count)

    def gap(values: np.ndarray) -> np.ndarray:
        return values[:samples] - values[samples:]

    # rows 0..samples-1 hold the first state of each pair, the rest the second
    both = states.reshape(2 * samples, m + 2 * n, 1)
    x, y, z = both[:, :m], both[:, m : m + n], both[:, m + n :]
    dx, dy, dz = gap(x), gap(y), gap(z)

    def pairing(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return (left * right).sum(axis=(1, 2))

    worst_coupling = -math.inf
    for t in range(T + 1):
        slab = tree.nodes(t)
        nodes = tuple(slab[i] for i in picks[t]) * 2
        slack = np.zeros(samples)
        if 1 <= t <= T:
            df = gap(model.driver(t, x, y, z if t < T else None, nodes))
            slack += -pairing(Gt @ df, dx) + beta1 * pairing(G @ dx, G @ dx)
        if t <= T - 1:
            db = gap(model.drift(t, x, y, z, nodes))
            ds = gap(model.noise_loading(t, x, y, z, nodes))
            slack += pairing(G @ db, dy) + pairing(G @ ds, dz)
            slack += beta2 * (pairing(Gt @ dy, Gt @ dy) + pairing(Gt @ dz, Gt @ dz))
        worst_coupling = max(worst_coupling, float(slack.max(initial=-math.inf)))
    leaves = tree.nodes(T)
    dh = gap(model.terminal(x, tuple(leaves[i] for i in picks[T + 1]) * 2))
    worst_terminal = float((-pairing(dh, G @ dx)).max(initial=-math.inf))
    ok = worst_coupling <= tol and worst_terminal <= tol
    return MonotonicityReport(
        ok=ok,
        worst_coupling_slack=worst_coupling,
        worst_terminal_slack=worst_terminal,
        samples=samples,
        tol=tol,
    )


# -- duality identity ---------------------------------------------------------


@dataclass(frozen=True)
class DualityReport:
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)


def _realized_terms(problem, tree: ProbabilityTree, sol: FbsdeSolution):
    """Evaluate drift, noise loading and the signed backward driver (the term
    added to Y_{t+1} - Y_t - Z_t dW_t - dN_t being its negative) along a
    solution path.  Returns (drift[t], vol[t] for t < T, minus_f[t] for t >= 1)."""
    T = tree.horizon
    linear = isinstance(problem, LinearCoefficients)
    drift, vol, minus_f = [], [], [None]
    for t in range(T):
        x, y, z = sol.X.at(t), sol.Y.at(t), sol.Z.at(t)
        if linear:
            terms = problem.forward_terms(t, x, y, z)
        else:
            terms = problem.drift(t, x, y, z, tree.nodes(t)), problem.noise_loading(t, x, y, z, tree.nodes(t))
        drift.append(terms[0])
        vol.append(terms[1])
    for t in range(1, T + 1):
        x, y, z = sol.X.at(t), sol.Y.at(t), sol.Z.at(t) if t < T else None
        minus_f.append(problem.minus_driver(t, x, y, z) if linear else -problem.driver(t, x, y, z, tree.nodes(t)))
    return drift, vol, minus_f


def duality_gap(
    tree: ProbabilityTree,
    problem_a,
    sol_a: FbsdeSolution,
    problem_b,
    sol_b: FbsdeSolution,
) -> DualityReport:
    """Summation-by-parts identity between two solved systems sharing G.

    With hats denoting differences across the two solutions, compares
    E<G dX_T, dY_T> - <G dX_0, dY_0> against the accumulated pairings of the
    realized coefficient differences with the state differences.  For exact
    solutions the two sides agree to rounding error, whatever the offset data.
    """
    G = np.asarray(problem_a.G, dtype=float)
    if not np.array_equal(G, np.asarray(problem_b.G, dtype=float)):
        raise ValueError("the duality pairing requires a shared terminal coupling G")
    T = tree.horizon
    drift_a, vol_a, mf_a = _realized_terms(problem_a, tree, sol_a)
    drift_b, vol_b, mf_b = _realized_terms(problem_b, tree, sol_b)

    def pair(t: int, left: np.ndarray, right: np.ndarray) -> float:
        probs = tree.node_probabilities(t)
        return float(np.einsum("n,nik,nik->", probs, np.einsum("ij,njk->nik", G, left), right))

    x_hat_T = sol_a.X.at(T) - sol_b.X.at(T)
    y_hat_T = sol_a.Y.at(T) - sol_b.Y.at(T)
    x_hat_0 = sol_a.X.at(0) - sol_b.X.at(0)
    y_hat_0 = sol_a.Y.at(0) - sol_b.Y.at(0)
    lhs = pair(T, x_hat_T, y_hat_T) - pair(0, x_hat_0, y_hat_0)
    rhs = 0.0
    for t in range(T):
        rhs += pair(t + 1, sol_a.X.at(t + 1) - sol_b.X.at(t + 1), mf_a[t + 1] - mf_b[t + 1])
        rhs += pair(t, drift_a[t] - drift_b[t], sol_a.Y.at(t) - sol_b.Y.at(t))
        rhs += pair(t, vol_a[t] - vol_b[t], sol_a.Z.at(t) - sol_b.Z.at(t))
    return DualityReport(lhs=lhs, rhs=rhs)
