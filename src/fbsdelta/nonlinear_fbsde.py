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
nonlinearity at the previous iterate and solving the resulting linear system
exactly, walking alpha from 0 to 1 in adaptive steps.  Each stage makes one
fixed-point attempt against the anchor at its target alpha: plain Picard
while the observed contraction can still reach picard_tol within the
iteration budget, Anderson mixing of depth ``MIXING_DEPTH`` after that.
As in predictor-corrector continuation (Allgower & Georg, 2003), the step
halves when the attempt stalls and doubles after a stepping stone reached
within ``FAST_STAGE`` iterations; a stage below alpha = 1 is a stepping stone,
corrected only to sqrt(picard_tol), and each stage starts from the secant
through the last two accepted ladder points; only the alpha = 1 point is
driven to picard_tol and returned.  Each iterate is one flat vector, as the
linear solve writes it, viewed as slabs where the model reads it; only the
answer becomes adapted processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .bsde import FbsdeSolution, build_solution, driver_terms
from .filtration import ProbabilityTree, per_node
from .linear_fbsde import (
    _offset_slabs,
    _solvable_matrices,
    _solve_linear,
    _unflatten,
    anchor_coefficients,
    require_coupled_tree,
    require_coupling_weights,
    require_finite,
    require_full_rank,
    require_shape,
)
from .linear_fbsde import linear_residual as nonlinear_residual  # one residual report for every slab system

__all__ = [
    "NonlinearModel", "ContinuationConfig", "ContinuationFailedError", "ContinuationResult", "ContinuationTrace",
    "StageRecord", "MonotonicityReport", "DualityReport", "check_monotone", "duality_gap", "nonlinear_residual",
    "solve_continuation",
]

# check_monotone draws every state component uniformly from [-SAMPLE_BOX, SAMPLE_BOX];
# by default it draws MONOTONE_SAMPLES pairs and allows slacks up to MONOTONE_TOL.
SAMPLE_BOX = 5.0
MONOTONE_SAMPLES = 200
MONOTONE_TOL = 1e-9


def _slab(fn, rows: int, what: str, *args) -> np.ndarray:
    """``fn(*args)`` (the last argument is the N nodes) as an (N, rows, 1) slab, zeros
    when ``fn`` is None; refuses another size or a non-finite value, naming ``what``."""
    nodes = args[-1]
    if fn is None:
        return np.zeros((len(nodes), rows, 1))
    arr = np.asarray(fn(*args), dtype=float)
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
    tree nodes the rows belong to (on a whole slab, ``tree.nodes(t)``): a
    read-only sequence of outcome tuples in rank order, where indexing
    decodes one, slicing or a rank array gives another sequence, and nothing
    is stored per node.  They return (N, m, 1), (N, m, 1) and (N, n, 1)
    arrays, or anything that reshapes to them, and must not modify their
    arguments.  ``f`` is evaluated at times 1..T with z frozen to zero at
    t = T.  ``h(x, nodes)`` returns (N, n, 1).  ``None`` means the zero
    function for b/sigma/f and the plain linear map x -> G x for h.  Per-node
    callables are wrapped by :meth:`pointwise`.
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
        G, _, _, x0 = (require_finite(getattr(self, name), name) for name in ("G", "beta1", "beta2", "x0"))
        if G.shape != (self.n, self.m):
            raise ValueError(f"G must have shape ({self.n}, {self.m}), got {G.shape}")
        require_full_rank(G)
        require_coupling_weights(self.beta1, self.beta2)
        if self.beta1 + self.beta2 <= 0:
            raise ValueError("at least one coupling weight must be positive")
        if self.n > self.m and self.beta1 <= 0:
            raise ValueError("beta1 must be positive when n > m")
        if self.m > self.n and self.beta2 <= 0:
            raise ValueError("beta2 must be positive when m > n")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "x0", require_shape(x0, (self.m, 1), "x0"))

    @classmethod
    def pointwise(cls, m: int, n: int, G, beta1: float, beta2: float, x0, b=None, sigma=None, f=None, h=None):
        """Model from per-node callables ``b/sigma/f(t, x, y, z, node)`` with
        (m, 1), (n, 1), (n, 1) column arguments and ``h(x, node)``, each
        called once per row of a slab."""
        fns = ((b, m), (sigma, m), (f, n), (h, n))
        return cls(m, n, G, beta1, beta2, x0, *(None if fn is None else per_node(fn, (rows, 1)) for fn, rows in fns))

    # -- the slab protocol: b, sigma, f and h with zero/linear defaults --

    def drift(self, t, x, y, z, nodes) -> np.ndarray:
        return _slab(self.b, self.m, f"b(t={t})", t, x, y, z, nodes)

    def noise_loading(self, t, x, y, z, nodes) -> np.ndarray:
        return _slab(self.sigma, self.m, f"sigma(t={t})", t, x, y, z, nodes)

    def driver(self, t, x, y, z, nodes) -> np.ndarray:
        return _slab(self.f, self.n, f"f(t={t})", t, x, y, z, nodes)

    def terminal(self, x, nodes) -> np.ndarray:
        return self.G @ x if self.h is None else _slab(self.h, self.n, "h", x, nodes)


@np.errstate(over="ignore", invalid="ignore")  # the linear solve refuses an overflowed offset, by name
def _homotopy_offsets(model: NonlinearModel, tree: ProbabilityTree, frozen: tuple, alpha: float) -> tuple:
    """Offset slabs (laid out as by ``_offset_slabs``) that turn the anchor
    system into the level-``alpha`` equations with the nonlinearity
    evaluated at the (x, y, z) slab lists ``frozen``; the anchor has no
    offsets of its own, so these are alpha times the frozen model's."""
    T = tree.horizon
    G, Gt = model.G, model.G.T
    x, y, z = frozen
    d_vals, dbar_vals = [], []
    for t in range(T):
        nodes = tree.nodes(t)
        d_vals.append(model.drift(t, x[t], y[t], z[t], nodes) + model.beta2 * (Gt @ y[t]))
        dbar_vals.append(model.noise_loading(t, x[t], y[t], z[t], nodes) + model.beta2 * (Gt @ z[t]))
    f = driver_terms(model, tree, x, y, z)
    dhat_vals = [model.beta1 * (G @ x[t + 1]) - slab for t, slab in enumerate(f)]
    g_vals = [model.terminal(x[T], tree.nodes(T)) - G @ x[T]]
    return tuple([alpha * slab for slab in part] for part in (d_vals, dbar_vals, dhat_vals, g_vals))


# -- continuation ------------------------------------------------------------


# Anderson mixing depth: once plain Picard is out of reach, a stage combines up
# to its last MIXING_DEPTH + 1 solutions into the next iterate.
MIXING_DEPTH = 10
# A stepping stone reached within FAST_STAGE iterations doubles the next step.
FAST_STAGE = 3


def _require_count(value, what: str, least: int = 1) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"need an integer {what} >= {least}, got {value!r}")


@dataclass(frozen=True)
class ContinuationConfig:
    """Step control for the interpolation ladder.

    ``delta_init`` is the first attempted alpha step.  Each stage target gets
    one fixed-point attempt of at most ``picard_max_iters`` linear solves:
    plain Picard against the anchor while the observed contraction can still
    reach ``picard_tol`` within that budget, Anderson mixing after that (on
    a stepping stone too, though it is accepted at a looser tolerance).
    When the attempt stalls the step halves, down to ``delta_min``; after a
    stepping stone accepted within ``FAST_STAGE`` iterations it doubles, to
    at most what is left to alpha = 1.  The stage at alpha = 1 is solved to
    ``picard_tol``; a stage below it is a stepping stone, accepted at
    max(picard_tol, sqrt(picard_tol)).  The attempt starts from the anchor
    solution until a stage is accepted, then from the secant through the last
    two accepted ladder points.  The answer must pass the residual check
    against ``validation_tol``.
    """

    delta_init: float = 0.5
    delta_min: float = 1e-3
    picard_tol: float = 1e-11
    picard_max_iters: int = 80
    validation_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.delta_min <= self.delta_init <= 1.0:
            raise ValueError("need 0 < delta_min <= delta_init <= 1")
        if not (0 < self.picard_tol < math.inf and 0 < self.validation_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        _require_count(self.picard_max_iters, "picard_max_iters")


class StageRecord(NamedTuple):
    """The one attempt at one stage target: ``distances`` holds the distance
    between each iterate and its linear solve, plain or mixed."""

    alpha_from: float
    alpha_to: float
    delta: float
    accepted: bool
    distances: tuple[float, ...]

    @property
    def iterations(self) -> int:
        return len(self.distances)

    @property
    def distance(self) -> float:
        return self.distances[-1]


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


def _out_of_reach(distances: list[float], tol: float, budget: int) -> bool:
    """Whether a Picard iteration with these distances so far cannot reach
    ``tol`` within ``budget`` iterations at its last contraction factor q
    (always, when q is not below 1 or is NaN)."""
    if len(distances) < 2:
        return False
    q = distances[-1] / distances[-2]
    if not q < 1.0:
        return True
    return q > 0.0 and len(distances) + math.log(tol / distances[-1]) / math.log(q) > budget


def _flatten(slabs: tuple) -> np.ndarray:
    return np.concatenate([slab.ravel() for part in slabs for slab in part])


def _node_weights(tree: ProbabilityTree, layout: tuple) -> np.ndarray:
    """Each entry's node probability in an iterate laid out as ``layout``; Z
    has no slab at the horizon, so there only X and Y weigh."""
    probs = [tree.node_probabilities(t)[:, None, None] for t in range(tree.horizon + 1)]
    return _flatten(tuple([np.broadcast_to(probs[t], shape) for t, shape in enumerate(part)] for part in layout))


@np.errstate(over="ignore", invalid="ignore")  # the linear solve refuses an overflowed offset, by name
def _secant(alpha_prev: float, u_prev: np.ndarray, alpha: float, u: np.ndarray, target: float) -> np.ndarray:
    """The iterate at ``target`` on the line through the ladder points (alpha_prev, u_prev) and (alpha, u)."""
    return u + (target - alpha) / (alpha - alpha_prev) * (u - u_prev)


def solve_continuation(
    model: NonlinearModel,
    tree: ProbabilityTree,
    config: ContinuationConfig | None = None,
) -> ContinuationResult:
    """Walk the interpolation parameter from the anchor system to the model.

    Stepping stones (targets below 1) stop at max(picard_tol,
    sqrt(picard_tol)), and each stage starts from the secant through the last
    two accepted ladder points (from the anchor solution before that); a
    level's fixed point does not depend on the start, and only the alpha = 1
    point, solved to ``picard_tol``, is returned.

    Raises NotSolvableError if the anchor itself is not solvable and
    ContinuationFailedError if stages keep stalling at the minimum step or the
    final solution fails its residual validation.
    """
    config = config if config is not None else ContinuationConfig()
    require_coupled_tree(tree)
    anchor = anchor_coefficients(tree, model.G, model.beta1, model.beta2, model.x0)
    mats = _solvable_matrices(anchor, tree)

    def stage(u: np.ndarray, alpha: float, tol: float) -> tuple[np.ndarray | None, tuple[float, ...]]:
        """The level-alpha fixed point reached from ``u`` to distance ``tol``
        (None when the attempt stalls) and the distance of every iteration."""
        distances, images, defects = [], [], []  # the history, kept once the stage mixes
        for _ in range(config.picard_max_iters):
            v = _solve_linear(anchor, mats, tree, _homotopy_offsets(model, tree, _unflatten(u, layout), alpha))[0]
            with np.errstate(over="ignore"):  # an overflowed gap is inf, which no tolerance accepts
                distances.append(math.sqrt(float(weights @ (u - v) ** 2)))
            if distances[-1] <= tol:
                return v, tuple(distances)
            # judged against picard_tol on a stepping stone too: its looser tol
            # would keep a slowly contracting stage on plain Picard for longer
            mixing = images or _out_of_reach(distances, config.picard_tol, config.picard_max_iters)
            if mixing and math.isfinite(distances[-1]):  # an overflowed v goes on, to be refused by name
                images = images[-MIXING_DEPTH:] + [v]
                defects = defects[-MIXING_DEPTH:] + [v - u]
                coefs = np.linalg.lstsq(np.diff(defects, axis=0).T, defects[-1], rcond=None)[0]
                v = v - np.diff(images, axis=0).T @ coefs
            u = v
        return None, tuple(distances)

    # a stepping stone (target below 1) only has to be close enough to predict the next one
    stone_tol = max(config.picard_tol, math.sqrt(config.picard_tol))
    current, slabs = _solve_linear(anchor, mats, tree, _offset_slabs(anchor))
    layout = tuple(tuple(slab.shape for slab in part) for part in slabs)
    weights = _node_weights(tree, layout)
    previous = None  # the ladder point (alpha, iterate) accepted before ``current``
    records: list[StageRecord] = []
    alpha, delta = 0.0, config.delta_init

    def trace(final_residual: float) -> ContinuationTrace:
        """The ladder so far: the anchor solve, then one linear solve per iteration."""
        grid = (0.0, *(record.alpha_to for record in records if record.accepted))
        return ContinuationTrace(tuple(records), grid, 1 + sum(record.iterations for record in records), final_residual)

    def failed(message: str) -> ContinuationFailedError:
        return ContinuationFailedError(message, alpha, delta, trace(math.nan))

    while alpha < 1.0:
        if len(records) > 4000:
            raise failed(f"continuation abandoned after {len(records)} stage targets")
        target = 1.0 if alpha + delta > 1.0 - 1e-12 else alpha + delta  # a rounded sum still ends at 1
        start = current if previous is None else _secant(*previous, alpha, current, target)
        reached, distances = stage(start, target, config.picard_tol if target == 1.0 else stone_tol)
        records.append(StageRecord(alpha, target, delta, reached is not None, distances))
        if reached is not None:
            previous, current, alpha = (alpha, current), reached, target
            if alpha < 1.0 and len(distances) <= FAST_STAGE:  # capped: a rejected last stage halves a real step
                delta = min(2.0 * delta, 1.0 - alpha)
            continue
        delta *= 0.5
        if delta < config.delta_min:
            raise failed(
                f"stage from alpha={alpha:.6g} stalled even at the minimum step (distance {distances[-1]:.3e})"
            )

    solution = build_solution(model, tree, *_unflatten(current, layout))
    report = nonlinear_residual(model, tree, solution)
    solution = replace(solution, residual_report=report)
    if report.max > config.validation_tol:
        raise ContinuationFailedError(
            f"ladder reached alpha=1 but the solution residual {report.max:.3e} "
            f"exceeds {config.validation_tol:.1e}",
            1.0,
            delta,
            trace(report.max),
        )
    return ContinuationResult(solution=solution, trace=trace(report.max))


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


@np.errstate(over="ignore", invalid="ignore")  # worst() reads an overflowed NaN slack as inf
def check_monotone(
    model: NonlinearModel,
    tree: ProbabilityTree,
    samples: int = MONOTONE_SAMPLES,
    seed: int = 0,
    tol: float = MONOTONE_TOL,
    beta1: float | None = None,
    beta2: float | None = None,
) -> MonotonicityReport:
    """Sample pairs of states, each component uniform on [-SAMPLE_BOX,
    SAMPLE_BOX], and test the coupling slack at every time layer.

    For each sampled pair and time the combined pairing of the coefficient
    differences against the state differences, plus beta1 |G dx|^2 for the
    driver part and beta2 (|G^T dy|^2 + |G^T dz|^2) for the forward part, must
    be nonpositive; the terminal map must pair nonnegatively with G dx.

    The margins default to the model's declared weights, which demand that the
    model be at least as dissipative as the solver's base family.  Pass smaller
    ``beta1``/``beta2`` (down to zero, plain monotonicity) to test a weaker
    inequality, e.g. for models that perturb the base family and keep only part
    of its margin.  The tree must have one noise dimension, as for the solver,
    at least one pair must be sampled, ``seed`` must be an integer >= 0 and
    ``tol`` finite and >= 0.
    """
    require_coupled_tree(tree)
    _require_count(samples, "samples")
    _require_count(seed, "seed", least=0)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"need a finite tol >= 0, got {tol!r}")
    rng = np.random.default_rng(seed)
    T = tree.horizon
    m, n = model.m, model.n
    beta1 = model.beta1 if beta1 is None else float(beta1)
    beta2 = model.beta2 if beta2 is None else float(beta2)
    if beta1 < 0.0 or beta2 < 0.0:
        raise ValueError("monotonicity margins beta1 and beta2 must be nonnegative")
    G, Gt = model.G, model.G.T
    # Two draws: the pairs of states, then a node at every time 0..T and a
    # leaf for the terminal map (row t of picks, row T + 1 for the leaf).
    counts = np.array([tree.node_count(t) for t in range(T + 1)] + [tree.node_count(T)])
    states = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX, size=(2, samples, m + 2 * n, 1))
    picks = rng.integers(counts[:, None], size=(len(counts), samples))

    def picked(level, row: int):
        # the sampled nodes, once for each state of a pair
        return level[np.tile(picks[row], 2)]

    def gap(values: np.ndarray) -> np.ndarray:
        return values[:samples] - values[samples:]

    # rows 0..samples-1 hold the first state of each pair, the rest the second
    both = states.reshape(2 * samples, m + 2 * n, 1)
    x, y, z = both[:, :m], both[:, m : m + n], both[:, m + n :]
    dx, dy, dz = gap(x), gap(y), gap(z)

    def pairing(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return (left * right).sum(axis=(1, 2))

    def worst(current: float, slack: np.ndarray) -> float:
        # a NaN slack (an overflow in the model or the pairing) fails the check
        top = float(slack.max(initial=-math.inf))
        return max(current, math.inf if math.isnan(top) else top)

    # the state terms and the margins do not depend on t
    g_dx, gt_dy, gt_dz = G @ dx, Gt @ dy, Gt @ dz
    driver_margin, forward_margin = beta1 * pairing(g_dx, g_dx), beta2 * (pairing(gt_dy, gt_dy) + pairing(gt_dz, gt_dz))
    worst_coupling = -math.inf
    for t in range(T + 1):
        nodes = picked(tree.nodes(t), t)
        slack = np.zeros(samples)
        if 1 <= t <= T:
            df = gap(model.driver(t, x, y, z if t < T else np.zeros_like(z), nodes))
            slack += -pairing(Gt @ df, dx) + driver_margin
        if t <= T - 1:
            db = gap(model.drift(t, x, y, z, nodes))
            ds = gap(model.noise_loading(t, x, y, z, nodes))
            slack += pairing(G @ db, dy) + pairing(G @ ds, dz)
            slack += forward_margin
        worst_coupling = worst(worst_coupling, slack)
    dh = gap(model.terminal(x, picked(tree.nodes(T), T + 1)))
    worst_terminal = worst(-math.inf, -pairing(dh, g_dx))
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

    def realized(problem, sol: FbsdeSolution) -> tuple[list, list]:  # (drift, vol) at t and f at t + 1
        x, y, z = sol.X.values, sol.Y.values, sol.Z.values
        args = [(t, x[t], y[t], z[t], tree.nodes(t)) for t in range(T)]
        return [(problem.drift(*a), problem.noise_loading(*a)) for a in args], driver_terms(problem, tree, x, y, z)

    terms_a, f_a = realized(problem_a, sol_a)
    terms_b, f_b = realized(problem_b, sol_b)

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
        (drift_a, vol_a), (drift_b, vol_b) = terms_a[t], terms_b[t]
        rhs -= pair(t + 1, sol_a.X.at(t + 1) - sol_b.X.at(t + 1), f_a[t] - f_b[t])
        rhs += pair(t, drift_a - drift_b, sol_a.Y.at(t) - sol_b.Y.at(t))
        rhs += pair(t, vol_a - vol_b, sol_a.Z.at(t) - sol_b.Z.at(t))
    return DualityReport(lhs=lhs, rhs=rhs)
