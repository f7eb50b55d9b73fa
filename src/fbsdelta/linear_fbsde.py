"""Exact solver for fully coupled linear forward-backward systems (d = 1).

The forward state X (dimension m) and backward pair (Y, Z) (dimension n)
are coupled through time-indexed matrices:

    X_{t+1} - X_t = A_t X_t + B_t Y_t + C_t Z_t + D_t
                    + (Abar_t X_t + Bbar_t Y_t + Cbar_t Z_t + Dbar_t) dW_t,
    Y_{t+1} - Y_t = Ahat_{t+1} X_{t+1} + Bhat_{t+1} Y_{t+1} + Chat_{t+1} Z_{t+1}
                    + Dhat_{t+1} + Z_t dW_t + (N_{t+1} - N_t),
    X_0 = x0,  Y_T = G X_T + g,  Chat_T = 0.

Solvability is decided by a backward matrix recursion: with P_T fixed by the
terminal data, each step forms the 2m-by-2m matrix

    Gamma_t = I - [[B_t P_{t+1},    C_t P_{t+1}],
                   [Bbar_t P_{t+1}, Cbar_t P_{t+1}]]

whose invertibility (smallest singular value above a threshold) at every t is
exactly the condition for a unique solution.  The affine offset process p_t
carries the inhomogeneous data backward.  With q_t = E[p_{t+1}|F_t] and
r_t = E[p_{t+1} dW_t|F_t], the forward step's conditional mean and increment
(u, v) = (E[X_{t+1}|F_t], E[X_{t+1} dW_t|F_t]) are

    (u, v) = Gamma_t^{-1} [I + A_t; Abar_t] X_t + w_t,
    w_t = Gamma_t^{-1} [B_t q_t + C_t r_t + D_t; Bbar_t q_t + Cbar_t r_t + Dbar_t].

Gamma_t^{-1} meets the data once per time step: the matrix recursion keeps
the first factor (P_t is built from it), the offset pass solves for w_t (p_t
reads it), and the forward sweep only applies the two and reads
Y_t = P_{t+1} u + q_t and Z_t = P_{t+1} v + r_t.  Both passes treat a level
as one (N_t, entries) array, so each map is one matrix product per level.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .bsde import FbsdeSolution, NonFiniteSolutionError, backward_defect, build_solution, driver_terms, refuse_non_finite
from .filtration import AdaptedProcess, ProbabilityTree, is_martingale, is_strongly_orthogonal, sup_abs

__all__ = [
    "GammaReport", "LinearCoefficients", "NotSolvableError", "ResidualReport", "RiccatiMatrices", "SolvabilityReport",
    "anchor_coefficients", "check_solvability", "linear_residual", "riccati_matrices", "solve_linear",
]

# Gamma_t with smallest singular value at or below this margin counts as singular.
SINGULAR_TOL = 1e-10
# Rank check threshold for the terminal coupling matrix G.
RANK_TOL = 1e-10
# Most floats a coefficient table may hold, matrices and offsets together
# (128 MiB): the offsets of m = n = 1 on a tree at the node budget take 5 * 2^21.
TABLE_BUDGET = 2**24

# The coefficient table.  Each matrix has (rows, columns) in terms of the
# dimensions m and n and acts on the forward step (t = 0..T-1) or the
# backward step (t = 1..T, stored with an unused slot 0 so that index and
# time coincide).  Each offset is an adapted process with ``rows`` rows on
# the forward, backward or terminal (t = T) domain.
MATRICES = {
    "A": ("m", "m", "forward"),
    "Abar": ("m", "m", "forward"),
    "B": ("m", "n", "forward"),
    "Bbar": ("m", "n", "forward"),
    "C": ("m", "n", "forward"),
    "Cbar": ("m", "n", "forward"),
    "Ahat": ("n", "m", "backward"),
    "Bhat": ("n", "n", "backward"),
    "Chat": ("n", "n", "backward"),
}
OFFSETS = {"D": ("m", "forward"), "Dbar": ("m", "forward"), "Dhat": ("n", "backward"), "g": ("n", "terminal")}


def domain(side: str, horizon: int) -> tuple[int, int]:
    """First and last time of a forward, backward or terminal coefficient."""
    return {"forward": (0, horizon - 1), "backward": (1, horizon), "terminal": (horizon, horizon)}[side]


def _compact_sci(value: float) -> str:
    """One-digit scientific notation with a bare exponent: 0.0 -> '0.0e0'."""
    mantissa, _, exponent = f"{value:.1e}".partition("e")
    return f"{mantissa}e{int(exponent)}"


class NotSolvableError(Exception):
    """The backward matrix recursion hit a singular step at time t."""

    def __init__(self, t: int, sigma_min: float, partial: "RiccatiMatrices | None" = None):
        super().__init__(f"NotSolvable at t={t} (min singular value {_compact_sci(sigma_min)})")
        self.t = t
        self.sigma_min = sigma_min
        self.partial = partial


def require_coupled_tree(tree: ProbabilityTree, coeffs: "LinearCoefficients | None" = None) -> None:
    """Refuse a tree the coupled solvers cannot use: they are written for
    one-dimensional noise, and the coefficients ``coeffs`` (when given) must
    span the tree's horizon with offsets on its node counts."""
    if tree.d != 1:
        raise ValueError("coupled systems require one-dimensional driving noise")
    if coeffs is None:
        return
    if tree.horizon != coeffs.horizon:
        raise ValueError("tree and coefficients disagree on the horizon")
    for name in OFFSETS:
        proc = getattr(coeffs, name)
        for t in range(proc.t_lo, proc.t_hi + 1):
            if proc.tree.node_count(t) != tree.node_count(t):
                raise ValueError(
                    f"tree and coefficients disagree on the node count at t={t}: "
                    f"{tree.node_count(t)} in the tree, {proc.tree.node_count(t)} in {name}"
                )


def require_finite(value, name: str) -> np.ndarray:
    """``value`` as a float array; refuses a non-finite entry by ``name``."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def require_shape(value, shape: tuple[int, int], name: str) -> np.ndarray:
    """``value`` as a float array of ``shape``, from any layout of as many
    entries; refuses any other size by ``name``."""
    arr = np.asarray(value, dtype=float)
    if arr.size != shape[0] * shape[1]:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr.reshape(shape)


def require_full_rank(G: np.ndarray) -> None:
    """Refuse a terminal coupling G of rank below min(m, n)."""
    s = np.linalg.svd(G, compute_uv=False)
    if s[-1] <= RANK_TOL:
        raise ValueError(f"terminal coupling G must have full rank min(m, n); smallest singular value {s[-1]:.1e}")


def require_coupling_weights(beta1: float, beta2: float) -> None:
    """Refuse a negative coupling weight."""
    if beta1 < 0 or beta2 < 0:
        raise ValueError("the coupling weights must be nonnegative")


class GammaReport(NamedTuple):
    t: int
    sigma_min: float
    invertible: bool


def _stored_shape(name: str, T: int, dims: dict[str, int]) -> tuple[int, int, int]:
    """The array shape of the table's matrix ``name``: one slot per time of
    its side, after the unused slot 0 of a backward matrix."""
    rows, cols, side = MATRICES[name]
    return (T + (side == "backward"), dims[rows], dims[cols])


def require_table_budget(tree: ProbabilityTree, m: int, n: int) -> None:
    """Refuse, before any of it exists, a coefficient table of more than
    TABLE_BUDGET floats: the matrices as stored plus the offsets on the nodes."""
    T, dims = tree.horizon, {"m": m, "n": n}
    size = sum(math.prod(_stored_shape(name, T, dims)) for name in MATRICES)
    for rows, side in OFFSETS.values():
        lo, hi = domain(side, T)
        size += dims[rows] * sum(tree.node_count(t) for t in range(lo, hi + 1))
    if size > TABLE_BUDGET:
        raise ValueError(
            f"the coefficient table for m={m}, n={n} would have {size} entries, over the budget of {TABLE_BUDGET}"
        )


def _matrix_per_time(value, name: str, T: int, dims: dict[str, int]) -> np.ndarray:
    """The table's matrix ``name`` as stored: None -> zeros; a single matrix
    -> one at every time of its side (a single Chat on t = 1..T-1 only, the
    terminal z-coupling being zero); a sequence -> one per time.  At a 1x1
    shape a scalar or a 1-D list stands for 1x1 matrices."""
    out = np.zeros(_stored_shape(name, T, dims))
    per_time, shape = out[-T:], out.shape[1:]
    arr = np.zeros(shape) if value is None else np.asarray(value, dtype=float)
    if shape == (1, 1) and arr.ndim <= 1 and arr.size in (1, T):
        arr = arr.reshape((1, 1) if arr.size == 1 else (T, 1, 1))
    if arr.shape == shape:
        per_time[: T - 1 if name == "Chat" else T] = arr
    elif arr.shape == (T,) + shape:
        per_time[:] = arr
    else:
        raise ValueError(f"{name} must be one {shape} matrix or {T} of them, got shape {arr.shape}")
    return out


def _as_process(tree: ProbabilityTree, value, name: str, shape: tuple[int, int], t_lo: int, t_hi: int) -> AdaptedProcess:
    """None -> zeros; an adapted process as it is (LinearCoefficients checks
    its shape and domain); anything else -> that constant."""
    if value is None:
        return AdaptedProcess.zeros(tree, shape, t_lo, t_hi)
    if isinstance(value, AdaptedProcess):
        return value
    return AdaptedProcess.constant(tree, require_shape(value, shape, name), t_lo, t_hi)


@dataclass(frozen=True)
class LinearCoefficients:
    """Time-indexed coefficient bundle for one linear forward-backward system.

    The fields are the coefficient table's: each matrix in ``MATRICES`` is
    stored per time of its side (forward arrays have length T, backward
    ones length T + 1 with slot 0 unused), each offset in ``OFFSETS`` is an
    adapted process on its domain, and G and x0 are deterministic.
    """

    horizon: int
    m: int
    n: int
    A: np.ndarray
    Abar: np.ndarray
    B: np.ndarray
    Bbar: np.ndarray
    C: np.ndarray
    Cbar: np.ndarray
    Ahat: np.ndarray
    Bhat: np.ndarray
    Chat: np.ndarray
    G: np.ndarray
    x0: np.ndarray
    D: AdaptedProcess = field(repr=False)
    Dbar: AdaptedProcess = field(repr=False)
    Dhat: AdaptedProcess = field(repr=False)
    g: AdaptedProcess = field(repr=False)

    def __post_init__(self):
        T, m, n = self.horizon, self.m, self.n
        if T < 1 or m < 1 or n < 1:
            raise ValueError("horizon and dimensions must be positive")
        dims = {"m": m, "n": n}
        shapes = {name: _stored_shape(name, T, dims) for name in MATRICES}
        object.__setattr__(self, "x0", require_finite(require_shape(self.x0, (m, 1), "x0"), "x0"))
        for name, shape in {**shapes, "G": (n, m)}.items():
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, require_finite(arr, name))
        if np.abs(self.Chat[T]).max() != 0.0:
            raise ValueError("the terminal z-coupling Chat at t=T must be exactly zero")
        require_full_rank(self.G)
        for name, (rows, side) in OFFSETS.items():
            (lo, hi), shape, proc = domain(side, T), (dims[rows], 1), getattr(self, name)
            if not isinstance(proc, AdaptedProcess):
                raise ValueError(f"{name} must be an adapted process on [{lo}, {hi}]")
            if proc.shape != shape or (proc.t_lo, proc.t_hi) != (lo, hi):
                raise ValueError(f"{name} must be {shape}-valued on [{lo}, {hi}]")

    @classmethod
    def build(cls, tree: ProbabilityTree, m: int, n: int, *, G, x0, **coefficients) -> "LinearCoefficients":
        """Assemble coefficients from the names in ``MATRICES`` and
        ``OFFSETS``, broadcasting each matrix as :func:`_matrix_per_time`
        does and zero-filling what is not given.  Offsets accept constants
        or adapted processes on ``tree``; an unknown name is a TypeError.
        """
        unknown = sorted(coefficients.keys() - MATRICES.keys() - OFFSETS.keys())
        if unknown:
            raise TypeError(f"LinearCoefficients.build() got an unexpected keyword argument {unknown[0]!r}")
        require_coupled_tree(tree)
        require_table_budget(tree, m, n)
        T, dims = tree.horizon, {"m": m, "n": n}
        coeffs = cls(
            horizon=T,
            m=m,
            n=n,
            G=G,
            x0=x0,
            **{name: _matrix_per_time(coefficients.get(name), name, T, dims) for name in MATRICES},
            **{
                name: _as_process(tree, coefficients.get(name), name, (dims[rows], 1), *domain(side, T))
                for name, (rows, side) in OFFSETS.items()
            },
        )
        require_coupled_tree(tree, coeffs)
        return coeffs

    # -- the slab protocol shared with NonlinearModel; the matrices do not
    # depend on the node, and the offsets are read at the rows of ``nodes``

    def drift(self, t: int, x, y, z, nodes) -> np.ndarray:
        """A x + B y + C z + D on the time-t slab."""
        return _affine(self.A[t], self.B[t], self.C[t], x, y, z) + nodes.take(self.D.at(t))

    def noise_loading(self, t: int, x, y, z, nodes) -> np.ndarray:
        """Abar x + Bbar y + Cbar z + Dbar on the time-t slab."""
        return _affine(self.Abar[t], self.Bbar[t], self.Cbar[t], x, y, z) + nodes.take(self.Dbar.at(t))

    def driver(self, t: int, x, y, z, nodes) -> np.ndarray:
        """f = -(Ahat x + Bhat y + Chat z + Dhat) on the time-t slab."""
        return -(_affine(self.Ahat[t], self.Bhat[t], self.Chat[t], x, y, z) + nodes.take(self.Dhat.at(t)))

    def terminal(self, x, nodes) -> np.ndarray:
        """The required Y_T = G x + g on the leaf slab."""
        return np.einsum("ij,njk->nik", self.G, x) + nodes.take(self.g.at(self.horizon))


def _affine(A, B, C, x, y, z) -> np.ndarray:
    return np.einsum("ij,njk->nik", np.concatenate([A, B, C], axis=1), np.concatenate([x, y, z], axis=1))


def anchor_coefficients(tree: ProbabilityTree, G, beta1: float, beta2: float, x0, **offsets) -> LinearCoefficients:
    """Canonical monotone linear family used as the continuation base point.

    The forward equation reacts to (Y, Z) through -beta2 * G^T in the drift
    and noise loading, the backward equation to X through -beta1 * G; all
    other couplings vanish, so the backward matrix recursion reduces to
    P_t = beta1*G + P_{t+1} (I + beta2 * G^T P_{t+1})^{-1}.  ``offsets`` are
    any of the ``OFFSETS`` names, as for :meth:`LinearCoefficients.build`.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2:
        raise ValueError("G must be a matrix")
    n, m = G.shape
    require_coupling_weights(beta1, beta2)
    return LinearCoefficients.build(
        tree,
        m,
        n,
        G=G,
        x0=x0,
        B=-beta2 * G.T,
        Cbar=-beta2 * G.T,
        Ahat=-beta1 * G,
        **offsets,
    )


@dataclass(frozen=True)
class RiccatiMatrices:
    """Deterministic part of the backward recursion, reusable across offsets.

    ``P[t]`` is defined for t = 1..T (slot 0 unused).  ``inv_IA[t]`` is
    Gamma_t^{-1} [I + A_t; Abar_t], the (2m, m) map from X_t to the forward
    step's (u, v); with Gamma_t it is kept so repeated solves with fresh
    inhomogeneous data redo no matrix recursion and solve Gamma_t only for
    the offset part.  ``BC[t]`` is the (2m, 2n) block [B_t C_t; Bbar_t
    Cbar_t] that carries the offset process into that part, and Gamma_t =
    I - BC[t] (I_2 (x) P_{t+1}).  ``back[t]`` (t = 1..T-1) is the (n, 2n +
    2m) back map [I - Bhat_t, -Chat_t, (I - Bhat_t) P_{t+1}, -Chat_t
    P_{t+1}] from a node's [q_t, r_t, w_t] to p_t + Dhat_t.  Its last two
    blocks times ``inv_IA[t]`` are P_t + Ahat_t's products in the other
    order, so the two agree only up to rounding, and nothing compares them.
    ``failure_t`` is the largest t whose Gamma_t was (numerically) singular,
    or None; ``inv_IA`` and ``back`` stay zero at and below it.
    """

    P: np.ndarray
    gammas: np.ndarray
    sigma_min: np.ndarray
    gamma_reports: tuple[GammaReport, ...]
    inv_IA: np.ndarray = field(repr=False)
    back: np.ndarray = field(repr=False)
    BC: np.ndarray = field(repr=False)
    failure_t: int | None = None


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below, by name
def riccati_matrices(coeffs: LinearCoefficients, singular_tol: float = SINGULAR_TOL) -> RiccatiMatrices:
    """Run the deterministic backward recursion, recording singularity margins.

    Only the homogeneous coefficient matrices are read, so the outcome is
    invariant under any change of the offset data (D, Dbar, Dhat, g, x0).
    The recursion stops at the first singular step (scanning t = T-1 down to
    0); entries below the failure stay unset.  A P_{t+1} or Gamma_t that
    overflowed raises NonFiniteSolutionError naming it.
    """
    T, m, n = coeffs.horizon, coeffs.m, coeffs.n
    P = np.zeros((T + 1, n, m))
    P[T] = -coeffs.Ahat[T] + (np.eye(n) - coeffs.Bhat[T]) @ coeffs.G
    gammas = np.zeros((T, 2 * m, 2 * m))
    sigma_min = np.full(T, np.nan)
    inv_IA = np.zeros((T, 2 * m, m))
    back = np.zeros((T, n, 2 * n + 2 * m))
    failure_t: int | None = None
    BC = np.block([[coeffs.B, coeffs.C], [coeffs.Bbar, coeffs.Cbar]])
    IA = np.concatenate([np.eye(m) + coeffs.A, coeffs.Abar], axis=1)
    fold = np.concatenate([np.eye(n) - coeffs.Bhat, -coeffs.Chat], axis=2)
    block_p = np.zeros((2 * n, 2 * m))  # I_2 (x) P_{t+1}: P_{t+1} in both diagonal blocks

    for t in range(T - 1, -1, -1):
        p_next = block_p[:n, :m] = block_p[n:, m:] = P[t + 1]
        if not np.isfinite(p_next).all():
            raise NonFiniteSolutionError(f"P_{t + 1} is not finite")
        gamma = np.eye(2 * m) - BC[t] @ block_p
        if not np.isfinite(gamma).all():  # the SVD below cannot converge on it
            raise NonFiniteSolutionError(f"Gamma_{t} is not finite")
        gammas[t] = gamma
        sigma_min[t] = np.linalg.svd(gamma, compute_uv=False)[-1]
        if sigma_min[t] <= singular_tol:
            failure_t = t
            break
        inv_IA[t] = np.linalg.solve(gamma, IA[t])
        if t >= 1:
            fold_y, fold_z = fold[t, :, :n], fold[t, :, n:]
            P[t] = -coeffs.Ahat[t] + fold_y @ (p_next @ inv_IA[t, :m]) + fold_z @ (p_next @ inv_IA[t, m:])
            back[t] = np.hstack([fold[t], fold_y @ p_next, fold_z @ p_next])

    return RiccatiMatrices(
        P=P,
        gammas=gammas,
        sigma_min=sigma_min,
        gamma_reports=tuple(
            GammaReport(t=t, sigma_min=float(sigma_min[t]), invertible=t != failure_t) for t in range(failure_t or 0, T)
        ),
        inv_IA=inv_IA,
        back=back,
        BC=BC,
        failure_t=failure_t,
    )


@dataclass(frozen=True)
class SolvabilityReport:
    solvable: bool
    failure_t: int | None
    entries: tuple[GammaReport, ...]


def check_solvability(coeffs: LinearCoefficients, tree: ProbabilityTree) -> SolvabilityReport:
    """Invertibility margins of every Gamma_t; reads no offset data at all."""
    require_coupled_tree(tree, coeffs)
    mats = riccati_matrices(coeffs)
    return SolvabilityReport(
        solvable=mats.failure_t is None,
        failure_t=mats.failure_t,
        entries=mats.gamma_reports,
    )


def _offset_slabs(coeffs: LinearCoefficients) -> tuple[list, ...]:
    """The offset data as slab lists, in ``OFFSETS`` order: D and Dbar for
    t = 0..T-1 (index t), Dhat for t = 1..T (index t - 1) and g at T
    (index 0)."""
    return tuple(list(getattr(coeffs, name).values) for name in OFFSETS)


def _offset_backward(
    coeffs: LinearCoefficients, tree: ProbabilityTree, mats: RiccatiMatrices, offsets: tuple
) -> list:
    """For t = 0..T-1 the (N_t, 2n + 2m) block [q_t, r_t, w_t] of the forward
    step, for the homogeneous part of ``coeffs`` and the offset slabs
    ``offsets``, with q_t = E[p_{t+1}|F_t], r_t = E[p_{t+1} dW_t|F_t] and the
    offset part w_t = Gamma_t^{-1}[B_t q_t + C_t r_t + D_t; Bbar_t q_t +
    Cbar_t r_t + Dbar_t]: one Gamma_t solve per time step.  The offset
    process p_t is that block times the back map ``mats.back[t]``, less
    Dhat_t: one product per level, and only p_{t+1} is kept."""
    T, n = coeffs.horizon, coeffs.n
    D, Dbar, Dhat, (g,) = offsets
    blocks: list[np.ndarray] = [np.empty(0)] * T
    p = (g[:, :, 0] @ (np.eye(n) - coeffs.Bhat[T]).T)[:, :, None] - Dhat[T - 1]
    for t in range(T - 1, -1, -1):
        # [q_t, r_t] = E[p_{t+1} [1, dW_t] | F_t], one einsum of each node's K children with
        # [probs; probs * points]: bit for bit the tree's two kernels, as a matmul is not for K > 2
        step = tree.steps[t]
        weights = np.array([step.probs, step.probs * step.points[:, 0]])
        qr = np.einsum("jk,nkr->njr", weights, p.reshape(-1, len(weights[0]), n)).reshape(-1, 2 * n)
        rhs = qr @ mats.BC[t].T + np.concatenate([D[t], Dbar[t]], axis=1)[:, :, 0]
        blocks[t] = np.concatenate([qr, np.linalg.solve(mats.gammas[t], rhs.T).T], axis=1)
        if t:
            p = (blocks[t] @ mats.back[t].T)[:, :, None] - Dhat[t - 1]
    return blocks


def _solvable_matrices(
    coeffs: LinearCoefficients, tree: ProbabilityTree, matrices: RiccatiMatrices | None = None
) -> RiccatiMatrices:
    """The given or freshly computed matrices; raises NotSolvableError on a
    singular step."""
    require_coupled_tree(tree, coeffs)
    mats = matrices if matrices is not None else riccati_matrices(coeffs)
    if mats.failure_t is not None:
        raise NotSolvableError(mats.failure_t, float(mats.sigma_min[mats.failure_t]), mats)
    return mats


def solve_linear(
    coeffs: LinearCoefficients, tree: ProbabilityTree, matrices: RiccatiMatrices | None = None
) -> FbsdeSolution:
    """Solve the coupled linear system exactly, with ``matrices`` if given
    (from :func:`riccati_matrices`, which sets the singularity cutoff);
    raises NotSolvableError if some Gamma_t is singular and
    NonFiniteSolutionError if the sweep or N overflows.  The solution
    carries its residual report."""
    mats = _solvable_matrices(coeffs, tree, matrices)
    sol = build_solution(coeffs, tree, *_solve_linear(coeffs, mats, tree, _offset_slabs(coeffs))[1])
    refuse_non_finite(tree, (("N", t, slab) for t, slab in enumerate(sol.N.values) if t > 0))
    return replace(sol, residual_report=linear_residual(coeffs, tree, sol))


def _unflatten(flat: np.ndarray, layout: tuple) -> tuple:
    """Slab lists viewing the entries of ``flat``, one per shape in ``layout``."""
    bounds = itertools.pairwise(itertools.accumulate((math.prod(s) for part in layout for s in part), initial=0))
    return tuple([flat[start:stop].reshape(shape) for shape, (start, stop) in zip(part, bounds)] for part in layout)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below, by name
def _solve_linear(
    coeffs: LinearCoefficients, mats: RiccatiMatrices, tree: ProbabilityTree, offsets: tuple
) -> tuple[np.ndarray, tuple[list, list, list]]:
    """X, Y and Z for the homogeneous part of ``coeffs``, whose solvable
    recursion ``mats`` holds, and the offset slabs ``offsets`` (laid out as
    by :func:`_offset_slabs`): one flat vector holding the slabs of X (t =
    0..T), Y (t = 0..T) and Z (t = 0..T-1) in that order, and the slab lists
    viewing it.  Raises NonFiniteSolutionError, naming the process, time and
    node, when its own arithmetic overflows."""
    (g,) = offsets[3]
    blocks = _offset_backward(coeffs, tree, mats, offsets)
    T, m, n = coeffs.horizon, coeffs.m, coeffs.n
    counts = [len(block) for block in blocks] + [len(g)]
    layout = tuple([(count, rows, 1) for count in counts[:stop]] for rows, stop in ((m, None), (n, None), (n, T)))
    flat = np.empty(sum(math.prod(shape) for part in layout for shape in part))
    x_slabs, y_slabs, z_slabs = slabs = _unflatten(flat, layout)
    x_slabs[0][...] = coeffs.x0
    x2d = coeffs.x0.T
    for t in range(T):
        uv = x2d @ mats.inv_IA[t].T + blocks[t][:, 2 * n :]
        points = tree.steps[t].points[:, 0]
        x2d = x_slabs[t + 1][:, :, 0]
        np.add(uv[:, None, :m], uv[:, None, m:] * points[None, :, None], out=x2d.reshape(len(uv), -1, m))
        # u_t and v_t of a node as consecutive rows, so one product gives Y_t and Z_t side by side
        yz = (uv.reshape(-1, m) @ mats.P[t + 1].T).reshape(-1, 2 * n)
        np.add(yz[:, :n], blocks[t][:, :n], out=y_slabs[t][:, :, 0])
        np.add(yz[:, n:], blocks[t][:, n : 2 * n], out=z_slabs[t][:, :, 0])
    np.add(x2d @ coeffs.G.T, g[:, :, 0], out=y_slabs[T][:, :, 0])

    def sweep():
        for t in range(T):
            yield from (("X", t + 1, x_slabs[t + 1]), ("Y", t, y_slabs[t]), ("Z", t, z_slabs[t]))
        yield "Y", T, y_slabs[T]

    if not np.isfinite(flat).all():  # one check; the walk names the first non-finite slab
        refuse_non_finite(tree, sweep())
    return flat, slabs


@dataclass(frozen=True)
class ResidualReport:
    """Worst pathwise defect of each defining relation of a coupled system:
    the two equations, the initial and terminal conditions, Y and Z as the
    projections of the one-step aggregate, and N's martingale and
    orthogonality checks."""

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
        return max(vars(self).values())


class EquationDefects(NamedTuple):
    """Defect slabs of the defining relations, index t for t = 0..T-1, and
    the drivers they read, index t - 1 for t = 1..T."""

    forward: list  # (X_{t+1} - X_t) - drift - vol dW_t on the time-(t+1) slab; empty when m = 0
    y_projection: list  # Y_t - E[Y_{t+1} + f | F_t]
    z_projection: list  # Z_t - E[(Y_{t+1} + f) dW_t | F_t]
    terminal: np.ndarray  # Y_T - terminal(X_T)
    f: list  # f(t, X_t, Y_t, Z_t) for t = 1..T, z = 0 at T


# Row-locality, bit for bit: row i of every defect slab reads only row i of
# the slabs (and its children's rows), with arithmetic that does not depend on
# how many rows a slab holds, so the oracle's stacked evaluations equal the
# single ones exactly.  This path (equation_defects, the tree kernels and
# _affine) therefore uses einsum and elementwise ufuncs only: OpenBLAS splits
# a product by its row count, and its last bits follow the split.  The linear
# sweep is never stacked, so it may use BLAS.
def equation_defects(problem, tree: ProbabilityTree, x: list, y: list, z: list) -> EquationDefects:
    """Evaluate every defining relation of the slab system ``problem`` along
    the slab lists x (X_0..X_T), y (Y_0..Y_T) and z (Z_0..Z_{T-1}).

    ``problem`` has ``m`` and ``n`` and answers the slab protocol, the
    model's own four maps on whole slabs: ``drift(t, x, y, z, nodes)`` and
    ``noise_loading(t, x, y, z, nodes)`` (asked for only when m > 0, and
    then with d = 1), ``driver(t, x, y, z, nodes)`` (read through
    :func:`~fbsdelta.bsde.driver_terms`, with z = 0 at t = T) and
    ``terminal(x, nodes)``.  ``nodes`` is ``tree.nodes(t)``, a read-only
    sequence of outcome tuples in rank order that stores none of them.

    The slabs may also be stacks of c copies, the time-t slab holding c whole
    levels one after another (c = len(y[0]), since N_0 = 1): every row's
    children are still K consecutive rows, so one call evaluates the c
    systems, each map once per time on the level's nodes repeated c times.
    """
    T, copies = tree.horizon, len(y[0])
    forward = []
    for t in range(T if problem.m else 0):
        k, nodes = tree.branch_count(t), tree.nodes(t).tile(copies)
        w = np.tile(tree.steps[t].points[:, 0], len(x[t]))[:, None, None]
        drift = problem.drift(t, x[t], y[t], z[t], nodes)
        vol = problem.noise_loading(t, x[t], y[t], z[t], nodes)
        dx = x[t + 1] - np.repeat(x[t], k, axis=0)
        forward.append(dx - np.repeat(drift, k, axis=0) - np.repeat(vol, k, axis=0) * w)
    f = driver_terms(problem, tree, x, y, z)
    aggregates = [y[t + 1] + slab for t, slab in enumerate(f)]
    return EquationDefects(
        forward=forward,
        y_projection=[y[t] - tree.expect_next(aggregates[t], t) for t in range(T)],
        z_projection=[z[t] - tree.expect_next_increment(aggregates[t], t) for t in range(T)],
        terminal=y[T] - problem.terminal(x[T], tree.nodes(T).tile(copies)),
        f=f,
    )


def _worst(slabs) -> float:
    return max(map(sup_abs, slabs), default=0.0)


@np.errstate(over="ignore", invalid="ignore")  # sup_abs reads an overflowed NaN defect as inf
def linear_residual(problem, tree: ProbabilityTree, sol: FbsdeSolution) -> ResidualReport:
    """Evaluate every defining relation of a coupled system pathwise;
    ``problem`` is a slab system with ``x0``, such as LinearCoefficients and
    NonlinearModel (see :func:`equation_defects`)."""
    x, y, z, n = sol.X.values, sol.Y.values, sol.Z.values, sol.N.values
    defects = equation_defects(problem, tree, x, y, z)
    return ResidualReport(
        forward=_worst(defects.forward),
        backward=_worst(backward_defect(tree, t, y, z, n, defects.f[t]) for t in range(tree.horizon)),
        initial=sup_abs(x[0][0] - problem.x0),
        terminal=sup_abs(defects.terminal),
        y_projection=_worst(defects.y_projection),
        z_projection=_worst(defects.z_projection),
        martingale=is_martingale(tree, sol.N).residual,
        orthogonality=is_strongly_orthogonal(tree, sol.N).residual,
    )
