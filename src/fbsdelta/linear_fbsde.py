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
carries the inhomogeneous data backward; the forward sweep then solves one
factorised 2m system per node and reads Y, Z off the relations
Y_t = P_{t+1} E[X_{t+1}|F_t] + E[p_{t+1}|F_t] and
Z_t = P_{t+1} E[X_{t+1} dW_t|F_t] + E[p_{t+1} dW_t|F_t].
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .bsde import FbsdeSolution, compensator_slabs, refuse_non_finite
from .filtration import AdaptedProcess, ProbabilityTree, is_martingale, is_strongly_orthogonal, sup_abs

# Gamma_t with smallest singular value at or below this margin counts as singular.
SINGULAR_TOL = 1e-10
# The two routes to P_t (expanded vs condensed) must agree to this tolerance.
CONSISTENCY_TOL = 1e-12
# Rank check threshold for the terminal coupling matrix G.
RANK_TOL = 1e-10


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


class GammaReport(NamedTuple):
    t: int
    sigma_min: float
    invertible: bool


def _matrix_per_time(value, times: int, shape: tuple[int, int], name: str) -> np.ndarray:
    """None -> zeros; a single matrix -> repeated; a sequence -> one per time."""
    if value is None:
        return np.zeros((times,) + shape)
    arr = np.asarray(value, dtype=float)
    if arr.shape == shape:
        return np.broadcast_to(arr, (times,) + shape).copy()
    if arr.ndim in (0, 1) and shape == (1, 1):
        arr = arr.reshape(-1)
        if arr.size == 1:
            return np.broadcast_to(arr.reshape(1, 1), (times,) + shape).copy()
        if arr.size == times:
            return arr.reshape(times, 1, 1).copy()
    if arr.shape == (times,) + shape:
        return arr.copy()
    raise ValueError(f"{name} must be one {shape} matrix or {times} of them, got shape {arr.shape}")


def _as_process(
    tree: ProbabilityTree, value, shape: tuple[int, int], t_lo: int, t_hi: int, name: str
) -> AdaptedProcess:
    if value is None:
        return AdaptedProcess.zeros(tree, shape, t_lo, t_hi)
    if isinstance(value, AdaptedProcess):
        if value.shape != shape:
            raise ValueError(f"{name} must be {shape}-valued, got {value.shape}")
        if value.t_lo > t_lo or value.t_hi < t_hi:
            raise ValueError(f"{name} must cover times [{t_lo}, {t_hi}]")
        if (value.t_lo, value.t_hi) != (t_lo, t_hi):
            value = AdaptedProcess(tree, t_lo, t_hi, tuple(value.at(t) for t in range(t_lo, t_hi + 1)))
        return value
    arr = np.asarray(value, dtype=float).reshape(shape)
    return AdaptedProcess.constant(tree, arr, t_lo, t_hi)


@dataclass(frozen=True)
class LinearCoefficients:
    """Time-indexed coefficient bundle for one linear forward-backward system.

    Forward matrices (A, Abar, B, Bbar, C, Cbar) are indexed by t = 0..T-1;
    backward matrices (Ahat, Bhat, Chat) are stored in length-(T+1) arrays
    whose slot 0 is unused so that index and time coincide.  Inhomogeneous
    data (D, Dbar, Dhat, g) are adapted processes; everything else is
    deterministic.
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
        expect = {
            "A": (T, m, m),
            "Abar": (T, m, m),
            "B": (T, m, n),
            "Bbar": (T, m, n),
            "C": (T, m, n),
            "Cbar": (T, m, n),
            "Ahat": (T + 1, n, m),
            "Bhat": (T + 1, n, n),
            "Chat": (T + 1, n, n),
            "G": (n, m),
            "x0": (m, 1),
        }
        for name, shape in expect.items():
            arr = np.asarray(getattr(self, name), dtype=float)
            if name == "x0":
                arr = arr.reshape(m, 1)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        if np.abs(self.Chat[T]).max() != 0.0:
            raise ValueError("the terminal z-coupling Chat at t=T must be exactly zero")
        s = np.linalg.svd(self.G, compute_uv=False)
        if s[min(m, n) - 1] <= RANK_TOL:
            raise ValueError(
                f"terminal coupling G must have full rank min(m, n); smallest singular value {s[-1]:.1e}"
            )
        for name, (lo, hi, shape) in {
            "D": (0, T - 1, (m, 1)),
            "Dbar": (0, T - 1, (m, 1)),
            "Dhat": (1, T, (n, 1)),
            "g": (T, T, (n, 1)),
        }.items():
            proc = getattr(self, name)
            if not isinstance(proc, AdaptedProcess):
                raise ValueError(f"{name} must be an adapted process on [{lo}, {hi}]")
            if proc.shape != shape or (proc.t_lo, proc.t_hi) != (lo, hi):
                raise ValueError(f"{name} must be {shape}-valued on [{lo}, {hi}]")

    @classmethod
    def build(
        cls,
        tree: ProbabilityTree,
        m: int,
        n: int,
        *,
        G,
        x0,
        A=None,
        Abar=None,
        B=None,
        Bbar=None,
        C=None,
        Cbar=None,
        Ahat=None,
        Bhat=None,
        Chat=None,
        D=None,
        Dbar=None,
        Dhat=None,
        g=None,
    ) -> "LinearCoefficients":
        """Assemble coefficients with broadcasting and zero-fill defaults.

        Forward matrices given as a single array apply at every t in 0..T-1;
        backward matrices at every t in 1..T, except that a single Chat is
        applied on 1..T-1 only (the terminal z-coupling is always zero).
        Inhomogeneous terms accept constants or adapted processes.
        """
        if tree.d != 1:
            raise ValueError("linear systems require one-dimensional driving noise")
        T = tree.horizon

        def hat(value, shape, name, keep_terminal=True):
            out = np.zeros((T + 1,) + shape)
            if value is None:
                return out
            arr = np.asarray(value, dtype=float)
            if arr.shape == shape:
                last = T if keep_terminal else T - 1
                out[1 : last + 1] = arr
            elif arr.shape == (T,) + shape:
                out[1:] = arr
            else:
                raise ValueError(f"{name} must be one {shape} matrix or {T} of them (for t=1..T)")
            return out

        return cls(
            horizon=T,
            m=m,
            n=n,
            A=_matrix_per_time(A, T, (m, m), "A"),
            Abar=_matrix_per_time(Abar, T, (m, m), "Abar"),
            B=_matrix_per_time(B, T, (m, n), "B"),
            Bbar=_matrix_per_time(Bbar, T, (m, n), "Bbar"),
            C=_matrix_per_time(C, T, (m, n), "C"),
            Cbar=_matrix_per_time(Cbar, T, (m, n), "Cbar"),
            Ahat=hat(Ahat, (n, m), "Ahat"),
            Bhat=hat(Bhat, (n, n), "Bhat"),
            Chat=hat(Chat, (n, n), "Chat", keep_terminal=False),
            G=G,
            x0=np.asarray(x0, dtype=float).reshape(m, 1),
            D=_as_process(tree, D, (m, 1), 0, T - 1, "D"),
            Dbar=_as_process(tree, Dbar, (m, 1), 0, T - 1, "Dbar"),
            Dhat=_as_process(tree, Dhat, (n, 1), 1, T, "Dhat"),
            g=_as_process(tree, g, (n, 1), T, T, "g"),
        )

    # -- the slab protocol shared with NonlinearModel; the coefficients do
    # not depend on the node, so ``nodes`` is not read

    def forward_terms(self, t: int, x, y, z, nodes) -> tuple[np.ndarray, np.ndarray]:
        """Drift A x + B y + C z + D and noise loading Abar x + Bbar y +
        Cbar z + Dbar on the time-t slab."""
        return (
            _affine(self.A[t], self.B[t], self.C[t], x, y, z) + self.D.at(t),
            _affine(self.Abar[t], self.Bbar[t], self.Cbar[t], x, y, z) + self.Dbar.at(t),
        )

    def minus_driver(self, t: int, x, y, z, nodes) -> np.ndarray:
        """The negated driver Ahat x + Bhat y + Chat z + Dhat on the time-t
        slab; ``z=None`` stands for z = 0 (the value used at t = T)."""
        return self._minus_driver(t, x, y, z, self.Dhat.at(t))

    def terminal_map(self, x, nodes) -> np.ndarray:
        """The required Y_T = G x + g on the leaf slab."""
        return np.einsum("ij,njk->nik", self.G, x) + self.g.at(self.horizon)

    def _minus_driver(self, t: int, x, y, z, dhat: np.ndarray) -> np.ndarray:
        if z is None:
            z = np.zeros((x.shape[0], self.n, 1))
        return _affine(self.Ahat[t], self.Bhat[t], self.Chat[t], x, y, z) + dhat


def _affine(A, B, C, x, y, z) -> np.ndarray:
    return np.einsum("ij,njk->nik", A, x) + np.einsum("ij,njk->nik", B, y) + np.einsum("ij,njk->nik", C, z)


def anchor_coefficients(
    tree: ProbabilityTree,
    G,
    beta1: float,
    beta2: float,
    x0,
    D=None,
    Dbar=None,
    Dhat=None,
    g=None,
) -> LinearCoefficients:
    """Canonical monotone linear family used as the continuation base point.

    The forward equation reacts to (Y, Z) through -beta2 * G^T in the drift
    and noise loading, the backward equation to X through -beta1 * G; all
    other couplings vanish, so the backward matrix recursion reduces to
    P_t = beta1*G + P_{t+1} (I + beta2 * G^T P_{t+1})^{-1}.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2:
        raise ValueError("G must be a matrix")
    n, m = G.shape
    if beta1 < 0 or beta2 < 0:
        raise ValueError("the coupling weights must be nonnegative")
    return LinearCoefficients.build(
        tree,
        m,
        n,
        G=G,
        x0=x0,
        B=-beta2 * G.T,
        Cbar=-beta2 * G.T,
        Ahat=-beta1 * G,
        D=D,
        Dbar=Dbar,
        Dhat=Dhat,
        g=g,
    )


@dataclass(frozen=True)
class RiccatiMatrices:
    """Deterministic part of the backward recursion, reusable across offsets.

    ``P[t]`` is defined for t = 1..T (slot 0 unused).  Per-time factorisation
    products are kept so repeated solves with fresh inhomogeneous data skip
    all matrix work.  ``failure_t`` is the largest t whose Gamma_t was
    (numerically) singular, or None.
    """

    horizon: int
    m: int
    n: int
    P: np.ndarray
    gammas: np.ndarray
    sigma_min: np.ndarray
    gamma_reports: tuple[GammaReport, ...]
    lu: tuple = field(repr=False)
    inv_B: tuple = field(repr=False)
    inv_C: tuple = field(repr=False)
    failure_t: int | None = None


def riccati_matrices(coeffs: LinearCoefficients, singular_tol: float = SINGULAR_TOL) -> RiccatiMatrices:
    """Run the deterministic backward recursion, recording singularity margins.

    Only the homogeneous coefficient matrices are read, so the outcome is
    invariant under any change of the offset data (D, Dbar, Dhat, g, x0).
    The recursion stops at the first singular step (scanning t = T-1 down to
    0); entries below the failure stay unset.
    """
    T, m, n = coeffs.horizon, coeffs.m, coeffs.n
    P = np.zeros((T + 1, n, m))
    P[T] = -coeffs.Ahat[T] + (np.eye(n) - coeffs.Bhat[T]) @ coeffs.G
    gammas = np.zeros((T, 2 * m, 2 * m))
    sigma_min = np.full(T, np.nan)
    lu: list = [None] * T
    inv_B: list = [None] * T
    inv_C: list = [None] * T
    reports: list[GammaReport] = []
    failure_t: int | None = None
    eye_m, eye_n = np.eye(m), np.eye(n)

    for t in range(T - 1, -1, -1):
        p_next = P[t + 1]
        gamma = np.eye(2 * m)
        gamma[:m, :m] -= coeffs.B[t] @ p_next
        gamma[:m, m:] -= coeffs.C[t] @ p_next
        gamma[m:, :m] -= coeffs.Bbar[t] @ p_next
        gamma[m:, m:] -= coeffs.Cbar[t] @ p_next
        gammas[t] = gamma
        sigma = float(np.linalg.svd(gamma, compute_uv=False)[-1])
        sigma_min[t] = sigma
        invertible = sigma > singular_tol
        reports.append(GammaReport(t=t, sigma_min=sigma, invertible=invertible))
        if not invertible:
            failure_t = t
            break
        lu[t] = lu_factor(gamma)
        inv_IA = lu_solve(lu[t], np.vstack([eye_m + coeffs.A[t], coeffs.Abar[t]]))
        inv_B[t] = lu_solve(lu[t], np.vstack([coeffs.B[t], coeffs.Bbar[t]]))
        inv_C[t] = lu_solve(lu[t], np.vstack([coeffs.C[t], coeffs.Cbar[t]]))
        if t >= 1:
            g_map = p_next @ inv_IA[:m]
            h_map = p_next @ inv_IA[m:]
            P[t] = -coeffs.Ahat[t] + (eye_n - coeffs.Bhat[t]) @ g_map - coeffs.Chat[t] @ h_map
            condensed = -coeffs.Ahat[t] + np.hstack(
                [(eye_n - coeffs.Bhat[t]) @ p_next, -coeffs.Chat[t] @ p_next]
            ) @ inv_IA
            gap = float(np.abs(P[t] - condensed).max())
            if gap > CONSISTENCY_TOL * max(1.0, float(np.abs(P[t]).max())):
                raise ArithmeticError(
                    f"backward recursion consistency check failed at t={t}: gap {gap:.3e}"
                )

    return RiccatiMatrices(
        horizon=T,
        m=m,
        n=n,
        P=P,
        gammas=gammas,
        sigma_min=sigma_min,
        gamma_reports=tuple(sorted(reports)),
        lu=tuple(lu),
        inv_B=tuple(inv_B),
        inv_C=tuple(inv_C),
        failure_t=failure_t,
    )


@dataclass(frozen=True)
class SolvabilityReport:
    solvable: bool
    failure_t: int | None
    entries: tuple[GammaReport, ...]


def check_solvability(
    coeffs: LinearCoefficients,
    tree: ProbabilityTree | None = None,
    singular_tol: float = SINGULAR_TOL,
) -> SolvabilityReport:
    """Invertibility margins of every Gamma_t; reads no offset data at all."""
    if tree is not None and tree.horizon != coeffs.horizon:
        raise ValueError("tree and coefficients disagree on the horizon")
    mats = riccati_matrices(coeffs, singular_tol=singular_tol)
    return SolvabilityReport(
        solvable=mats.failure_t is None,
        failure_t=mats.failure_t,
        entries=mats.gamma_reports,
    )


def _offset_slabs(coeffs: LinearCoefficients) -> tuple[list, list, list, list]:
    """The offset data as slab lists: D and Dbar for t = 0..T-1 (index t),
    Dhat for t = 1..T (index t - 1) and g at T (index 0)."""
    return list(coeffs.D.values), list(coeffs.Dbar.values), list(coeffs.Dhat.values), list(coeffs.g.values)


def _offset_backward(
    coeffs: LinearCoefficients, tree: ProbabilityTree, mats: RiccatiMatrices, offsets: tuple
) -> tuple[list, list, list]:
    """Slabs of the offset process p_t for t = 1..T (index 0 unused), for the
    homogeneous part of ``coeffs`` and the offset slabs ``offsets``, with
    E[p_{t+1}|F_t] and E[p_{t+1} dW_t|F_t] for t = 0..T-1."""
    T, m, n = coeffs.horizon, coeffs.m, coeffs.n
    D, Dbar, Dhat, (g,) = offsets
    eye_n = np.eye(n)
    p_slabs: list[np.ndarray] = [np.empty(0)] * (T + 1)
    ep_slabs: list[np.ndarray] = [np.empty(0)] * T
    epdw_slabs: list[np.ndarray] = [np.empty(0)] * T
    p_slabs[T] = np.einsum("ij,njk->nik", eye_n - coeffs.Bhat[T], g) - Dhat[T - 1]
    for t in range(T - 1, -1, -1):
        ep = ep_slabs[t] = tree.expect_next(p_slabs[t + 1], t)
        epdw = epdw_slabs[t] = tree.expect_next_increment(p_slabs[t + 1], t)
        if t == 0:
            break
        p_next = mats.P[t + 1]
        stacked = np.concatenate([D[t], Dbar[t]], axis=1)
        inv_off = lu_solve(mats.lu[t], stacked[:, :, 0].T).T
        top_b = p_next @ mats.inv_B[t][:m]
        top_c = p_next @ mats.inv_C[t][:m]
        bot_b = p_next @ mats.inv_B[t][m:]
        bot_c = p_next @ mats.inv_C[t][m:]
        g_t = (
            np.einsum("ij,njk->nik", eye_n + top_b, ep)
            + np.einsum("ij,njk->nik", top_c, epdw)
            + np.einsum("ij,nj->ni", p_next, inv_off[:, :m])[:, :, None]
        )
        h_t = (
            np.einsum("ij,njk->nik", bot_b, ep)
            + np.einsum("ij,nj->ni", p_next, inv_off[:, m:])[:, :, None]
            + np.einsum("ij,njk->nik", eye_n + bot_c, epdw)
        )
        p_slabs[t] = (
            np.einsum("ij,njk->nik", eye_n - coeffs.Bhat[t], g_t)
            - np.einsum("ij,njk->nik", coeffs.Chat[t], h_t)
            - Dhat[t - 1]
        )
    return p_slabs, ep_slabs, epdw_slabs


def _solvable_matrices(
    coeffs: LinearCoefficients,
    tree: ProbabilityTree,
    matrices: RiccatiMatrices | None = None,
    singular_tol: float = SINGULAR_TOL,
) -> RiccatiMatrices:
    """The given or freshly computed matrices; raises NotSolvableError on a
    singular step."""
    if tree.d != 1:
        raise ValueError("linear systems require one-dimensional driving noise")
    if tree.horizon != coeffs.horizon:
        raise ValueError("tree and coefficients disagree on the horizon")
    mats = matrices if matrices is not None else riccati_matrices(coeffs, singular_tol=singular_tol)
    if mats.failure_t is not None:
        raise NotSolvableError(mats.failure_t, float(mats.sigma_min[mats.failure_t]), mats)
    return mats


def riccati_backward(
    coeffs: LinearCoefficients,
    tree: ProbabilityTree,
    matrices: RiccatiMatrices | None = None,
    singular_tol: float = SINGULAR_TOL,
) -> tuple[RiccatiMatrices, AdaptedProcess]:
    """Full backward pass: the matrices (P_t and the Gamma_t margins) and the
    offset process p_t on t = 1..T; raises NotSolvableError on a singular step."""
    mats = _solvable_matrices(coeffs, tree, matrices, singular_tol)
    p_slabs = _offset_backward(coeffs, tree, mats, _offset_slabs(coeffs))[0]
    return mats, AdaptedProcess(tree, 1, coeffs.horizon, tuple(p_slabs[1:]))


def solve_linear(
    coeffs: LinearCoefficients,
    tree: ProbabilityTree,
    matrices: RiccatiMatrices | None = None,
    singular_tol: float = SINGULAR_TOL,
) -> FbsdeSolution:
    """Solve the coupled linear system exactly; raises NotSolvableError if
    some Gamma_t is singular and NonFiniteSolutionError if the sweep
    overflows.  The solution carries its residual report."""
    mats = _solvable_matrices(coeffs, tree, matrices, singular_tol)
    x, y, z, n = _solve_linear(coeffs, mats, tree, _offset_slabs(coeffs))
    T = coeffs.horizon
    sol = FbsdeSolution(
        X=AdaptedProcess(tree, 0, T, tuple(x)),
        Y=AdaptedProcess(tree, 0, T, tuple(y)),
        Z=AdaptedProcess(tree, 0, T - 1, tuple(z)),
        N=AdaptedProcess(tree, 0, T, tuple(n)),
    )
    return replace(sol, residual_report=linear_residual(coeffs, tree, sol))


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below, by name
def _solve_linear(
    coeffs: LinearCoefficients, mats: RiccatiMatrices, tree: ProbabilityTree, offsets: tuple
) -> tuple[list, list, list, list]:
    """Slabs of X, Y, Z and N for the homogeneous part of ``coeffs``, whose
    solvable recursion ``mats`` holds, and the offset slabs ``offsets``
    (laid out as by :func:`_offset_slabs`).  Raises NonFiniteSolutionError,
    naming the process, time and node, when its own arithmetic overflows."""
    D, Dbar, Dhat, (g,) = offsets
    _, ep_slabs, epdw_slabs = _offset_backward(coeffs, tree, mats, offsets)
    T, m = coeffs.horizon, coeffs.m

    x_slabs: list[np.ndarray] = [coeffs.x0[None, :, :]]
    y_slabs: list[np.ndarray] = [np.empty(0)] * (T + 1)
    z_slabs: list[np.ndarray] = [np.empty(0)] * T
    eye_m = np.eye(m)

    for t in range(T):
        ep, epdw = ep_slabs[t], epdw_slabs[t]
        x_t = x_slabs[t]
        top = (
            np.einsum("ij,njk->nik", eye_m + coeffs.A[t], x_t)
            + np.einsum("ij,njk->nik", coeffs.B[t], ep)
            + np.einsum("ij,njk->nik", coeffs.C[t], epdw)
            + D[t]
        )
        bot = (
            np.einsum("ij,njk->nik", coeffs.Abar[t], x_t)
            + np.einsum("ij,njk->nik", coeffs.Bbar[t], ep)
            + np.einsum("ij,njk->nik", coeffs.Cbar[t], epdw)
            + Dbar[t]
        )
        rhs = np.concatenate([top, bot], axis=1)
        uv = lu_solve(mats.lu[t], rhs[:, :, 0].T, check_finite=False).T
        u, v = uv[:, :m, None], uv[:, m:, None]
        points = tree.steps[t].points[:, 0]
        children = u[:, None, :, :] + v[:, None, :, :] * points[None, :, None, None]
        x_slabs.append(children.reshape(tree.node_count(t + 1), m, 1))
        p_mat = mats.P[t + 1]
        y_slabs[t] = np.einsum("ij,njk->nik", p_mat, u) + ep
        z_slabs[t] = np.einsum("ij,njk->nik", p_mat, v) + epdw
    y_slabs[T] = np.einsum("ij,njk->nik", coeffs.G, x_slabs[T]) + g

    aggregates = [
        y_slabs[t] - coeffs._minus_driver(t, x_slabs[t], y_slabs[t], z_slabs[t] if t < T else None, Dhat[t - 1])
        for t in range(1, T + 1)
    ]
    n_slabs = compensator_slabs(tree, aggregates, y_slabs, z_slabs)

    def sweep():
        for t in range(T):
            yield from (("X", t + 1, x_slabs[t + 1]), ("Y", t, y_slabs[t]), ("Z", t, z_slabs[t]))
        yield "Y", T, y_slabs[T]
        yield from (("N", t, n_slabs[t]) for t in range(1, T + 1))

    # N_T adds up the driver (which reads X), Y and Z dW along each path to a
    # leaf, and Y_T reads X_T, so N_T is finite exactly when every slab is
    if not np.isfinite(n_slabs[T]).all():
        refuse_non_finite(tree, sweep())
    return x_slabs, y_slabs, z_slabs, n_slabs


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


def _realized_terms(problem, tree: ProbabilityTree, sol: FbsdeSolution):
    """Evaluate drift, noise loading and the negated driver along a solution
    path.  Returns (drift[t], vol[t] for t < T, minus_f[t] for t >= 1)."""
    T = tree.horizon
    drift, vol, minus_f = [], [], [None]
    for t in range(T):
        terms = problem.forward_terms(t, sol.X.at(t), sol.Y.at(t), sol.Z.at(t), tree.nodes(t))
        drift.append(terms[0])
        vol.append(terms[1])
    for t in range(1, T + 1):
        z = sol.Z.at(t) if t < T else None
        minus_f.append(problem.minus_driver(t, sol.X.at(t), sol.Y.at(t), z, tree.nodes(t)))
    return drift, vol, minus_f


@np.errstate(over="ignore", invalid="ignore")  # sup_abs reads an overflowed NaN defect as inf
def linear_residual(problem, tree: ProbabilityTree, sol: FbsdeSolution) -> ResidualReport:
    """Evaluate every defining relation of a coupled system pathwise.

    ``problem`` is any slab system: an object with ``x0`` and the methods
    ``forward_terms(t, x, y, z, nodes) -> (drift, vol)``,
    ``minus_driver(t, x, y, z, nodes)`` (``z=None`` at t = T) and
    ``terminal_map(x, nodes)``, such as LinearCoefficients and NonlinearModel.
    """
    T = tree.horizon
    drift, vol, minus_f = _realized_terms(problem, tree, sol)
    fwd = bwd = y_proj = z_proj = 0.0
    for t in range(T):
        k = tree.branch_count(t)
        points = tree.steps[t].points[:, 0]
        w = np.tile(points, tree.node_count(t))[:, None, None]
        x, y, z = sol.X.at(t), sol.Y.at(t), sol.Z.at(t)
        dx = sol.X.at(t + 1) - np.repeat(x, k, axis=0)
        fwd = max(fwd, sup_abs(dx - np.repeat(drift[t], k, axis=0) - np.repeat(vol[t], k, axis=0) * w))

        dy = sol.Y.at(t + 1) - np.repeat(y, k, axis=0)
        dn = sol.N.at(t + 1) - np.repeat(sol.N.at(t), k, axis=0)
        bwd = max(bwd, sup_abs(dy - minus_f[t + 1] - np.repeat(z, k, axis=0) * w - dn))

        lam = sol.Y.at(t + 1) - minus_f[t + 1]
        y_proj = max(y_proj, sup_abs(y - tree.expect_next(lam, t)))
        z_proj = max(z_proj, sup_abs(z - tree.expect_next_increment(lam, t)))

    terminal = sup_abs(sol.Y.at(T) - problem.terminal_map(sol.X.at(T), tree.nodes(T)))
    initial = sup_abs(sol.X.at(0)[0] - problem.x0)
    return ResidualReport(
        forward=fwd,
        backward=bwd,
        initial=initial,
        terminal=terminal,
        y_projection=y_proj,
        z_projection=z_proj,
        martingale=is_martingale(tree, sol.N).residual,
        orthogonality=is_strongly_orthogonal(tree, sol.N).residual,
    )
