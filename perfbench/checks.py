"""Output checks written from the defining equations, apart from fbsdelta.

Every check works on plain NumPy slabs (one array per time, nodes in the
documented rank order: the children of node r at time t are the ranks
r*K_t .. (r+1)*K_t - 1 at time t+1) and on the model data the input generator
kept.  No function of the package is called here.  Each check returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

# Pathwise residual bound for exact solvers, relative to max(1, solution scale).
EXACT_TOL = 1e-10
# Bound for the continuation solver's residuals (its validation tolerance).
CONTINUATION_TOL = 1e-8
# Agreement between two independent solution routes.
AGREEMENT_TOL = 1e-6
# sup |N| on complete binary d = 1 trees.
COMPLETE_N_TOL = 1e-12


@dataclass(frozen=True)
class TreeSpec:
    """The benchmark's own copy of a tree: per-step outcome points and probabilities."""

    points: tuple[np.ndarray, ...]  # (K_t, d) each
    probs: tuple[np.ndarray, ...]  # (K_t,) each

    @property
    def horizon(self) -> int:
        return len(self.points)

    @property
    def d(self) -> int:
        return self.points[0].shape[1]

    def count(self, t: int) -> int:
        return math.prod(p.shape[0] for p in self.points[:t])

    def branch(self, t: int) -> int:
        return self.points[t].shape[0]

    def paths(self, t: int) -> list[str]:
        """Dot-separated node paths at time t in rank order."""
        return [".".join(map(str, node)) for node in itertools.product(*(range(self.branch(s)) for s in range(t)))]

    def expect(self, nxt: np.ndarray, t: int) -> np.ndarray:
        """E[x_{t+1} | F_t] for a (count(t+1), ...) slab."""
        grouped = nxt.reshape((self.count(t), self.branch(t)) + nxt.shape[1:])
        return np.einsum("k,nk...->n...", self.probs[t], grouped)

    def expect_dw(self, nxt: np.ndarray, t: int) -> np.ndarray:
        """E[x_{t+1} dW_t^T | F_t] for a (count(t+1), r) slab; result (count(t), r, d)."""
        grouped = nxt.reshape(self.count(t), self.branch(t), -1)
        return np.einsum("k,nkr,kd->nrd", self.probs[t], grouped, self.points[t])

    def dw(self, t: int) -> np.ndarray:
        """dW_t at every node of time t+1: (count(t+1), d)."""
        return np.tile(self.points[t], (self.count(t), 1))

    def up(self, slab: np.ndarray, t: int) -> np.ndarray:
        """Copy each time-t node value to its children at t+1."""
        return np.repeat(slab, self.branch(t), axis=0)


def _worst(a) -> float:
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    if not np.isfinite(a).all():
        return math.inf
    return float(np.abs(a).max())


def _bound(problems: list[str], name: str, value: float, tol: float) -> None:
    if not value <= tol:  # also catches NaN
        problems.append(f"{name} {value:.3e} exceeds {tol:.1e}")


def solution_scale(*groups) -> float:
    worst = 1.0
    for slabs in groups:
        for slab in slabs:
            worst = max(worst, _worst(slab))
    return worst


def _finite(problems: list[str], name: str, *groups) -> bool:
    for slabs in groups:
        for slab in slabs:
            if not np.isfinite(np.asarray(slab, dtype=float)).all():
                problems.append(f"{name} holds non-finite values")
                return False
    return True


def martingale_problems(spec: TreeSpec, N: list[np.ndarray], tol: float) -> list[str]:
    """N_0 = 0, E[dN | F_t] = 0 and E[dN dW^T | F_t] = 0 at every node."""
    problems: list[str] = []
    _bound(problems, "N_0", _worst(N[0]), tol)
    mart = orth = 0.0
    for t in range(spec.horizon):
        dn = N[t + 1].reshape(N[t + 1].shape[0], -1) - spec.up(N[t].reshape(N[t].shape[0], -1), t)
        mart = max(mart, _worst(spec.expect(dn, t)))
        orth = max(orth, _worst(spec.expect_dw(dn, t)))
    _bound(problems, "martingale defect of N", mart, tol)
    _bound(problems, "orthogonality defect of N", orth, tol)
    return problems


def backward_problems(spec: TreeSpec, Y, Z, lift, tol: float, N=None) -> list[str]:
    """Projection check of a backward pair.

    With the aggregate A_{t+1} = Y_{t+1} + lift(t+1) (lift is the driver term
    the backward increment subtracts), require Y_t = E[A_{t+1} | F_t] and
    Z_t = E[A_{t+1} dW_t^T | F_t].  When N is given, rebuild
    N_{t+1} = N_t + A_{t+1} - Y_t - Z_t dW_t from N_0 = 0, require it to equal
    N and to be a martingale strongly orthogonal to the noise.
    """
    problems: list[str] = []
    T = spec.horizon
    n = Y[0].shape[1]
    y_gap = z_gap = n_gap = 0.0
    rebuilt = [np.zeros((1, n))]
    for t in range(T):
        agg = Y[t + 1].reshape(-1, n) + lift(t + 1).reshape(-1, n)
        y_t = Y[t].reshape(-1, n)
        z_t = Z[t].reshape(-1, n, spec.d)
        y_gap = max(y_gap, _worst(y_t - spec.expect(agg, t)))
        z_gap = max(z_gap, _worst(z_t - spec.expect_dw(agg, t)))
        zdw = np.einsum("nrd,nd->nr", spec.up(z_t, t), spec.dw(t))
        rebuilt.append(spec.up(rebuilt[t], t) + agg - spec.up(y_t, t) - zdw)
        if N is not None:
            n_gap = max(n_gap, _worst(rebuilt[t + 1] - N[t + 1].reshape(-1, n)))
    _bound(problems, "Y projection defect", y_gap, tol)
    _bound(problems, "Z projection defect", z_gap, tol)
    if N is not None:
        _bound(problems, "rebuilt N differs from N by", n_gap, tol)
        problems += martingale_problems(spec, rebuilt, tol)
    return problems


# -- backward equations with the generated DSL drivers --------------------------


@dataclass(frozen=True)
class DriverCoefficients:
    """f_i(t, y, z) = c0_i + ct_i t + sum_j (a_ij tanh y_j + b_ij sin z_j + l_ij y_j),
    with z_j read from the first noise column."""

    c0: np.ndarray  # (n,)
    ct: np.ndarray  # (n,)
    a: np.ndarray  # (n, n)
    b: np.ndarray
    lin: np.ndarray

    def expressions(self) -> list[str]:
        n = self.c0.shape[0]
        out = []
        for i in range(n):
            terms = [f"{float(self.c0[i])!r}", f"{float(self.ct[i])!r}*t"]
            for j in range(n):
                terms += [
                    f"{float(self.a[i, j])!r}*tanh(y{j + 1})",
                    f"{float(self.b[i, j])!r}*sin(z{j + 1})",
                    f"{float(self.lin[i, j])!r}*y{j + 1}",
                ]
            out.append(" + ".join(terms))
        return out

    def evaluate(self, t: float, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """y, z: (nodes, n) -> (nodes, n)."""
        return self.c0 + self.ct * t + np.tanh(y) @ self.a.T + np.sin(z) @ self.b.T + y @ self.lin.T


def bsde_problems(spec: TreeSpec, coef: DriverCoefficients, eta: np.ndarray, Y, Z, N, complete: bool) -> list[str]:
    """Terminal condition, projections, rebuilt N and (complete trees) sup |N|."""
    problems: list[str] = []
    if not _finite(problems, "solution", Y, Z, N):
        return problems
    T, n = spec.horizon, eta.shape[1]
    tol = EXACT_TOL * solution_scale(Y)

    def lift(t):
        z = Z[t][:, :, 0] if t < T else np.zeros((spec.count(t), n))
        return coef.evaluate(t, Y[t].reshape(-1, n), z)

    _bound(problems, "terminal defect", _worst(Y[T].reshape(-1, n) - eta.reshape(-1, n)), tol)
    problems += backward_problems(spec, Y, Z, lift, tol, N=N)
    if complete:
        _bound(problems, "sup |N| on a complete tree", max(_worst(s) for s in N), COMPLETE_N_TOL)
    return problems


# -- coupled linear systems ------------------------------------------------------


def _mv(mat: np.ndarray, slab: np.ndarray) -> np.ndarray:
    """Apply one matrix at every node: (r, c) x (nodes, c, 1) -> (nodes, r, 1)."""
    return np.einsum("ij,njk->nik", mat, slab)


def linear_driver(c: dict, t: int, X, Y, Z, T: int) -> np.ndarray:
    """Ahat_t X_t + Bhat_t Y_t + Chat_t Z_t + Dhat_t (Z_T taken as 0)."""
    z = Z[t] if t < T else np.zeros_like(Y[t])
    return _mv(c["Ahat"][t], X[t]) + _mv(c["Bhat"][t], Y[t]) + _mv(c["Chat"][t], z) + c["Dhat"][t - 1]


def linear_problems(spec: TreeSpec, c: dict, X, Y, Z, N) -> list[str]:
    """The four defining relations of the linear system, pathwise, plus N.

    ``c`` holds A..Cbar (one matrix per t = 0..T-1), Ahat, Bhat, Chat (index
    = time, slot 0 unused), G, x0 and the offset slabs D, Dbar (t = 0..T-1),
    Dhat (t = 1..T, stored from index 0) and g (the slab at T).
    """
    problems: list[str] = []
    if not _finite(problems, "solution", X, Y, Z, N):
        return problems
    T = spec.horizon
    tol = EXACT_TOL * solution_scale(X, Y, Z)
    fwd = bwd = 0.0
    for t in range(T):
        w = spec.dw(t)[:, :, None]
        drift = _mv(c["A"][t], X[t]) + _mv(c["B"][t], Y[t]) + _mv(c["C"][t], Z[t]) + c["D"][t]
        vol = _mv(c["Abar"][t], X[t]) + _mv(c["Bbar"][t], Y[t]) + _mv(c["Cbar"][t], Z[t]) + c["Dbar"][t]
        fwd = max(fwd, _worst(X[t + 1] - spec.up(X[t] + drift, t) - spec.up(vol, t) * w))
        drv = linear_driver(c, t + 1, X, Y, Z, T)
        dn = N[t + 1] - spec.up(N[t], t)
        bwd = max(bwd, _worst(Y[t + 1] - spec.up(Y[t], t) - drv - spec.up(Z[t], t) * w - dn))
    _bound(problems, "forward relation defect", fwd, tol)
    _bound(problems, "backward relation defect", bwd, tol)
    _bound(problems, "initial condition defect", _worst(X[0][0] - c["x0"]), tol)
    _bound(problems, "terminal condition defect", _worst(Y[T] - _mv(c["G"], X[T]) - c["g"]), tol)
    problems += martingale_problems(spec, N, tol)
    return problems


def gamma_sigma_min(c: dict, T: int) -> np.ndarray:
    """Smallest singular value of every Gamma_t, by the backward matrix recursion
    stated in the linear solver's module documentation."""
    m, n = c["A"][0].shape[0], c["G"].shape[0]
    P = -c["Ahat"][T] + (np.eye(n) - c["Bhat"][T]) @ c["G"]
    sigma = np.zeros(T)
    for t in range(T - 1, -1, -1):
        gamma = np.eye(2 * m) - np.block([[c["B"][t] @ P, c["C"][t] @ P], [c["Bbar"][t] @ P, c["Cbar"][t] @ P]])
        sigma[t] = np.linalg.svd(gamma, compute_uv=False)[-1]
        if sigma[t] <= 1e-12:
            return sigma
        if t >= 1:
            maps = np.linalg.solve(gamma, np.vstack([np.eye(m) + c["A"][t], c["Abar"][t]]))
            P = -c["Ahat"][t] + (np.eye(n) - c["Bhat"][t]) @ P @ maps[:m] - c["Chat"][t] @ P @ maps[m:]
    return sigma


def anchor_P(G: np.ndarray, beta1: float, beta2: float, T: int) -> list[np.ndarray]:
    """Closed form of the base family: P_T = (1 + beta1) G and
    P_t = beta1 G + P_{t+1} (I + beta2 G^T P_{t+1})^{-1} for t = T-1 .. 1."""
    m = G.shape[1]
    P = [None] * (T + 1)
    P[T] = beta1 * G + G
    for t in range(T - 1, 0, -1):
        P[t] = beta1 * G + P[t + 1] @ np.linalg.inv(np.eye(m) + beta2 * G.T @ P[t + 1])
    return P


# -- coupled nonlinear systems ---------------------------------------------------


def nonlinear_problems(spec: TreeSpec, model, X, Y, Z, N, tol: float = CONTINUATION_TOL) -> list[str]:
    """Pathwise defects of X_{t+1} - X_t = b + sigma dW, Y_{t+1} - Y_t =
    -f(t+1, .) + Z_t dW + dN, X_0 = x0, Y_T = h(X_T), plus the projections and
    the martingale property of N.  ``model`` supplies b, sigma, f and h as
    NumPy functions of whole slabs."""
    problems: list[str] = []
    if not _finite(problems, "solution", X, Y, Z, N):
        return problems
    T = spec.horizon
    fwd = bwd = 0.0

    def f(t):
        z = Z[t] if t < T else np.zeros_like(Y[t])
        return model.f(t, X[t], Y[t], z, None)

    for t in range(T):
        w = spec.dw(t)[:, :, None]
        drift = model.b(t, X[t], Y[t], Z[t], None)
        vol = model.sigma(t, X[t], Y[t], Z[t], None)
        fwd = max(fwd, _worst(X[t + 1] - spec.up(X[t] + drift, t) - spec.up(vol, t) * w))
        dn = N[t + 1] - spec.up(N[t], t)
        bwd = max(bwd, _worst(Y[t + 1] - spec.up(Y[t], t) + f(t + 1) - spec.up(Z[t], t) * w - dn))
    _bound(problems, "forward relation defect", fwd, tol)
    _bound(problems, "backward relation defect", bwd, tol)
    _bound(problems, "initial condition defect", _worst(X[0][0] - model.x0), tol)
    _bound(problems, "terminal condition defect", _worst(Y[T] - model.h(X[T], None)), tol)
    problems += backward_problems(spec, Y, Z, f, tol)
    problems += martingale_problems(spec, N, tol)
    return problems


def gap(first: dict, second: dict) -> float:
    """Largest sup-norm difference over the processes both solutions carry."""
    worst = 0.0
    for name in first.keys() & second.keys():
        for a, b in zip(first[name], second[name], strict=True):
            worst = max(worst, _worst(np.asarray(a) - np.asarray(b)))
    return worst


def agreement_problems(what: str, first: dict, second: dict, tol: float = AGREEMENT_TOL) -> list[str]:
    problems: list[str] = []
    _bound(problems, f"{what} gap", gap(first, second), tol)
    return problems


# -- command-line outputs --------------------------------------------------------


def read_process_csv(path, spec: TreeSpec, t_lo: int, t_hi: int, rows: int, cols: int) -> list[np.ndarray]:
    """Slabs of a ``time,node,<components>`` table, checking the node order."""
    with open(path, newline="", encoding="utf-8") as handle:
        table = list(csv.reader(handle))
    body = table[1:]
    slabs = []
    pos = 0
    for t in range(t_lo, t_hi + 1):
        paths = spec.paths(t)
        chunk = body[pos : pos + len(paths)]
        pos += len(paths)
        if [row[1] for row in chunk] != paths or any(row[0] != str(t) for row in chunk):
            raise ValueError(f"{path}: rows for t={t} are missing or out of order")
        slabs.append(np.array([[float(v) for v in row[2:]] for row in chunk]).reshape(len(paths), rows, cols))
    if pos != len(body):
        raise ValueError(f"{path}: {len(body) - pos} unexpected rows")
    return slabs


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def summary_problems(out_dir, verdict: tuple[str, ...] = ("ok",)) -> list[str]:
    """summary.json exists, holds only finite numbers and its verdict entry
    (``ok``, or the nested key path ``verdict``) is true."""
    try:
        with open(f"{out_dir}/summary.json", encoding="utf-8") as handle:
            summary = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    problems = []
    if not _all_finite(summary):
        problems.append("summary.json holds non-finite numbers")
    entry = summary
    for key in verdict:
        entry = entry.get(key) if isinstance(entry, dict) else None
    if entry is not True:
        problems.append(f"summary.json does not say {'.'.join(verdict)}: true")
    return problems
