"""Shared builders for randomized test instances (all seeded, all exact-scale)."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from typing import Callable

import numpy as np

from fbsdelta import (
    AdaptedProcess,
    Generator,
    IncrementDistribution,
    LinearCoefficients,
    NonlinearModel,
    ProbabilityTree,
    anchor_coefficients,
    eval_expr,
    parse_expr,
    riccati_matrices,
)
from fbsdelta.cli import _component_names
from fbsdelta.filtration import sup_abs
from fbsdelta.oracle import FD_STEP


def random_increments(rng: np.random.Generator, k: int, d: int) -> IncrementDistribution:
    """Random valid step: centre and whiten k raw points in R^d (needs k > d)."""
    if k <= d:
        raise ValueError("need more outcomes than dimensions to span R^d")
    while True:
        probs = rng.uniform(0.2, 1.0, size=k)
        probs /= probs.sum()
        raw = rng.uniform(-1.0, 1.0, size=(k, d))
        centred = raw - probs @ raw
        cov = np.einsum("k,ki,kj->ij", probs, centred, centred)
        # reject nearly degenerate draws so the whitening stays well-conditioned
        if np.linalg.eigvalsh(cov).min() > 1e-3:
            break
    points = centred @ np.linalg.inv(np.linalg.cholesky(cov)).T
    return IncrementDistribution(points=points, probs=probs)


def random_tree(
    rng: np.random.Generator,
    horizon: int,
    branch_choices: tuple[int, ...] = (2, 3),
    d: int = 1,
) -> ProbabilityTree:
    steps = []
    for _ in range(horizon):
        k = int(rng.choice(branch_choices))
        if k <= d:
            k = d + 1
        if d == 1 and k == 2 and rng.random() < 0.4:
            steps.append(IncrementDistribution.rademacher())
        elif d == 1 and k == 3 and rng.random() < 0.4:
            steps.append(IncrementDistribution.trinomial(float(rng.uniform(0.1, 0.4))))
        else:
            steps.append(random_increments(rng, k, d))
    return ProbabilityTree(steps)


def rademacher_tree(horizon: int) -> ProbabilityTree:
    return ProbabilityTree([IncrementDistribution.rademacher()] * horizon)


def random_process(
    rng: np.random.Generator,
    tree: ProbabilityTree,
    shape: tuple[int, int],
    t_lo: int,
    t_hi: int,
    scale: float = 1.0,
) -> AdaptedProcess:
    vals = tuple(
        rng.uniform(-scale, scale, size=(tree.node_count(t),) + shape) for t in range(t_lo, t_hi + 1)
    )
    return AdaptedProcess(tree, t_lo, t_hi, vals)


def combine(*terms: tuple[float, AdaptedProcess]) -> AdaptedProcess:
    """The linear combination sum(c * p) of (coefficient, process) pairs,
    slab by slab, on the first process's tree and domain."""
    first = terms[0][1]
    slabs = tuple(sum(c * p.at(t) for c, p in terms) for t in range(first.t_lo, first.t_hi + 1))
    return AdaptedProcess(first.tree, first.t_lo, first.t_hi, slabs)


def permute_step(tree: ProbabilityTree, s: int, perm) -> tuple[ProbabilityTree, Callable]:
    """The tree whose step s lists its outcomes in the order ``perm`` (new
    outcome j is old outcome perm[j]), and ``move(proc)``, which carries a
    process on ``tree`` over to it: each new node takes the row of the node
    it was."""
    steps = list(tree.steps)
    steps[s] = IncrementDistribution(points=steps[s].points[perm], probs=steps[s].probs[perm])
    ranks = []
    for t in range(tree.horizon + 1):
        grid = np.arange(tree.node_count(t)).reshape([tree.branch_count(u) for u in range(t)])
        ranks.append((grid.take(perm, axis=s) if t > s else grid).ravel())
    permuted = ProbabilityTree(steps)

    def move(proc: AdaptedProcess) -> AdaptedProcess:
        slabs = tuple(proc.at(t)[ranks[t]] for t in range(proc.t_lo, proc.t_hi + 1))
        return AdaptedProcess(permuted, proc.t_lo, proc.t_hi, slabs)

    return permuted, move


def _round2(v: float) -> str:
    return f"{v:.2f}"


def random_driver_exprs(rng: np.random.Generator, n: int, with_z: bool) -> list[str]:
    """One expression per output component; 1-Lipschitz-ish smooth terms only."""
    nonlin = ["tanh", "sin"]
    exprs = []
    for _ in range(n):
        terms = []
        for j in range(1, n + 1):
            c = rng.uniform(-0.35, 0.35) / n
            fn = nonlin[int(rng.integers(2))]
            terms.append(f"{_round2(c)}*{fn}(y{j})" if rng.random() < 0.7 else f"{_round2(c)}*y{j}")
            if with_z:
                c2 = rng.uniform(-0.35, 0.35) / n
                fn2 = nonlin[int(rng.integers(2))]
                terms.append(f"{_round2(c2)}*{fn2}(z{j})" if rng.random() < 0.7 else f"{_round2(c2)}*z{j}")
        terms.append(_round2(float(rng.uniform(-0.5, 0.5))))
        if rng.random() < 0.3:
            terms.append(f"{_round2(float(rng.uniform(-0.1, 0.1)))}*t")
        exprs.append(" + ".join(terms).replace("+ -", "- "))
    return exprs


def dsl_generator(
    interior: list[str], terminal: list[str], n: int, d: int, horizon: int
) -> Generator:
    """Generator whose z-variables are bound to the first noise column."""
    interior_ast = [parse_expr(s, m=0, n=n) for s in interior]
    terminal_ast = [parse_expr(s, m=0, n=n) for s in terminal]

    def fn(t, y, z, node):
        exprs = terminal_ast if t == horizon else interior_ast
        z_bind = np.asarray(z)[:, 0]
        return np.array([eval_expr(e, t=float(t), y=y, z=z_bind) for e in exprs])

    return Generator.pointwise(n=n, d=d, fn=fn)


def random_dsl_generator(
    rng: np.random.Generator, n: int, d: int, horizon: int
) -> tuple[Generator, list[str], list[str]]:
    interior = random_driver_exprs(rng, n, with_z=True)
    terminal = random_driver_exprs(rng, n, with_z=False)
    return dsl_generator(interior, terminal, n, d, horizon), interior, terminal


def random_terminal(
    rng: np.random.Generator, tree: ProbabilityTree, n: int, scale: float = 1.0
) -> AdaptedProcess:
    horizon = tree.horizon
    vals = rng.uniform(-scale, scale, size=(tree.node_count(horizon), n, 1))
    return AdaptedProcess(tree, horizon, horizon, (vals,))


def random_offsets(
    rng: np.random.Generator, tree: ProbabilityTree, m: int, n: int, scale: float = 1.0
) -> dict:
    """Fresh inhomogeneous data bundle for a linear system on this tree."""
    T = tree.horizon
    return {
        "D": random_process(rng, tree, (m, 1), 0, T - 1, scale),
        "Dbar": random_process(rng, tree, (m, 1), 0, T - 1, scale),
        "Dhat": random_process(rng, tree, (n, 1), 1, T, scale),
        "g": random_process(rng, tree, (n, 1), T, T, scale),
        "x0": rng.uniform(-scale, scale, size=(m, 1)),
    }


def random_linear_coefficients(
    rng: np.random.Generator,
    tree: ProbabilityTree,
    m: int,
    n: int,
    scale: float = 0.3,
    margin: float = 1e-3,
    with_offsets: bool = True,
) -> LinearCoefficients:
    """Random coefficient bundle, redrawn until every Gamma_t is comfortably
    invertible (smallest singular value above ``margin``)."""
    T = tree.horizon
    for _ in range(200):
        s = scale / max(m, n)
        chat = rng.uniform(-s, s, size=(T, n, n))
        chat[-1] = 0.0
        while True:
            G = rng.uniform(-1.0, 1.0, size=(n, m))
            if np.linalg.svd(G, compute_uv=False)[min(m, n) - 1] > 0.3:
                break
        offsets = random_offsets(rng, tree, m, n) if with_offsets else {}
        coeffs = LinearCoefficients.build(
            tree,
            m,
            n,
            G=G,
            x0=offsets.pop("x0", np.zeros((m, 1))),
            A=rng.uniform(-s, s, size=(T, m, m)),
            Abar=rng.uniform(-s, s, size=(T, m, m)),
            B=rng.uniform(-s, s, size=(T, m, n)),
            Bbar=rng.uniform(-s, s, size=(T, m, n)),
            C=rng.uniform(-s, s, size=(T, m, n)),
            Cbar=rng.uniform(-s, s, size=(T, m, n)),
            Ahat=rng.uniform(-s, s, size=(T, n, m)),
            Bhat=rng.uniform(-s, s, size=(T, n, n)),
            Chat=chat,
            **offsets,
        )
        mats = riccati_matrices(coeffs)
        if mats.failure_t is None and mats.sigma_min.min() > margin:
            return coeffs
    raise RuntimeError("could not draw a comfortably solvable instance")


def make_anchor_model(
    tree: ProbabilityTree,
    G,
    beta1: float,
    beta2: float,
    x0,
    b_const=None,
    s_const=None,
    f_const=None,
    g_const=None,
) -> tuple[NonlinearModel, LinearCoefficients]:
    """Nonlinear model whose equations are exactly the linear base family
    plus constant offsets, paired with those coefficients for comparison."""
    G = np.asarray(G, dtype=float)
    n, m = G.shape
    Gt = G.T

    def col(v, rows):
        return np.zeros((rows, 1)) if v is None else np.asarray(v, dtype=float).reshape(rows, 1)

    bc, sc = col(b_const, m), col(s_const, m)
    fc, gc = col(f_const, n), col(g_const, n)
    model = NonlinearModel(
        m=m,
        n=n,
        G=G,
        beta1=beta1,
        beta2=beta2,
        x0=x0,
        b=lambda t, x, y, z, node: -beta2 * (Gt @ y) + bc,
        sigma=lambda t, x, y, z, node: -beta2 * (Gt @ z) + sc,
        f=lambda t, x, y, z, node: beta1 * (G @ x) + fc,
        h=lambda x, node: G @ x + gc,
    )
    coeffs = anchor_coefficients(tree, G, beta1, beta2, x0, D=bc, Dbar=sc, Dhat=-fc, g=gc)
    return model, coeffs


def mild_coupled_model(
    m: int = 2,
    seed: int = 5,
    eps: float = 0.1,
    shift: float = 0.0,
    x0_bump: float = 0.0,
) -> NonlinearModel:
    """Coupled square model: the monotone base couplings plus smooth bounded
    perturbations small enough to keep part of the dissipativity margin.

    The driver perturbation depends on x only and the forward perturbations on
    (y, z) only, so every per-time inequality — including the boundary layers,
    where only one margin term is available — holds with margins strictly
    between zero and the declared weights.
    """
    rng = np.random.default_rng(seed)
    n = m
    while True:
        G = np.eye(m) + 0.2 * rng.uniform(-1.0, 1.0, size=(m, m))
        if np.linalg.svd(G, compute_uv=False)[-1] > 0.7:
            break
    Gt = G.T

    def unit(rows, cols):
        W = rng.uniform(-1.0, 1.0, size=(rows, cols))
        return W / max(1.0, float(np.linalg.norm(W, 2)))

    Wb = (unit(m, n), unit(m, n))
    Ws = (unit(m, n), unit(m, n))
    Wf = unit(n, m)
    Wh = unit(n, m)
    cb = rng.uniform(-0.5, 0.5, size=(m, 1))
    cs = rng.uniform(-0.5, 0.5, size=(m, 1))
    cf = rng.uniform(-0.5, 0.5, size=(n, 1))
    x0 = rng.uniform(-0.5, 0.5, size=(m, 1)) + x0_bump
    return NonlinearModel(
        m=m,
        n=n,
        G=G,
        beta1=1.0,
        beta2=1.0,
        x0=x0,
        b=lambda t, x, y, z, node: -(Gt @ y) + eps * np.tanh(Wb[0] @ y + Wb[1] @ z + cb) + shift,
        sigma=lambda t, x, y, z, node: -(Gt @ z) + eps * np.tanh(Ws[0] @ y + Ws[1] @ z + cs),
        f=lambda t, x, y, z, node: G @ x + eps * np.tanh(Wf @ x + cf) + shift,
        h=lambda x, node: G @ x + eps * np.tanh(Wh @ x),
    )


def decoupled_model(seed: int = 9) -> NonlinearModel:
    """Forward part independent of (Y, Z): the backward pair then solves a
    plain backward equation along the forward paths."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.1, 0.3, size=6)
    return NonlinearModel.pointwise(
        m=1,
        n=2,
        G=np.array([[1.0], [0.4]]),
        beta1=1.0,
        beta2=0.0,
        x0=np.array([[0.6]]),
        b=lambda t, x, y, z, node: c[0] * np.tanh(x) + 0.1,
        sigma=lambda t, x, y, z, node: c[1] * np.tanh(0.5 * x) - 0.05,
        f=lambda t, x, y, z, node: np.array(
            [
                [c[2] * math.tanh(y[0, 0]) + c[3] * x[0, 0]],
                [c[4] * math.sin(z[1, 0]) + c[5] * y[1, 0] + 0.1 * t],
            ]
        ),
        h=lambda x, node: np.array([[math.tanh(x[0, 0])], [0.5 * x[0, 0]]]),
    )


def decoupled_slab_model(seed: int = 9) -> NonlinearModel:
    """The functions of :func:`decoupled_model` written on whole slabs."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.1, 0.3, size=6)
    return NonlinearModel(
        m=1,
        n=2,
        G=np.array([[1.0], [0.4]]),
        beta1=1.0,
        beta2=0.0,
        x0=np.array([[0.6]]),
        b=lambda t, x, y, z, nodes: c[0] * np.tanh(x) + 0.1,
        sigma=lambda t, x, y, z, nodes: c[1] * np.tanh(0.5 * x) - 0.05,
        f=lambda t, x, y, z, nodes: np.concatenate(
            [c[2] * np.tanh(y[:, :1]) + c[3] * x, c[4] * np.sin(z[:, 1:]) + c[5] * y[:, 1:] + 0.1 * t], axis=1
        ),
        h=lambda x, nodes: np.concatenate([np.tanh(x), 0.5 * x], axis=1),
    )


def pointwise_twin(model: NonlinearModel) -> NonlinearModel:
    """The same functions called once per node through NonlinearModel.pointwise
    (for models whose functions work on single nodes as well as on slabs)."""
    return NonlinearModel.pointwise(
        model.m, model.n, model.G, model.beta1, model.beta2, model.x0, model.b, model.sigma, model.f, model.h
    )


def counting_model(model: NonlinearModel) -> tuple[NonlinearModel, Counter]:
    """Copy of the model whose b, sigma, f and h count their calls by name."""
    calls: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    return (
        replace(
            model,
            b=counted("b", model.b),
            sigma=counted("sigma", model.sigma),
            f=counted("f", model.f),
            h=counted("h", model.h),
        ),
        calls,
    )


def per_column_jacobian(system, vec, step: float = FD_STEP) -> np.ndarray:
    """Reference forward-difference Jacobian of a residual system: one
    residual evaluation per unknown."""
    vec = np.asarray(vec, dtype=float)
    jac = np.empty((system.size, system.size))
    base = system.residual(vec)
    for j in range(system.size):
        bumped = vec.copy()
        bumped[j] += step
        jac[:, j] = (system.residual(bumped) - base) / step
    return jac


def dense_jacobian(blocks) -> np.ndarray:
    """The dense matrix of an oracle Jacobian's per-level node blocks
    (``JacobianBlocks``), zero outside them.  Rows and unknowns share the
    oracle's level-major order, so the positions of level t's nodes follow
    from the diagonal blocks' shapes alone."""
    shapes = [diagonal.shape[:2] for diagonal in blocks.diagonal]
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    index = [np.arange(end - math.prod(shape), end).reshape(shape) for end, shape in zip(ends, shapes)]
    jac = np.zeros((ends[-1], ends[-1]))
    for t, diagonal in enumerate(blocks.diagonal):
        jac[index[t][:, :, None], index[t][:, None, :]] = diagonal
        if t:
            parent = np.arange(len(index[t])) // (len(index[t]) // len(index[t - 1]))
            jac[index[t][:, :, None], index[t - 1][parent][:, None, :]] = blocks.parent[t]
            jac[index[t - 1][:, :, None], index[t].reshape(len(index[t - 1]), 1, -1)] = blocks.child[t]
    return jac


def packed(tree: ProbabilityTree, X: AdaptedProcess | None, Y: AdaptedProcess, Z: AdaptedProcess) -> np.ndarray:
    """A solution's X_1..X_T (None when m = 0), Y_0..Y_T and Z_0..Z_{T-1}
    stacked in the oracle's order: level by level, each node's X_t, Y_t and
    Z_t side by side."""
    T = tree.horizon
    levels = []
    for t in range(T + 1):
        slabs = ([X.at(t)] if X is not None and t else []) + [Y.at(t)] + ([Z.at(t)] if t < T else [])
        levels.append(np.hstack([slab.reshape(len(slab), -1) for slab in slabs]).ravel())
    return np.concatenate(levels)


def spot_check_terminal_independence(
    tree: ProbabilityTree, gen: Generator, samples: int = 32, seed: int = 0, box: float = 5.0
) -> float:
    """Max observed |fn(T,y,z) - fn(T,y,z')| over random pairs; 0 means clean."""
    rng = np.random.default_rng(seed)
    horizon = tree.horizon
    leaves = tree.nodes(horizon)
    worst = 0.0
    for _ in range(samples):
        node = leaves[int(rng.integers(len(leaves)))]
        y = rng.uniform(-box, box, size=gen.n)
        z1 = rng.uniform(-box, box, size=(gen.n, gen.d))
        z2 = rng.uniform(-box, box, size=(gen.n, gen.d))
        rows = gen.fn(horizon, np.stack([y, y]), np.stack([z1, z2]), (node, node))
        f1, f2 = np.asarray(rows, dtype=float)
        worst = max(worst, sup_abs(f1 - f2))
    return worst


def reference_process_csv(tree: ProbabilityTree, proc: AdaptedProcess, prefix: str) -> str:
    """The CSV table of a process written one node and one value at a time."""
    rows, cols = proc.shape
    lines = ["time,node," + ",".join(_component_names(prefix, rows, cols))]
    for t in range(proc.t_lo, proc.t_hi + 1):
        slab = proc.at(t)
        for i, node in enumerate(tree.nodes(t)):
            path = ".".join(str(k) for k in node)
            values = ",".join(f"{v:.17g}" for v in slab[i].reshape(-1))
            lines.append(f"{t},{path},{values}")
    return "\n".join(lines) + "\n"


def long_sum(terms: int) -> str:
    """A flat chain of + and - over ``terms`` products c*y1 and c*y2, exact in both evaluators."""
    signs = (" + ", " + ", " - ")
    return "0.0*y1" + "".join(f"{signs[i % 3]}{(i % 9) / 4}*y{1 + i % 2}" for i in range(1, terms))


# (text nested k levels below the top, characters before the innermost operand per level)
NESTINGS = {
    "parentheses": (lambda k: "(" * k + "y1" + ")" * k, 1),
    "signs": (lambda k: "-" * k + "y1", 1),
    "powers": (lambda k: "y1^" * k + "y1", 3),
    "call-arguments": (lambda k: "abs(" * k + "y1" + ")" * k, 4),
}
