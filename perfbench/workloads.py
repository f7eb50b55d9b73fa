"""Seeded inputs and operation lists of the three benchmark workloads.

The make-up of each workload (tree shapes, dimensions, commands) is fixed;
the seed draws only the numbers in it (coefficients, terminal values, step
laws), so every seed costs about the same.  ``build(workload, seed, workdir)``
returns the operations in the order a round runs them; each operation's
``run`` is the timed call into fbsdelta and its ``check`` the independent
verification from ``checks``.  fbsdelta is always reached through module
attributes (``fd.solve_bsde``, ``fd.cli.main``) so that the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import fbsdelta as fd
import fbsdelta.cli  # noqa: F401  (binds fd.cli)

import checks as ck
from checks import DriverCoefficients, TreeSpec

WORKLOADS = ("bsde-sweep", "coupled-certify", "cli-scenarios")

# (step kind, horizon, equations): Rademacher trees are complete (N = 0); the
# trinomial and the four-point d = 2 trees are not.
BSDE_SWEEP = (("rademacher", 12, 2), ("rademacher", 13, 1), ("trinomial", 8, 1), ("four-point-d2", 5, 2))
# (m, n, horizon) of the solvable linear systems
LINEAR_SYSTEMS = ((3, 3, 12), (2, 1, 11), (1, 3, 10))
ANCHOR = (2, 10)  # (m = n, horizon) of the base-family instance
MONOTONE = (3, 4)  # (m = n, horizon) of the perturbed monotone model
MONOTONE_SAMPLES = 2000
MONOTONE_STRUCTURE = (9, 1)  # seed of the model's fixed couplings
DSL_STRUCTURE = (7, 0)  # the same for the command line's expression-language models
LINEAR_ORACLE = (1, 1, 7)  # 636 unknowns


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    prepare: Callable[[], None] | None = None
    inputs: dict | None = None  # what the operation is given, for perfbench/inputs.py


@dataclass
class Workload:
    """A round's operations, the trees whose caches set-up fills, and the
    operation run once, untimed, at the end of set-up."""

    name: str
    ops: list[Op]
    trees: list = field(default_factory=list)
    warmup: int = 0  # index into ops

    def fill_caches(self) -> None:
        """Fill every tree's node and probability tables (public accessors)."""
        for tree in self.trees:
            for t in range(tree.horizon + 1):
                tree.nodes(t)
                tree.node_probabilities(t)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), seed])


def _round(x, digits: int = 6):
    return np.round(np.asarray(x, dtype=float), digits)


# -- trees -----------------------------------------------------------------------


def _whitened_step(rng, k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """k centred points in R^d with identity covariance under random weights."""
    while True:
        probs = rng.uniform(0.2, 1.0, size=k)
        probs /= probs.sum()
        raw = rng.uniform(-1.0, 1.0, size=(k, d))
        centred = raw - probs @ raw
        cov = np.einsum("k,ki,kj->ij", probs, centred, centred)
        if np.linalg.eigvalsh(cov).min() > 0.05:
            return centred @ np.linalg.inv(np.linalg.cholesky(cov)).T, probs


def _step(rng, kind: str):
    """(scenario step entry, points, probs) for one step kind."""
    if kind == "rademacher":
        return "rademacher", np.array([[-1.0], [1.0]]), np.array([0.5, 0.5])
    if kind == "trinomial":
        p = float(_round(rng.uniform(0.15, 0.35), 3))
        a = math.sqrt(1.0 / (2.0 * p))
        return f"trinomial({p!r})", np.array([[-a], [0.0], [a]]), np.array([p, 1.0 - 2.0 * p, p])
    k, d = {"four-point-d1": (4, 1), "four-point-d2": (4, 2)}[kind]
    points, probs = _whitened_step(rng, k, d)
    return {"points": points.tolist(), "probs": probs.tolist()}, points, probs


def _tree(rng, kind: str, horizon: int):
    entry, points, probs = _step(rng, kind)
    return {"horizon": horizon, "step": entry}, TreeSpec(points=(points,) * horizon, probs=(probs,) * horizon)


def _rademacher_spec(horizon: int) -> TreeSpec:
    return TreeSpec(points=(np.array([[-1.0], [1.0]]),) * horizon, probs=(np.array([0.5, 0.5]),) * horizon)


def _program_tree(spec: TreeSpec):
    steps = [fd.IncrementDistribution(points=p, probs=q) for p, q in zip(spec.points, spec.probs)]
    return fd.ProbabilityTree(steps)


def _slabs(proc, t_lo: int, t_hi: int) -> list[np.ndarray]:
    return [proc.at(t) for t in range(t_lo, t_hi + 1)]


def _solution(sol) -> dict:
    """Solution processes of any solver as lists of slabs."""
    out = {}
    for name in ("X", "Y", "Z", "N"):
        proc = getattr(sol, name, None)
        if proc is not None:
            out[name] = _slabs(proc, proc.t_lo, proc.t_hi)
    return out


# -- backward equations ------------------------------------------------------------


def _driver(rng, n: int) -> DriverCoefficients:
    s = 0.3 / n
    return DriverCoefficients(
        c0=_round(rng.uniform(-0.5, 0.5, n)),
        ct=_round(rng.uniform(-0.05, 0.05, n)),
        a=_round(rng.uniform(-s, s, (n, n))),
        b=_round(rng.uniform(-s, s, (n, n))),
        lin=_round(rng.uniform(-s, s, (n, n))),
    )


def bsde_case(rng, kind: str, horizon: int, n: int) -> dict:
    """A backward-equation scenario with a per-leaf terminal table."""
    tree, spec = _tree(rng, kind, horizon)
    coef = _driver(rng, n)
    eta = _round(rng.uniform(-1.0, 1.0, (spec.count(horizon), n)))
    scenario = {
        "schema_version": 1,
        "kind": "bsde",
        "tree": tree,
        "model": {
            "n": n,
            "driver": coef.expressions(),
            "terminal": dict(zip(spec.paths(horizon), eta.tolist())),
        },
    }
    complete = spec.d == 1 and all(p.shape[0] == 2 for p in spec.points)
    return {"scenario": scenario, "spec": spec, "coef": coef, "eta": eta, "complete": complete}


def _bsde_check(case: dict, sol: dict) -> list[str]:
    return ck.bsde_problems(case["spec"], case["coef"], case["eta"], sol["Y"], sol["Z"], sol["N"], case["complete"])


def _build_bsde_sweep(seed: int, workdir: str) -> Workload:
    rng = _rng("bsde-sweep", seed)
    ops, trees = [], []
    for kind, horizon, n in BSDE_SWEEP:
        case = bsde_case(rng, kind, horizon, n)
        parsed = fd.cli.parse_scenario(case["scenario"])
        tree, (gen, eta) = parsed.tree, parsed.bsde
        trees.append(tree)

        def run(tree=tree, gen=gen, eta=eta):
            sol = fd.solve_bsde(tree, gen, eta)
            return sol, fd.bsde_residuals(tree, gen, eta, sol)

        def check(out, case=case):
            sol, report = out
            problems = _bsde_check(case, _solution(sol))
            if not report.max <= ck.EXACT_TOL:
                problems.append(f"reported residual {report.max:.3e}")
            return problems

        ops.append(Op(f"bsde-{kind}-T{horizon}-n{n}", run, check, inputs=case["scenario"]))
    return Workload("bsde-sweep", ops, trees)


# -- coupled linear systems ------------------------------------------------------


def _offsets(rng, spec: TreeSpec, m: int, n: int) -> dict:
    T = spec.horizon
    return {
        "D": [rng.uniform(-1.0, 1.0, (spec.count(t), m, 1)) for t in range(T)],
        "Dbar": [rng.uniform(-1.0, 1.0, (spec.count(t), m, 1)) for t in range(T)],
        "Dhat": [rng.uniform(-1.0, 1.0, (spec.count(t), n, 1)) for t in range(1, T + 1)],
        "g": rng.uniform(-1.0, 1.0, (spec.count(T), n, 1)),
        "x0": rng.uniform(-1.0, 1.0, (m, 1)),
    }


def _full_rank(rng, n: int, m: int) -> np.ndarray:
    while True:
        G = rng.uniform(-1.0, 1.0, (n, m))
        if np.linalg.svd(G, compute_uv=False)[min(m, n) - 1] > 0.3:
            return G


def linear_case(rng, m: int, n: int, horizon: int, per_time: bool = True) -> dict:
    """Coefficients of a coupled linear system, redrawn until every Gamma_t
    has smallest singular value above 0.05 (by the benchmark's own recursion)."""
    spec = _rademacher_spec(horizon)
    T, s = horizon, 0.3 / max(m, n)
    times = T if per_time else 1
    while True:
        mats = {
            key: _round(rng.uniform(-s, s, (times,) + shape))
            for key, shape in (
                ("A", (m, m)), ("Abar", (m, m)), ("B", (m, n)), ("Bbar", (m, n)), ("C", (m, n)), ("Cbar", (m, n)),
                ("Ahat", (n, m)), ("Bhat", (n, n)), ("Chat", (n, n)),
            )
        }
        G = _round(_full_rank(rng, n, m))
        c = {key: np.broadcast_to(value, (T,) + value.shape[1:]) for key, value in mats.items() if key[-3:] != "hat"}
        for key in ("Ahat", "Bhat", "Chat"):
            hat = np.zeros((T + 1,) + mats[key].shape[1:])
            hat[1:] = mats[key]
            c[key] = hat
        c["Chat"][T] = 0.0
        c["G"] = G
        if ck.gamma_sigma_min(c, T).min() > 0.05:
            break
    c.update(_offsets(rng, spec, m, n))
    return {"spec": spec, "c": c, "mats": mats, "m": m, "n": n}


def _program_linear(case: dict, tree):
    c, m, n, T = case["c"], case["m"], case["n"], case["spec"].horizon

    def proc(slabs, lo, hi):
        return fd.AdaptedProcess(tree, lo, hi, tuple(slabs))

    return fd.LinearCoefficients.build(
        tree, m, n, G=c["G"], x0=c["x0"],
        A=c["A"], Abar=c["Abar"], B=c["B"], Bbar=c["Bbar"], C=c["C"], Cbar=c["Cbar"],
        Ahat=c["Ahat"][1:], Bhat=c["Bhat"][1:], Chat=c["Chat"][1:],
        D=proc(c["D"], 0, T - 1), Dbar=proc(c["Dbar"], 0, T - 1), Dhat=proc(c["Dhat"], 1, T), g=proc([c["g"]], T, T),
    )


def _linear_check(case: dict, sol: dict) -> list[str]:
    return ck.linear_problems(case["spec"], case["c"], sol["X"], sol["Y"], sol["Z"], sol["N"])


class MildModel:
    """Monotone base couplings (beta1 = beta2 = 1) plus bounded smooth
    perturbations of strength eps <= 0.12 with unit-norm weights, G within
    0.2 of the identity.  With sigma_min(G) > 0.7 every dissipativity
    inequality holds with margins 0.3 (the perturbation's Lipschitz constant
    over sigma_min(G) stays below 1 - 0.3 in each part), so check_monotone
    must accept the model.  The functions work per node and on whole slabs.

    ``structure`` draws G, the weights and eps, ``data`` the offsets and x0;
    the workload keeps the structure fixed so that every seed needs about the
    same number of continuation stages."""

    def __init__(self, structure, data, m: int):
        while True:
            G = np.eye(m) + 0.2 * structure.uniform(-1.0, 1.0, (m, m))
            if np.linalg.svd(G, compute_uv=False)[-1] > 0.7:
                break

        def unit():
            W = structure.uniform(-1.0, 1.0, (m, m))
            return W / max(1.0, float(np.linalg.norm(W, 2)))

        self.m = m
        self.G, self.Gt = G, G.T
        self.eps = float(structure.uniform(0.06, 0.12))
        self.Wb, self.Ws, self.Wf, self.Wh = (unit(), unit()), (unit(), unit()), unit(), unit()
        self.cb, self.cs, self.cf = (data.uniform(-0.5, 0.5, (m, 1)) for _ in range(3))
        self.x0 = data.uniform(-0.5, 0.5, (m, 1))

    def b(self, t, x, y, z, node):
        return -(self.Gt @ y) + self.eps * np.tanh(self.Wb[0] @ y + self.Wb[1] @ z + self.cb)

    def sigma(self, t, x, y, z, node):
        return -(self.Gt @ z) + self.eps * np.tanh(self.Ws[0] @ y + self.Ws[1] @ z + self.cs)

    def f(self, t, x, y, z, node):
        return self.G @ x + self.eps * np.tanh(self.Wf @ x + self.cf)

    def h(self, x, node):
        return self.G @ x + self.eps * np.tanh(self.Wh @ x)

    def program_model(self):
        return fd.NonlinearModel(
            m=self.m, n=self.m, G=self.G, beta1=1.0, beta2=1.0, x0=self.x0, b=self.b, sigma=self.sigma, f=self.f, h=self.h
        )


def _linear_op(rng, m: int, n: int, horizon: int) -> tuple[Op, object]:
    """check_solvability + solve_linear on a solvable system with per-node offsets."""
    case = linear_case(rng, m, n, horizon)
    tree = _program_tree(case["spec"])
    coeffs = _program_linear(case, tree)

    def run():
        return fd.check_solvability(coeffs, tree), fd.solve_linear(coeffs, tree)

    def check(out):
        report, sol = out
        problems = [] if report.solvable else [f"refused as not solvable at t={report.failure_t}"]
        ours = ck.gamma_sigma_min(case["c"], horizon)
        theirs = np.array([entry.sigma_min for entry in sorted(report.entries)])
        if theirs.shape != ours.shape or not np.allclose(theirs, ours, rtol=1e-9, atol=1e-12):
            problems.append("Gamma_t singular values disagree with the module-doc recursion")
        return problems + _linear_check(case, _solution(sol))

    return Op(f"linear-m{m}-n{n}-T{horizon}", run, check, inputs=case["c"]), tree


def _anchor_op(rng, k: int, horizon: int) -> tuple[Op, object]:
    """One base-family instance: P_t against its closed recursion, plus a solve."""
    spec = _rademacher_spec(horizon)
    G = _full_rank(rng, k, k)
    beta1, beta2 = (float(v) for v in rng.uniform(0.2, 3.0, 2))
    off = _offsets(rng, spec, k, k)
    tree = _program_tree(spec)

    def proc(slabs, lo, hi):
        return fd.AdaptedProcess(tree, lo, hi, tuple(slabs))

    anchor = fd.anchor_coefficients(
        tree, G, beta1, beta2, off["x0"],
        D=proc(off["D"], 0, horizon - 1), Dbar=proc(off["Dbar"], 0, horizon - 1),
        Dhat=proc(off["Dhat"], 1, horizon), g=proc([off["g"]], horizon, horizon),
    )
    zero = np.zeros((horizon + 1, k, k))
    coupling = np.broadcast_to(-beta2 * G.T, (horizon, k, k))
    c = dict(
        off, G=G, A=zero[:horizon], Abar=zero[:horizon], B=coupling, Bbar=zero[:horizon], C=zero[:horizon],
        Cbar=coupling, Ahat=np.concatenate([zero[:1], np.broadcast_to(-beta1 * G, (horizon, k, k))]), Bhat=zero,
        Chat=zero,
    )

    def run():
        mats = fd.riccati_matrices(anchor)
        return mats, fd.solve_linear(anchor, tree, matrices=mats)

    def check(out):
        mats, sol = out
        closed = ck.anchor_P(G, beta1, beta2, horizon)
        worst = max(float(np.abs(mats.P[t] - closed[t]).max()) for t in range(1, horizon + 1))
        scale = max(1.0, max(float(np.abs(p).max()) for p in closed[1:]))
        problems = [] if worst <= ck.EXACT_TOL * scale else [f"P_t off its closed recursion by {worst:.3e}"]
        return problems + ck.linear_problems(spec, c, **_solution(sol))

    return Op(f"anchor-m{k}-T{horizon}", run, check, inputs=dict(c, beta1=beta1, beta2=beta2)), tree


def _monotone_ops(rng, k: int, horizon: int) -> tuple[list[Op], object]:
    """Sampling, both continuation schedules and the Newton oracle on one
    model, as four operations; the last two are checked against the
    default-schedule solution of the same round."""
    mild = MildModel(np.random.default_rng(MONOTONE_STRUCTURE), rng, k)
    model = mild.program_model()
    spec = _rademacher_spec(horizon)
    tree = _program_tree(spec)
    sample_seed = int(rng.integers(2**31))
    inputs = dict(vars(mild), horizon=horizon, samples=MONOTONE_SAMPLES, sample_seed=sample_seed)
    latest = {}

    def run_sampling():
        return fd.check_monotone(model, tree, samples=MONOTONE_SAMPLES, seed=sample_seed, beta1=0.3, beta2=0.3)

    def check_sampling(mono):
        return [] if mono.ok else [f"check_monotone refused a monotone model ({mono.worst_coupling_slack:.3e})"]

    def run_default():
        latest.pop("default", None)
        return fd.solve_continuation(model, tree)

    def check_default(result):
        latest["default"] = _solution(result.solution)
        return ck.nonlinear_problems(spec, mild, **latest["default"])

    def against_default(what: str):
        def check(result):
            if "default" not in latest:
                return ["no default-schedule solution to compare with"]
            ours = _solution(result if what == "oracle" else result.solution)
            return ck.agreement_problems(what, latest["default"], ours)

        return check

    def run_fine():
        return fd.solve_continuation(model, tree, fd.ContinuationConfig(delta_init=0.1))

    def run_oracle():
        return fd.solve_global_newton(fd.build_residual_system(tree, model))

    name = f"monotone-m{k}-T{horizon}"
    ops = [
        Op(f"{name}-sampling", run_sampling, check_sampling, inputs=inputs),
        Op(f"{name}-default", run_default, check_default, inputs=inputs),
        Op(f"{name}-fine", run_fine, against_default("schedule"), inputs=inputs),
        Op(f"{name}-oracle", run_oracle, against_default("oracle"), inputs=inputs),
    ]
    return ops, tree


def _linear_oracle_op(rng, m: int, n: int, horizon: int) -> tuple[Op, object]:
    """solve_linear against the Newton oracle on one mid-sized system."""
    case = linear_case(rng, m, n, horizon)
    tree = _program_tree(case["spec"])
    coeffs = _program_linear(case, tree)

    def run():
        return fd.solve_linear(coeffs, tree), fd.solve_global_newton(fd.build_residual_system(tree, coeffs))

    def check(out):
        ours = _solution(out[0])
        return _linear_check(case, ours) + ck.agreement_problems("oracle", ours, _solution(out[1]))

    return Op(f"linear-oracle-T{horizon}", run, check, inputs=case["c"]), tree


def _build_coupled_certify(seed: int, workdir: str) -> Workload:
    rng = _rng("coupled-certify", seed)
    built = [_linear_op(rng, m, n, horizon) for m, n, horizon in LINEAR_SYSTEMS]
    built.append(_anchor_op(rng, *ANCHOR))
    monotone, monotone_tree = _monotone_ops(rng, *MONOTONE)
    oracle, oracle_tree = _linear_oracle_op(rng, *LINEAR_ORACLE)
    ops = [op for op, _ in built] + monotone + [oracle]
    trees = [tree for _, tree in built] + [monotone_tree, oracle_tree]
    return Workload("coupled-certify", ops, trees, warmup=len(ops) - 1)


# -- command line ----------------------------------------------------------------


def _linear_scenario(case: dict, tables: bool) -> dict:
    """Scenario for a linear case drawn with one matrix per coefficient."""
    spec, c, mats, m, n = case["spec"], case["c"], case["mats"], case["m"], case["n"]
    T = spec.horizon

    def table(slabs, lo):
        return {"table": {str(lo + i): dict(zip(spec.paths(lo + i), s[:, :, 0].tolist())) for i, s in enumerate(slabs)}}

    model = {"m": m, "n": n, "G": c["G"].tolist(), "x0": c["x0"][:, 0].tolist()}
    model.update({key: value[0].tolist() for key, value in mats.items()})
    if tables:
        model.update(D=table(c["D"], 0), Dbar=table(c["Dbar"], 0), Dhat=table(c["Dhat"], 1), g=table([c["g"]], T))
    else:
        # constant offsets: overwrite the drawn slabs so the check sees the same data
        for key, lo, hi, rows in (("D", 0, T - 1, m), ("Dbar", 0, T - 1, m), ("Dhat", 1, T, n)):
            vec = c[key][0][0, :, 0]
            model[key] = vec.tolist()
            c[key] = [np.broadcast_to(vec[:, None], (spec.count(t), rows, 1)) for t in range(lo, hi + 1)]
        model["g"] = c["g"][0, :, 0].tolist()
        c["g"] = np.broadcast_to(c["g"][:1], c["g"].shape)
    return {"schema_version": 1, "kind": "linear", "tree": {"horizon": T, "step": "rademacher"}, "model": model}


class DslModel:
    """One-dimensional monotone model written in the expression language.

    drift -g y + e1 tanh(w1 y + w2 z + c1), noise loading -g z + e2 tanh(v1 y
    + v2 z + c2), driver g x + e3 sin(x + c3), terminal g x + e4 tanh(x), with
    g in [0.8, 1.2], e <= 0.1 and |w|, |v| <= 0.5: every dissipativity
    inequality keeps a margin above 0.25 of the base family's.  As for
    MildModel, ``structure`` draws g, e and w and ``data`` the offsets c and x0."""

    def __init__(self, structure, data):
        self.g = float(_round(structure.uniform(0.8, 1.2)))
        self.e = _round(structure.uniform(0.02, 0.1, 4))
        self.w = _round(structure.uniform(-0.5, 0.5, 4))
        self.c = _round(data.uniform(-0.5, 0.5, 3))
        self.x0 = _round(data.uniform(-0.5, 0.5, (1, 1)))

    def b(self, t, x, y, z, node):
        return -self.g * y + self.e[0] * np.tanh(self.w[0] * y + self.w[1] * z + self.c[0])

    def sigma(self, t, x, y, z, node):
        return -self.g * z + self.e[1] * np.tanh(self.w[2] * y + self.w[3] * z + self.c[1])

    def f(self, t, x, y, z, node):
        return self.g * x + self.e[2] * np.sin(x + self.c[2])

    def h(self, x, node):
        return self.g * x + self.e[3] * np.tanh(x)

    def scenario(self, horizon: int) -> dict:
        g, e, w, c = self.g, self.e.tolist(), self.w.tolist(), self.c.tolist()
        return {
            "schema_version": 1,
            "kind": "nonlinear",
            "tree": {"horizon": horizon, "step": "rademacher"},
            "model": {
                "m": 1, "n": 1, "G": [[g]], "beta1": 1.0, "beta2": 1.0, "x0": self.x0[0].tolist(),
                "drift": [f"{-g!r}*y1 + {e[0]!r}*tanh({w[0]!r}*y1 + {w[1]!r}*z1 + {c[0]!r})"],
                "noise_loading": [f"{-g!r}*z1 + {e[1]!r}*tanh({w[2]!r}*y1 + {w[3]!r}*z1 + {c[1]!r})"],
                "driver": [f"{g!r}*x1 + {e[2]!r}*sin(x1 + {c[2]!r})"],
                "terminal": [f"{g!r}*x1 + {e[3]!r}*tanh(x1)"],
            },
            "solver": {"monotone_beta1": 0.25, "monotone_beta2": 0.25, "samples": 1000},
        }


def _tables_problems(kind: str, case: dict, out_dir: str) -> list[str]:
    """Read the CSV tables back and put them through the workload's checks."""
    spec = case["spec"]
    T = spec.horizon
    try:
        if kind == "bsde":
            n = case["eta"].shape[1]
            sol = {
                "Y": ck.read_process_csv(f"{out_dir}/Y.csv", spec, 0, T, n, 1),
                "Z": ck.read_process_csv(f"{out_dir}/Z.csv", spec, 0, T - 1, n, spec.d),
                "N": ck.read_process_csv(f"{out_dir}/N.csv", spec, 0, T, n, 1),
            }
            return _bsde_check(case, sol)
        m, n = case["m"], case["n"]
        sol = {
            "X": ck.read_process_csv(f"{out_dir}/X.csv", spec, 0, T, m, 1),
            "Y": ck.read_process_csv(f"{out_dir}/Y.csv", spec, 0, T, n, 1),
            "Z": ck.read_process_csv(f"{out_dir}/Z.csv", spec, 0, T - 1, n, 1),
            "N": ck.read_process_csv(f"{out_dir}/N.csv", spec, 0, T, n, 1),
        }
    except (OSError, ValueError) as exc:
        return [f"tables unreadable: {exc}"]
    if kind == "linear":
        def lift(t):
            return -ck.linear_driver(case["c"], t, sol["X"], sol["Y"], sol["Z"], T)

        tol = ck.EXACT_TOL * ck.solution_scale(sol["X"], sol["Y"], sol["Z"])
        return ck.backward_problems(spec, sol["Y"], sol["Z"], lift, tol) + _linear_check(case, sol)
    return ck.nonlinear_problems(spec, case["model"], **sol)


def _build_cli_scenarios(seed: int, workdir: str) -> Workload:
    rng = _rng("cli-scenarios", seed)
    scen_dir = os.path.join(workdir, "scenarios")
    os.makedirs(scen_dir, exist_ok=True)

    bushy = bsde_case(rng, "four-point-d1", 6, 1)
    linear = linear_case(rng, 2, 2, 10, per_time=False)
    nonlinear_model = DslModel(np.random.default_rng(DSL_STRUCTURE), rng)
    nonlinear = {"spec": _rademacher_spec(4), "model": nonlinear_model, "m": 1, "n": 1}
    small_bsde = bsde_case(rng, "rademacher", 4, 1)
    small_linear = linear_case(rng, 1, 1, 4, per_time=False)
    small_model = DslModel(np.random.default_rng(DSL_STRUCTURE), rng)
    small_nonlinear = {"spec": _rademacher_spec(3), "model": small_model, "m": 1, "n": 1}
    files = {
        "bushy": bushy["scenario"],
        "linear": _linear_scenario(linear, tables=True),
        "nonlinear": nonlinear_model.scenario(4),
        "small-bsde": small_bsde["scenario"],
        "small-linear": _linear_scenario(small_linear, tables=False),
        "small-nonlinear": small_model.scenario(3),
    }
    paths = {}
    for name, scenario in files.items():
        paths[name] = os.path.join(scen_dir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(scenario, handle, indent=1)

    def command(name: str, cmd: str, scenario: str, kind: str | None, case: dict | None, verdict=("ok",)):
        out_dir = os.path.join(workdir, "out", name)

        def prepare():
            shutil.rmtree(out_dir, ignore_errors=True)

        def run():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = fd.cli.main([cmd, paths[scenario], "--out", out_dir])
            return code, stdout.getvalue(), stderr.getvalue()

        def check(result):
            code, _, stderr = result
            if code != 0:
                return [f"exit code {code}: {stderr.strip()[:200]}"]
            problems = ck.summary_problems(out_dir, verdict)
            if kind is not None:
                problems += _tables_problems(kind, case, out_dir)
            return problems

        return Op(name, run, check, prepare, inputs={"argv": [cmd, f"scenarios/{scenario}.json", "--out", f"out/{name}"]}), out_dir

    ops = []
    for spec_args in (
        ("validate", "validate", "bushy", None, None),
        ("solve-bsde", "solve-bsde", "bushy", "bsde", bushy),
        ("solve-linear", "solve-linear", "linear", "linear", linear),
        # solve-nonlinear's summary has no top-level verdict; exit 0 already
        # means the continuation met its residual bound
        ("solve-nonlinear", "solve-nonlinear", "nonlinear", "nonlinear", nonlinear, ("monotone", "ok")),
        ("check-monotone", "check-monotone", "nonlinear", None, None),
        ("compare-oracle-bsde", "compare-oracle", "small-bsde", "bsde", small_bsde),
        ("compare-oracle-linear", "compare-oracle", "small-linear", "linear", small_linear),
        ("compare-oracle-nonlinear", "compare-oracle", "small-nonlinear", "nonlinear", small_nonlinear),
    ):
        op, out_dir = command(*spec_args)
        ops.append(op)
        if spec_args[0] == "solve-linear":
            first_out = out_dir

    # the same command again into a second directory: --out must be byte-identical
    rerun, rerun_out = command("solve-linear-rerun", "solve-linear", "linear", None, None)
    plain_check = rerun.check

    def identical(result):
        return plain_check(result) + rerun_problems(first_out, rerun_out)

    rerun.check = identical
    ops.append(rerun)
    return Workload("cli-scenarios", ops, [], warmup=[op.name for op in ops].index("solve-nonlinear"))


def rerun_problems(first_out: str, rerun_out: str) -> list[str]:
    """Both --out directories hold the same files, byte for byte."""
    names = sorted(os.listdir(first_out)) if os.path.isdir(first_out) else []
    if not names or not os.path.isdir(rerun_out) or sorted(os.listdir(rerun_out)) != names:
        return ["rerun wrote a different set of files"]
    _, mismatch, errors = filecmp.cmpfiles(first_out, rerun_out, names, shallow=False)
    return [f"rerun output differs in {mismatch + errors}"] if mismatch or errors else []


_BUILD = {
    "bsde-sweep": _build_bsde_sweep,
    "coupled-certify": _build_coupled_certify,
    "cli-scenarios": _build_cli_scenarios,
}


def build(workload: str, seed: int, workdir: str) -> Workload:
    return _BUILD[workload](seed, workdir)


def out_bytes(workdir: str) -> int:
    """Bytes currently in the workload's --out directories."""
    total = 0
    for root, _, files in os.walk(os.path.join(workdir, "out")):
        total += sum(os.path.getsize(os.path.join(root, name)) for name in files)
    return total
