"""Scenario-driven command-line frontend for the solvers.

A scenario is a JSON document declaring a tree, a model payload and optional
solver settings.  Each subcommand parses and validates the scenario,
dispatches to the matching solver, prints a summary to stdout and, when
``--out DIR`` is given, writes one CSV table per solution process plus a
machine-readable ``summary.json``.  Reruns with the same scenario and flags
produce byte-identical output.

Exit codes:
    0   success
    2   solver failure: singular backward step, stalled continuation,
        non-convergent reference solve, an oracle comparison above the
        acceptance threshold, or an expression that overflows, divides by
        zero or has no real value
    3   validation failure: bad increment moments, incomplete or
        inconsistent payload, bad settings, or a failed monotonicity check
    4   input problems: unreadable files, malformed JSON, expression syntax
        errors, bad command-line usage
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .bsde import Generator, NonFiniteSolutionError, bsde_residuals, solve_bsde
from .filtration import (
    MOMENT_TOL,
    AdaptedProcess,
    IncrementDistribution,
    ProbabilityTree,
    require_node_budget,
    validate_increments,
)
from .linear_fbsde import (
    MATRICES,
    OFFSETS,
    SINGULAR_TOL,
    LinearCoefficients,
    NotSolvableError,
    domain,
    require_coupled_tree,
    require_table_budget,
    riccati_matrices,
    solve_linear,
)
from .model_dsl import ExprEvalError, ExprSyntaxError, compile_map, eval_expr, parse_expr
from .nonlinear_fbsde import (
    MONOTONE_SAMPLES,
    MONOTONE_TOL,
    ContinuationConfig,
    ContinuationFailedError,
    MonotonicityReport,
    NonlinearModel,
    check_monotone,
    solve_continuation,
)
from .oracle import OracleFailedError, build_residual_system, component_gaps, solve_global_newton

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_VALIDATION = 3
EXIT_INPUT = 4

# The residual bound behind a solution's "ok": solve-bsde's --tol moves it,
# solve-linear's does not (there --tol is the singularity cutoff).
RESIDUAL_BOUND = 1e-10


class ScenarioError(ValueError):
    """The scenario was read but its content is invalid (exit 3)."""


class InputError(ValueError):
    """The input could not be read or parsed at all (exit 4)."""


# -- small parsing utilities ---------------------------------------------------


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ScenarioError(f"{where} has unknown keys: {', '.join(sorted(unknown))}")


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(f"{where} is missing required key {key!r}")
    return mapping[key]


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ScenarioError(f"{where} must be finite")
    return out


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _parse_array(value, where: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{where} is not a numeric array: {exc}") from exc
    # the conversion reads the JSON strings "1.5" and true as numbers and null
    # as NaN; refuse them
    text = [v for v in np.asarray(value, dtype=object).ravel() if isinstance(v, (str, bool, type(None)))]
    if text:
        raise ScenarioError(f"{where} is not a numeric array: {json.dumps(text[0])} must be a number")
    if arr.size == 0:
        raise ScenarioError(f"{where} must not be empty")
    if not np.isfinite(arr).all():
        raise ScenarioError(f"{where} must be finite")
    return arr


def _parse_dsl(text, m: int, n: int, where: str):
    if not isinstance(text, str):
        raise ScenarioError(f"{where} must be a string expression")
    try:
        return parse_expr(text, m, n)
    except ExprSyntaxError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _parse_expr_list(value, count: int, m: int, n: int, where: str) -> list:
    if not isinstance(value, list) or len(value) != count:
        raise ScenarioError(f"{where} must be a list of {count} expressions")
    return [_parse_dsl(text, m, n, f"{where}[{i}]") for i, text in enumerate(value)]


def _slab_function(exprs: list, names: str, t: int | None = None):
    """Compile parsed expressions into one slab function of (t, *arrays,
    nodes), or of (*arrays, nodes) when ``t`` fixes the time, with one array
    per variable letter in ``names``.  Each expression reads the first column
    of every array (a 2-D array is its own first column) and gives one column
    of the result; the map is one program (:func:`compile_map`)."""
    program = compile_map(exprs)

    def fn(*args):
        *arrays, _ = args
        time = t if t is not None else arrays.pop(0)
        return program(time, **{name: np.atleast_3d(a)[:, :, 0] for name, a in zip(names, arrays)})

    return fn


def _build_checked(factory, *args, **kwargs):
    """Turn a library-level ValueError into a scenario validation failure."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


# -- tree parsing ----------------------------------------------------------------


def _parse_step(raw, where: str) -> IncrementDistribution:
    if isinstance(raw, str):
        if raw == "rademacher":
            return IncrementDistribution.rademacher()
        match = re.fullmatch(r"trinomial\(([^)]*)\)", raw)
        if match:
            try:
                p = float(match.group(1))
            except ValueError as exc:
                raise ScenarioError(f"{where}: bad trinomial parameter {match.group(1)!r}") from exc
            return _build_checked(IncrementDistribution.trinomial, p)
        raise ScenarioError(f"{where}: unknown step shorthand {raw!r} (use 'rademacher' or 'trinomial(p)')")
    if isinstance(raw, dict):
        _check_keys(raw, {"points", "probs"}, where)
        points = _parse_array(_require(raw, "points", where), f"{where}.points")
        probs = _parse_array(_require(raw, "probs", where), f"{where}.probs")
        return _build_checked(IncrementDistribution, points=points, probs=probs)
    raise ScenarioError(f"{where} must be a shorthand string or an object with points and probs")


def _parse_tree(value) -> ProbabilityTree:
    if not isinstance(value, dict):
        raise ScenarioError("tree must be an object")
    _check_keys(value, {"horizon", "step", "steps"}, "tree")
    if "steps" in value:
        if "step" in value:
            raise ScenarioError("tree takes either one repeated step or a steps list, not both")
        entries = value["steps"]
        if not isinstance(entries, list) or not entries:
            raise ScenarioError("tree.steps must be a non-empty list")
        steps = [_parse_step(raw, f"tree.steps[{t}]") for t, raw in enumerate(entries)]
        if "horizon" in value and _as_int(value["horizon"], "tree.horizon") != len(steps):
            raise ScenarioError(f"tree.horizon disagrees with the {len(steps)} listed steps")
    else:
        horizon = _as_int(_require(value, "horizon", "tree"), "tree.horizon")
        if horizon < 1:
            raise ScenarioError("tree.horizon must be at least 1")
        step = _parse_step(_require(value, "step", "tree"), "tree.step")
        _build_checked(require_node_budget, {step.branch_count: horizon})
        steps = [step] * horizon
    return _build_checked(ProbabilityTree, steps)


# -- offset (inhomogeneous term) parsing -----------------------------------------


def _node_labels(tree: ProbabilityTree, t: int, labels: list | None = None) -> list[list[str]]:
    """Dot-separated outcome paths of the nodes at times 0..t, one list per
    time in rank order ("" is the root), built level by level in one pass;
    ``labels``, the levels built so far, is extended in place when given."""
    labels = [[""]] if labels is None else labels
    for s in range(len(labels) - 1, t):
        outcomes = [str(k) for k in range(tree.branch_count(s))]
        dotted = ["." + k for k in outcomes]
        labels.append(outcomes if s == 0 else [p + k for p in labels[-1] for k in dotted])
    return labels


def _slab_from_table(paths: list[str], table, rows: int, where: str) -> np.ndarray:
    """The (len(paths), rows, 1) slab of a table mapping each node path to its vector."""
    if not isinstance(table, dict):
        raise ScenarioError(f"{where} must map node paths to component vectors")
    entries = [table[p] for p in paths if p in table]
    if not len(entries) == len(paths) == len(table):  # a path missing, or one too many
        extra = sorted(set(table).difference(paths))
        if extra:
            raise ScenarioError(f"{where} has entries for unknown nodes: {extra}")
        raise ScenarioError(f"{where} is missing nodes: {sorted(set(paths).difference(table))}")
    # All entries at once when each is a flat list of numbers; otherwise,
    # and on any fault, the per-entry loop below parses and names each entry.
    try:
        if set(map(type, itertools.chain.from_iterable(entries))) <= {int, float}:
            slab = np.asarray(entries, dtype=float).reshape(len(paths), rows, 1)
            if np.isfinite(slab).all():
                return slab
    except (TypeError, ValueError, OverflowError):
        pass
    slab = np.empty((len(paths), rows, 1))
    for i, key in enumerate(paths):
        vec = _parse_array(table[key], f"{where}[{key!r}]")
        if vec.size != rows:
            raise ScenarioError(f"{where}[{key!r}] must have {rows} components")
        slab[i] = vec.reshape(rows, 1)
    return slab


def _parse_offset(tree: ProbabilityTree, value, rows: int, t_lo: int, t_hi: int, where: str, labels: list):
    """Constant vector, t-only expressions, or a per-time per-node table,
    whose node paths extend ``labels`` (see :func:`_node_labels`)."""
    if value is None:
        return None
    if isinstance(value, dict):
        _check_keys(value, {"expr", "table"}, where)
        if ("expr" in value) == ("table" in value):
            raise ScenarioError(f"{where} needs exactly one of 'expr' or 'table'")
        if "expr" in value:
            exprs = _parse_expr_list(value["expr"], rows, 0, 0, f"{where}.expr")
            slabs = []
            for t in range(t_lo, t_hi + 1):
                try:
                    vec = np.array([[eval_expr(e, t=t)] for e in exprs])
                except ExprEvalError as exc:
                    raise ScenarioError(f"{where}.expr failed at t={t}: {exc}") from exc
                slabs.append(np.broadcast_to(vec, (tree.node_count(t), rows, 1)).copy())
            return AdaptedProcess(tree, t_lo, t_hi, tuple(slabs))
        table = value["table"]
        if not isinstance(table, dict):
            raise ScenarioError(f"{where}.table must map times to node tables")
        wanted = {str(t) for t in range(t_lo, t_hi + 1)}
        if set(table) != wanted:
            raise ScenarioError(f"{where}.table must have exactly the time keys {sorted(wanted, key=int)}")
        _node_labels(tree, t_hi, labels)
        slabs = tuple(
            _slab_from_table(labels[t], table[str(t)], rows, f"{where}.table[{str(t)!r}]")
            for t in range(t_lo, t_hi + 1)
        )
        return AdaptedProcess(tree, t_lo, t_hi, slabs)
    arr = _parse_array(value, where)
    if arr.size != rows:
        raise ScenarioError(f"{where} must have {rows} components")
    return arr.reshape(rows, 1)


# -- model payload parsing --------------------------------------------------------


def _parse_bsde(tree: ProbabilityTree, payload: dict) -> tuple[Generator, AdaptedProcess]:
    _check_keys(payload, {"n", "d", "driver", "terminal"}, "model")
    n = _as_int(_require(payload, "n", "model"), "model.n")
    if n < 1:
        raise ScenarioError("model.n must be at least 1")
    if "d" in payload and _as_int(payload["d"], "model.d") != tree.d:
        raise ScenarioError(f"model.d disagrees with the tree noise dimension {tree.d}")
    exprs = _parse_expr_list(_require(payload, "driver", "model"), n, 0, n, "model.driver")
    gen = _build_checked(Generator, n=n, d=tree.d, fn=_slab_function(exprs, "yz"))
    horizon = tree.horizon
    raw = _require(payload, "terminal", "model")
    if isinstance(raw, dict):
        slab = _slab_from_table(_node_labels(tree, horizon)[horizon], raw, n, "model.terminal")
        eta = AdaptedProcess(tree, horizon, horizon, (slab,))
    else:
        vec = _parse_array(raw, "model.terminal")
        if vec.size != n:
            raise ScenarioError(f"model.terminal must have {n} components")
        eta = AdaptedProcess.constant(tree, vec.reshape(n, 1), horizon, horizon)
    return gen, eta


def _parse_linear(tree: ProbabilityTree, payload: dict) -> LinearCoefficients:
    _check_keys(payload, {"m", "n", "G", "x0", *MATRICES, *OFFSETS}, "model")
    m = _as_int(_require(payload, "m", "model"), "model.m")
    n = _as_int(_require(payload, "n", "model"), "model.n")
    if m < 1 or n < 1:
        raise ScenarioError("model.m and model.n must be at least 1")
    _build_checked(require_table_budget, tree, m, n)  # before an offset fills the nodes
    matrices = {key: _parse_array(payload[key], f"model.{key}") for key in MATRICES if payload.get(key) is not None}
    dims, labels = {"m": m, "n": n}, [[""]]
    offsets = {
        key: _parse_offset(tree, payload.get(key), dims[rows], *domain(side, tree.horizon), f"model.{key}", labels)
        for key, (rows, side) in OFFSETS.items()
    }
    return _build_checked(
        LinearCoefficients.build,
        tree,
        m,
        n,
        G=_parse_array(_require(payload, "G", "model"), "model.G"),
        x0=_parse_array(_require(payload, "x0", "model"), "model.x0"),
        **matrices,
        **offsets,
    )


def _parse_nonlinear(tree: ProbabilityTree, payload: dict) -> NonlinearModel:
    _build_checked(require_coupled_tree, tree)
    allowed = {"m", "n", "G", "beta1", "beta2", "x0", "drift", "noise_loading", "driver", "terminal"}
    _check_keys(payload, allowed, "model")
    m = _as_int(_require(payload, "m", "model"), "model.m")
    n = _as_int(_require(payload, "n", "model"), "model.n")
    if m < 1 or n < 1:
        raise ScenarioError("model.m and model.n must be at least 1")
    _build_checked(require_table_budget, tree, m, n)  # the continuation's anchor table
    fns = {
        key: _slab_function(_parse_expr_list(payload[key], count, m, n, f"model.{key}"), "xyz")
        for key, count in (("drift", m), ("noise_loading", m), ("driver", n))
        if payload.get(key) is not None
    }
    terminal = None
    if payload.get("terminal") is not None:
        # terminal maps depend on the forward state (and implicitly t = horizon)
        exprs = _parse_expr_list(payload["terminal"], n, m, 0, "model.terminal")
        terminal = _slab_function(exprs, "x", t=tree.horizon)
    return _build_checked(
        NonlinearModel,
        m=m,
        n=n,
        G=_parse_array(_require(payload, "G", "model"), "model.G"),
        beta1=_as_number(_require(payload, "beta1", "model"), "model.beta1"),
        beta2=_as_number(_require(payload, "beta2", "model"), "model.beta2"),
        x0=_parse_array(_require(payload, "x0", "model"), "model.x0"),
        b=fns.get("drift"), sigma=fns.get("noise_loading"), f=fns.get("driver"), h=terminal,
    )


# -- solver settings -----------------------------------------------------------


@dataclass(frozen=True)
class SolverConfig:
    """Settings shared by the commands; flags override scenario values."""

    tol: float | None = None
    seed: int = 0
    delta_init: float = ContinuationConfig.delta_init
    delta_min: float = ContinuationConfig.delta_min
    picard_tol: float = ContinuationConfig.picard_tol
    picard_max_iters: int = ContinuationConfig.picard_max_iters
    validation_tol: float = ContinuationConfig.validation_tol
    samples: int = MONOTONE_SAMPLES
    monotone_beta1: float | None = None
    monotone_beta2: float | None = None

    def tol_or(self, default: float) -> float:
        return default if self.tol is None else self.tol


# Each SolverConfig field's parser and bound, in the order they are checked.
_SETTINGS = {
    **dict.fromkeys(("tol", "delta_init", "delta_min", "picard_tol", "validation_tol"), (_as_number, "positive")),
    **dict.fromkeys(("monotone_beta1", "monotone_beta2"), (_as_number, "nonnegative")),
    "seed": (_as_int, "nonnegative"),
    **dict.fromkeys(("picard_max_iters", "samples"), (_as_int, "at least 1")),
}
_IN_BOUNDS = {"positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0, "at least 1": lambda v: v >= 1}
# The most a setting that sizes an allocation may ask for: check-monotone
# holds about 0.6 kB per sample at m = n = 3.
_BUDGETS = {"samples": 10**5}


def _setting(key: str, value, name: str):
    """The value of setting ``key``, parsed and checked; messages call it ``name``."""
    parse, bound = _SETTINGS[key]
    number = parse(value, name)
    if not _IN_BOUNDS[bound](number):
        raise ScenarioError(f"{name} must be {bound}")
    if number > _BUDGETS.get(key, math.inf):
        raise ScenarioError(f"{name} is {number}, over its budget of {_BUDGETS[key]}")
    return number


def _parse_solver(value) -> SolverConfig:
    if value is None:
        return SolverConfig()
    if not isinstance(value, dict):
        raise ScenarioError("solver must be an object")
    _check_keys(value, set(_SETTINGS), "solver")
    return SolverConfig(**{key: _setting(key, value[key], f"solver.{key}") for key in _SETTINGS if key in value})


def _continuation_config(solver: SolverConfig, validation_tol: float) -> ContinuationConfig:
    return _build_checked(
        ContinuationConfig,
        delta_init=solver.delta_init,
        delta_min=min(solver.delta_min, solver.delta_init),
        picard_tol=solver.picard_tol, picard_max_iters=solver.picard_max_iters,
        validation_tol=validation_tol,
    )


# -- scenario ---------------------------------------------------------------------


_PAYLOADS = {"bsde": _parse_bsde, "linear": _parse_linear, "nonlinear": _parse_nonlinear}


@dataclass(frozen=True)
class Scenario:
    kind: str
    tree: ProbabilityTree
    solver: SolverConfig
    bsde: tuple[Generator, AdaptedProcess] | None = None
    linear: LinearCoefficients | None = None
    nonlinear: NonlinearModel | None = None


def parse_scenario(data) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("the top level of a scenario must be an object")
    _check_keys(data, {"schema_version", "kind", "tree", "model", "solver"}, "scenario")
    version = _require(data, "schema_version", "scenario")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION}")
    kind = _require(data, "kind", "scenario")
    if not isinstance(kind, str) or kind not in _PAYLOADS:
        raise ScenarioError(f"kind must be one of {', '.join(_PAYLOADS)}, got {kind!r}")
    tree = _parse_tree(_require(data, "tree", "scenario"))
    solver = _parse_solver(data.get("solver"))
    payload = _require(data, "model", "scenario")
    if not isinstance(payload, dict):
        raise ScenarioError("model must be an object")
    return Scenario(kind=kind, tree=tree, solver=solver, **{kind: _PAYLOADS[kind](tree, payload)})


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer literal of over 4300 digits
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    return parse_scenario(data)


# -- output helpers -----------------------------------------------------------------


def _component_names(prefix: str, rows: int, cols: int) -> list[str]:
    if cols == 1:
        return [f"{prefix}{r + 1}" for r in range(rows)]
    return [f"{prefix}{r + 1}_{c + 1}" for r in range(rows) for c in range(cols)]


def _process_csv(proc: AdaptedProcess, prefix: str, labels: list[list[str]]) -> str:
    """The CSV table of ``proc``: one line per time and node, ``labels[t]``
    naming the nodes at time t."""
    rows, cols = proc.shape
    width = rows * cols
    lines = ["time,node," + ",".join(_component_names(prefix, rows, cols))]
    for t in range(proc.t_lo, proc.t_hi + 1):
        paths = labels[t]
        # the paths and value columns interleaved line by line, formatted by one %
        columns = [paths, *proc.at(t).reshape(len(paths), width).T.tolist()]
        cells = [None] * (len(paths) * len(columns))
        for j, column in enumerate(columns):
            cells[j :: len(columns)] = column
        line = f"{t},%s," + ",".join(["%.17g"] * width)
        lines.append("\n".join([line] * len(paths)) % tuple(cells))
    return "\n".join(lines) + "\n"


def _solution_tables(tree: ProbabilityTree, sol) -> dict[str, str]:
    labels = _node_labels(tree, tree.horizon)
    tables = {}
    for name, prefix in (("X", "x"), ("Y", "y"), ("Z", "z"), ("N", "n")):
        proc = getattr(sol, name, None)
        if proc is not None:
            tables[f"{name}.csv"] = _process_csv(proc, prefix, labels)
    return tables


def _matrix_text(a: np.ndarray) -> str:
    body = ["[" + ", ".join(f"{v:.12g}" for v in row) + "]" for row in np.atleast_2d(a)]
    return "[" + ", ".join(body) + "]"


def _report_residuals(report, tol: float | None = None) -> dict:
    """Print a residual report; its summary entries, with the ``ok`` verdict
    against ``tol`` when one is given."""
    for key, value in asdict(report).items():
        print(f"residual {key}: {value:.12g}")
    print(f"residual max: {report.max:.12g}")
    entries = {"residuals": asdict(report) | {"max": report.max}}
    return entries if tol is None else entries | {"ok": bool(report.max <= tol)}


def _emit(args, summary: dict, tables: dict[str, str]) -> None:
    if args.out is None:
        return
    # strict JSON, built first: a non-finite number is refused before any file is written
    try:
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteSolutionError(f"summary.json not written: {exc}") from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        (out / name).write_text(table, encoding="utf-8")
    (out / "summary.json").write_text(text, encoding="utf-8")


# -- commands -------------------------------------------------------------------------

# What a command handler returns: (exit code, summary entries, --out tables).
# ``main`` checks the scenario kind before it and writes the output after it.
_Outcome = tuple[int, dict, dict[str, str]]


def _cmd_validate(scenario: Scenario, solver: SolverConfig) -> _Outcome:
    tree = scenario.tree
    tol = solver.tol_or(MOMENT_TOL)
    print(f"kind {scenario.kind}, horizon {tree.horizon}, noise dimension {tree.d}")
    steps = []
    for t, step in enumerate(tree.steps):
        report = validate_increments(step, tol=tol)
        verdict = "ok" if report.ok else "FAIL: " + ", ".join(name for name, _ in report.failures)
        print(f"step {t}: branching {step.branch_count}, {verdict}")
        failures = [[name, float(residual)] for name, residual in report.failures]
        steps.append({"t": t, "branch_count": step.branch_count, "ok": bool(report.ok), "failures": failures})
    descriptions = {
        "bsde": lambda: f"backward equation with n={scenario.bsde[0].n}",
        "linear": lambda: f"linear system with m={scenario.linear.m}, n={scenario.linear.n}",
        "nonlinear": lambda: f"nonlinear model with m={scenario.nonlinear.m}, n={scenario.nonlinear.n}",
    }
    print(f"payload: {descriptions[scenario.kind]()}")
    ok = all(entry["ok"] for entry in steps)
    print("scenario OK" if ok else "scenario FAILED the moment checks")
    return EXIT_OK if ok else EXIT_VALIDATION, {"steps": steps, "ok": ok}, {}


def _cmd_solve_bsde(scenario: Scenario, solver: SolverConfig) -> _Outcome:
    gen, eta = scenario.bsde
    tree = scenario.tree
    sol = solve_bsde(tree, gen, eta)
    report = bsde_residuals(tree, gen, eta, sol)
    sup_n = sol.N.sup_norm()
    print(f"solved backward equation: horizon {tree.horizon}, {tree.node_count(tree.horizon)} terminal nodes")
    summary = _report_residuals(report, solver.tol_or(RESIDUAL_BOUND))
    complete = "  (complete: the orthogonal part vanishes)" if sup_n <= 1e-12 else ""
    print(f"sup |N| = {sup_n:.12g}{complete}")
    return EXIT_OK, summary | {"sup_N": float(sup_n)}, _solution_tables(tree, sol)


def _cmd_solve_linear(scenario: Scenario, solver: SolverConfig) -> _Outcome:
    coeffs, tree = scenario.linear, scenario.tree
    tol = solver.tol_or(SINGULAR_TOL)
    matrices = riccati_matrices(coeffs, singular_tol=tol)
    print("Gamma_t invertibility:")
    print("  t  sigma_min        invertible")
    for entry in matrices.gamma_reports:
        print(f"  {entry.t}  {entry.sigma_min:<15.12g}  {'yes' if entry.invertible else 'NO'}")
    sol = solve_linear(coeffs, tree, matrices=matrices)
    print("decoupling sequence P_t (defined for t = 1..T):")
    for t in range(1, coeffs.horizon + 1):
        print(f"  P[{t}] = {_matrix_text(matrices.P[t])}")
    summary = _report_residuals(sol.residual_report, RESIDUAL_BOUND) | {
        "gamma": [entry._asdict() for entry in matrices.gamma_reports],
        "P": [{"t": t, "matrix": matrices.P[t].tolist()} for t in range(1, coeffs.horizon + 1)],
    }
    tables = _solution_tables(tree, sol)
    names = ",".join(_component_names("p", coeffs.n, coeffs.m))
    lines = [f"time,sigma_min,invertible,{names}"]
    blank_p = "," * (coeffs.n * coeffs.m - 1)
    for t in range(coeffs.horizon + 1):
        if t < coeffs.horizon:
            sig, inv = f"{matrices.sigma_min[t]:.17g}", str(bool(matrices.gamma_reports[t].invertible)).lower()
        else:
            sig = inv = ""
        values = ",".join(f"{v:.17g}" for v in matrices.P[t].reshape(-1)) if t >= 1 else blank_p
        lines.append(f"{t},{sig},{inv},{values}")
    tables["riccati.csv"] = "\n".join(lines) + "\n"
    return EXIT_OK, summary, tables


def _check_monotone(scenario: Scenario, solver: SolverConfig, tol: float = MONOTONE_TOL) -> MonotonicityReport:
    return check_monotone(
        scenario.nonlinear, scenario.tree, samples=solver.samples, seed=solver.seed, tol=tol,
        beta1=solver.monotone_beta1, beta2=solver.monotone_beta2,
    )


def _cmd_solve_nonlinear(scenario: Scenario, solver: SolverConfig) -> _Outcome:
    model, tree = scenario.nonlinear, scenario.tree
    config = _continuation_config(solver, solver.tol_or(solver.validation_tol))
    mono = _check_monotone(scenario, solver)
    tag = "verified" if mono.ok else "assumption-unverified"
    print(
        f"monotonicity: {tag} (worst coupling slack {mono.worst_coupling_slack:.12g}, "
        f"worst terminal slack {mono.worst_terminal_slack:.12g}, {mono.samples} samples)"
    )
    result = solve_continuation(model, tree, config)
    trace = result.trace
    print("continuation grid: " + " -> ".join(f"{alpha:g}" for alpha in trace.grid))
    for stage in trace.stages:
        status = "accepted" if stage.accepted else "rejected"
        print(
            f"  stage alpha {stage.alpha_from:g} -> {stage.alpha_to:g}: delta {stage.delta:g}, "
            f"{stage.iterations} iterations, distance {stage.distance:.12g}, {status}"
        )
    print(f"inner linear solves: {trace.linear_solves}")
    stages = [stage._asdict() | {"iterations": stage.iterations, "distance": stage.distance} for stage in trace.stages]
    summary = _report_residuals(result.solution.residual_report) | {
        "monotone": asdict(mono) | {"tag": tag},
        "trace": asdict(trace) | {"stages": stages},
    }
    return EXIT_OK, summary, _solution_tables(tree, result.solution)


def _cmd_check_monotone(scenario: Scenario, solver: SolverConfig) -> _Outcome:
    report = _check_monotone(scenario, solver, solver.tol_or(MONOTONE_TOL))
    print(f"samples: {report.samples}, tolerance: {report.tol:g}")
    print(f"worst coupling slack: {report.worst_coupling_slack:.12g}")
    print(f"worst terminal slack: {report.worst_terminal_slack:.12g}")
    print("monotone condition holds" if report.ok else "monotone condition VIOLATED")
    return EXIT_OK if report.ok else EXIT_VALIDATION, asdict(report), {}


def _cmd_compare_oracle(scenario: Scenario, solver: SolverConfig) -> _Outcome:
    tree = scenario.tree
    threshold = solver.tol_or(1e-6)
    # the system first: an oversized one is refused before the reference solve
    if scenario.kind == "bsde":
        gen, eta = scenario.bsde
        system = build_residual_system(tree, gen, eta=eta)
        reference = solve_bsde(tree, gen, eta)
    elif scenario.kind == "linear":
        system = build_residual_system(tree, scenario.linear)
        reference = solve_linear(scenario.linear, tree)
    else:
        system = build_residual_system(tree, scenario.nonlinear)
        config = _continuation_config(solver, solver.validation_tol)  # --tol is the difference threshold here
        reference = solve_continuation(scenario.nonlinear, tree, config).solution
    oracle = solve_global_newton(system)
    print(
        f"oracle: {system.size} unknowns, {oracle.trace.iterations} damped Newton iterations, "
        f"equation residual {oracle.equation_residual:.12g}"
    )
    gaps = component_gaps(reference, oracle)
    for name, gap in gaps.items():
        if gap is not None:
            print(f"sup |{name}_solver - {name}_oracle| = {gap:.12g}")
    total = max(value for value in gaps.values() if value is not None)
    ok = total <= threshold
    print(f"sup-difference {total:.12g} against threshold {threshold:g}: {'ok' if ok else 'FAILED'}")
    newton = {
        "converged": bool(oracle.trace.converged),
        "iterations": int(oracle.trace.iterations),
        "equation_residual": float(oracle.equation_residual),
    }
    summary = {"gaps": gaps, "sup_difference": float(total), "threshold": float(threshold), "ok": bool(ok)}
    return EXIT_OK if ok else EXIT_SOLVER, summary | {"newton": newton}, _solution_tables(tree, reference)


# name -> (the scenario kind it needs, or None for any; handler; help text)
_COMMANDS = {
    "validate": (None, _cmd_validate, "check the tree moments and the model payload"),
    "solve-bsde": ("bsde", _cmd_solve_bsde, "solve a backward equation and report residuals"),
    "solve-linear": (
        "linear", _cmd_solve_linear, "solve a linear coupled system; prints the Gamma table and P sequence"
    ),
    "solve-nonlinear": (
        "nonlinear", _cmd_solve_nonlinear, "solve a nonlinear coupled system by continuation; prints the stage trace"
    ),
    "check-monotone": ("nonlinear", _cmd_check_monotone, "sample the dissipativity inequalities of a nonlinear model"),
    "compare-oracle": (None, _cmd_compare_oracle, "solve and cross-check against the global Newton oracle"),
}


# -- entry point ------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


@functools.cache  # one parser per process; parsing leaves no state on it
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="fbsdelta", description="Scenario-driven solvers for coupled stochastic difference systems.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)
    for name, (_, _, text) in _COMMANDS.items():
        command = sub.add_parser(name, help=text, description=text)
        command.add_argument("scenario", help="path to a scenario JSON file")
        command.add_argument("--out", metavar="DIR", default=None, help="write CSV tables and summary.json here")
        command.add_argument("--tol", metavar="X", type=float, default=None, help="main tolerance of the command")
        command.add_argument("--seed", metavar="N", type=int, default=None, help="sampling seed (monotonicity checks)")
        command.add_argument(
            "--delta-init",
            metavar="X",
            type=float,
            dest="delta_init",
            default=None,
            help="first continuation step; later steps double after a fast stepping stone and halve after a stall",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        scenario = load_scenario(args.scenario)
        flags = {key: getattr(args, key) for key in ("tol", "seed", "delta_init")}
        overrides = {
            key: _setting(key, value, "--" + key.replace("_", "-")) for key, value in flags.items() if value is not None
        }
        solver = replace(scenario.solver, **overrides)
        kind, handler, _ = _COMMANDS[args.command]
        if kind not in (None, scenario.kind):
            raise ScenarioError(f"{args.command} needs a scenario of kind {kind!r}, got {scenario.kind!r}")
        code, summary, tables = handler(scenario, solver)
        tree = scenario.tree
        common = {"command": args.command, "kind": scenario.kind, "schema_version": SCHEMA_VERSION}
        _emit(args, common | {"horizon": tree.horizon, "noise_dimension": tree.d} | summary, tables)
        return code
    except (InputError, ExprSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NotSolvableError, ContinuationFailedError, OracleFailedError, ExprEvalError, NonFiniteSolutionError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SOLVER


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
