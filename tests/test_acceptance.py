"""Acceptance gate: one test per shipped guarantee, at the advertised tolerances.

Every test prints a single ``[PASS]``/``[FAIL]`` verdict line with its key
numbers (run ``pytest -s tests/test_acceptance.py`` to watch them) and then
enforces the same bound with an assertion.
"""

import json
import time

import numpy as np
import pytest

from fbsdelta import (
    AdaptedProcess,
    ContinuationConfig,
    Generator,
    IncrementDistribution,
    LinearCoefficients,
    NotSolvableError,
    ProbabilityTree,
    anchor_coefficients,
    bsde_residuals,
    build_residual_system,
    check_monotone,
    check_solvability,
    duality_gap,
    eval_expr,
    is_martingale,
    is_strongly_orthogonal,
    linear_residual,
    nonlinear_residual,
    parse_expr,
    riccati_matrices,
    solution_gap,
    solve_bsde,
    solve_continuation,
    solve_global_newton,
    solve_linear,
)
from fbsdelta.cli import main as cli_main
from golden_expressions import GOLDEN_EXPRESSIONS, dims_of
from helpers import (
    combine,
    dense_jacobian,
    dsl_generator,
    mild_coupled_model,
    rademacher_tree,
    random_dsl_generator,
    random_linear_coefficients,
    random_offsets,
    random_terminal,
    random_tree,
)
from test_cli import bsde_scenario, linear_scenario, nonlinear_scenario, write_scenario

BACKWARD_INSTANCES = 100
LINEAR_INSTANCES = 100
VERDICT_PAIRS = 50
ANCHOR_DRAWS = 50
MONOTONE_MODELS = 20


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} — {label} ({detail})"
    print(line)
    assert ok, line


def _backward_instances():
    """The randomized backward-equation family shared by criteria 1 and 2."""
    rng = np.random.default_rng(2024)
    for index in range(BACKWARD_INSTANCES):
        horizon = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        tree = random_tree(rng, horizon, (2, 3), d)
        _, interior, terminal = random_dsl_generator(rng, n, d, horizon)
        eta = random_terminal(rng, tree, n)
        yield index, tree, n, interior, terminal, eta


def _shared_homogeneous_bundles(rng, tree, m, n, scale, count, solvable=None):
    """Coefficient bundles that differ only in (D, Dbar, Dhat, g, x0).

    ``solvable=True`` redraws the shared homogeneous part until the step
    matrices are comfortably invertible; ``None`` keeps whatever comes out.
    Returns the bundles plus the shared keyword dict used to build them.
    """
    T = tree.horizon
    s = scale / max(m, n)
    while True:
        chat = rng.uniform(-s, s, size=(T, n, n))
        chat[-1] = 0.0
        homogeneous = {
            "G": rng.uniform(-1.0, 1.0, size=(n, m)),
            "A": rng.uniform(-s, s, size=(T, m, m)),
            "Abar": rng.uniform(-s, s, size=(T, m, m)),
            "B": rng.uniform(-s, s, size=(T, m, n)),
            "Bbar": rng.uniform(-s, s, size=(T, m, n)),
            "C": rng.uniform(-s, s, size=(T, m, n)),
            "Cbar": rng.uniform(-s, s, size=(T, m, n)),
            "Ahat": rng.uniform(-s, s, size=(T, n, m)),
            "Bhat": rng.uniform(-s, s, size=(T, n, n)),
            "Chat": chat,
        }
        probe = LinearCoefficients.build(tree, m, n, x0=np.zeros((m, 1)), **homogeneous)
        mats = riccati_matrices(probe)
        if solvable is None or (mats.failure_t is None and mats.sigma_min.min() > 1e-3):
            break
    bundles = []
    for _ in range(count):
        offsets = random_offsets(rng, tree, m, n)
        x0 = offsets.pop("x0")
        bundles.append(LinearCoefficients.build(tree, m, n, x0=x0, **homogeneous, **offsets))
    return bundles, homogeneous


def _singular_pair(rng, tree, m):
    """Two offset bundles over a shared homogeneous part whose last forward
    coupling is the inverse of the terminal map, pinning the step matrix at
    horizon - 1 to (numerically) exact singularity."""
    T = tree.horizon
    while True:
        G = rng.uniform(-1.0, 1.0, size=(m, m))
        if np.linalg.svd(G, compute_uv=False)[-1] > 0.3:
            break
    B = np.zeros((T, m, m))
    B[-1] = np.linalg.inv(G)
    bundles = []
    for _ in range(2):
        offsets = random_offsets(rng, tree, m, m)
        x0 = offsets.pop("x0")
        bundles.append(LinearCoefficients.build(tree, m, m, G=G, B=B, x0=x0, **offsets))
    return bundles


def _monotone_model_suite():
    """Twenty coupled models: base couplings plus bounded smooth perturbations."""
    param_sets = []
    for i in range(MONOTONE_MODELS):
        param_sets.append(
            dict(
                m=1 + i % 2,
                seed=100 + i,
                eps=0.05 + 0.005 * i,  # strengths 0.05 .. 0.145
                shift=0.15 * ((i % 3) - 1),
                x0_bump=0.1 * (i % 2),
            )
        )
    return [(params, mild_coupled_model(**params)) for params in param_sets]


# ---------------------------------------------------------------------------


def test_criterion_01_backward_solves_are_pathwise_exact():
    start = time.perf_counter()
    worst = 0.0
    for index, tree, n, interior, terminal, eta in _backward_instances():
        gen = dsl_generator(interior, terminal, n, tree.d, tree.horizon)
        sol = solve_bsde(tree, gen, eta)
        report = bsde_residuals(tree, gen, eta, sol)
        worst = max(worst, report.max)
        if index % 10 == 0:
            assert is_martingale(tree, sol.N).ok
            assert is_strongly_orthogonal(tree, sol.N).ok
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed <= 10.0
    _verdict(
        1,
        "backward solves are pathwise exact",
        ok,
        f"worst residual {worst:.2e} over {BACKWARD_INSTANCES} instances, {elapsed:.1f}s",
    )


def test_criterion_02_orthogonal_part_vanishes_exactly_on_complete_trees():
    worst_complete = 0.0
    for index, tree, n, interior, terminal, _ in _backward_instances():
        binary = rademacher_tree(tree.horizon)
        gen = dsl_generator(interior, terminal, n, 1, tree.horizon)
        eta = random_terminal(np.random.default_rng(1000 + index), binary, n)
        sol = solve_bsde(binary, gen, eta)
        worst_complete = max(worst_complete, sol.N.sup_norm())

    horizon = 3
    trinomial = ProbabilityTree([IncrementDistribution.trinomial(0.25)] * horizon)
    points = trinomial.steps[-1].points
    eta = AdaptedProcess.from_node_function(
        trinomial,
        lambda t, node: np.array([[points[node[-1], 0] ** 2]]),
        (1, 1),
        horizon,
        horizon,
    )
    zero_gen = Generator.pointwise(n=1, d=1, fn=lambda t, y, z, node: np.zeros(1))
    sol = solve_bsde(trinomial, zero_gen, eta)
    report = bsde_residuals(trinomial, zero_gen, eta, sol)
    incomplete_sup = sol.N.sup_norm()

    ok = worst_complete <= 1e-12 and incomplete_sup >= 0.1 and report.orthogonality <= 1e-12
    _verdict(
        2,
        "orthogonal part vanishes exactly when one noise step spans the branching",
        ok,
        f"binary sup|N| {worst_complete:.2e}; trinomial sup|N| {incomplete_sup:.3f}, "
        f"orthogonality {report.orthogonality:.2e}",
    )


def test_criterion_03_linear_solver_matches_the_oracle():
    def capped_horizon(horizon, m, n, cap=260):
        while horizon > 2:
            unknowns = (
                m * (2 ** (horizon + 1) - 2)
                + n * (2 ** (horizon + 1) - 1)
                + n * (2**horizon - 1)
            )
            if unknowns <= cap:
                break
            horizon -= 1
        return horizon

    rng = np.random.default_rng(31)
    start = time.perf_counter()
    worst_gap = worst_residual = 0.0
    for _ in range(LINEAR_INSTANCES):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        horizon = capped_horizon(int(rng.integers(2, 6)), m, n)
        tree = rademacher_tree(horizon)
        coeffs = random_linear_coefficients(rng, tree, m, n)
        sol = solve_linear(coeffs, tree)
        worst_residual = max(worst_residual, linear_residual(coeffs, tree, sol).max)
        oracle = solve_global_newton(build_residual_system(tree, coeffs))
        worst_gap = max(worst_gap, solution_gap(sol, oracle))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-8 and worst_residual <= 1e-10 and elapsed <= 60.0
    _verdict(
        3,
        "structured linear solves match the equation-level oracle",
        ok,
        f"worst gap {worst_gap:.2e}, worst residual {worst_residual:.2e} "
        f"over {LINEAR_INSTANCES} instances, {elapsed:.1f}s",
    )


def test_criterion_04_singular_step_is_reported_not_solved():
    # scalar instance tuned so the last step matrix is exactly zero; the data
    # is zero as well, keeping the finite-difference probe of the equation
    # oracle free of cancellation noise (its derivative ignores the data)
    tree = rademacher_tree(2)
    coeffs = LinearCoefficients.build(
        tree, 1, 1, G=[[1.0]], x0=[0.0], B=np.array([[[0.0]], [[1.0]]])
    )
    report = check_solvability(coeffs, tree)
    with pytest.raises(NotSolvableError, match=r"NotSolvable at t=1"):
        solve_linear(coeffs, tree)

    system = build_residual_system(tree, coeffs)
    jac = dense_jacobian(system.jacobian(np.zeros(system.size)))
    sigma_min = np.linalg.svd(jac, compute_uv=False)[-1]

    ok = not report.solvable and report.failure_t == 1 and sigma_min <= 1e-10
    _verdict(
        4,
        "singular step matrix is refused and the oracle system is singular too",
        ok,
        f"failure at t={report.failure_t}, oracle sigma_min {sigma_min:.2e}",
    )


def test_criterion_05_solvability_verdict_ignores_inhomogeneous_data():
    rng = np.random.default_rng(47)
    solvable_count = singular_count = 0
    identical = True
    for pair_index in range(VERDICT_PAIRS):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        tree = rademacher_tree(int(rng.integers(2, 5)))
        if pair_index % 2:
            first, second = _singular_pair(rng, tree, m)
        else:
            (first, second), _ = _shared_homogeneous_bundles(rng, tree, m, n, scale=1.1, count=2)
        a, b = check_solvability(first, tree), check_solvability(second, tree)
        identical &= a.solvable == b.solvable and a.failure_t == b.failure_t
        identical &= len(a.entries) == len(b.entries)
        identical &= all(
            ea.t == eb.t and ea.sigma_min == eb.sigma_min and ea.invertible == eb.invertible
            for ea, eb in zip(a.entries, b.entries)
        )
        solvable_count += a.solvable
        singular_count += not a.solvable
    ok = identical and solvable_count > 0 and singular_count > 0
    _verdict(
        5,
        "solvability verdicts are bit-identical across offset data",
        ok,
        f"{VERDICT_PAIRS} pairs: {solvable_count} solvable, {singular_count} singular, "
        f"all verdicts identical: {identical}",
    )


def test_criterion_06_base_family_matches_the_closed_recursion():
    rng = np.random.default_rng(53)
    worst = 0.0
    all_invertible = True
    for _ in range(ANCHOR_DRAWS):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        horizon = int(rng.integers(2, 6))
        beta1 = float(rng.uniform(0.01, 5.0))
        beta2 = float(rng.uniform(0.01, 5.0))
        while True:
            G = rng.uniform(-1.0, 1.0, size=(n, m))
            if np.linalg.svd(G, compute_uv=False)[-1] > 0.3:
                break
        tree = rademacher_tree(horizon)
        coeffs = anchor_coefficients(tree, G, beta1, beta2, np.zeros((m, 1)))
        mats = riccati_matrices(coeffs)
        all_invertible &= mats.failure_t is None and all(r.invertible for r in mats.gamma_reports)

        closed = beta1 * G + G
        worst = max(worst, float(np.abs(mats.P[horizon] - closed).max()))
        for t in range(horizon - 1, 0, -1):
            closed = beta1 * G + closed @ np.linalg.inv(np.eye(m) + beta2 * G.T @ closed)
            worst = max(worst, float(np.abs(mats.P[t] - closed).max()))
    ok = all_invertible and worst <= 1e-12
    _verdict(
        6,
        "base-family step matrices stay invertible and match the closed recursion",
        ok,
        f"{ANCHOR_DRAWS} draws, all invertible: {all_invertible}, worst deviation {worst:.2e}",
    )


def test_criterion_07_continuation_matches_the_oracle_on_monotone_models():
    tree = rademacher_tree(4)
    start = time.perf_counter()
    verified = 0
    worst_oracle_gap = worst_residual = worst_schedule_gap = 0.0
    for params, model in _monotone_model_suite():
        check = check_monotone(model, tree, samples=10_000, seed=params["seed"], beta1=0.3, beta2=0.3)
        verified += check.ok

        result = solve_continuation(model, tree)
        worst_residual = max(worst_residual, result.trace.final_residual)
        worst_residual = max(worst_residual, nonlinear_residual(model, tree, result.solution).max)

        fine = solve_continuation(model, tree, ContinuationConfig(delta_init=0.1))
        worst_schedule_gap = max(worst_schedule_gap, solution_gap(result.solution, fine.solution))

        oracle = solve_global_newton(build_residual_system(tree, model))
        worst_oracle_gap = max(worst_oracle_gap, solution_gap(result.solution, oracle))
    elapsed = time.perf_counter() - start
    ok = (
        verified == MONOTONE_MODELS
        and worst_oracle_gap <= 1e-6
        and worst_residual <= 1e-8
        and worst_schedule_gap <= 1e-6
        and elapsed <= 300.0
    )
    _verdict(
        7,
        "continuation agrees with the oracle on verified dissipative models",
        ok,
        f"{verified}/{MONOTONE_MODELS} verified, oracle gap {worst_oracle_gap:.2e}, "
        f"residual {worst_residual:.2e}, schedule gap {worst_schedule_gap:.2e}, {elapsed:.0f}s",
    )


def test_criterion_08_duality_identity_holds_along_paired_solutions():
    rng = np.random.default_rng(61)
    worst_gap = 0.0
    largest_side = 0.0
    for _ in range(10):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        tree = rademacher_tree(int(rng.integers(2, 5)))
        pair, _ = _shared_homogeneous_bundles(rng, tree, m, n, scale=0.3, count=2, solvable=True)
        sols = [solve_linear(c, tree) for c in pair]
        report = duality_gap(tree, pair[0], sols[0], pair[1], sols[1])
        worst_gap = max(worst_gap, report.gap)
        largest_side = max(largest_side, abs(report.lhs))

    tree = rademacher_tree(3)
    for seed in (7, 8):
        model_a = mild_coupled_model(m=2, seed=seed, eps=0.08)
        model_b = mild_coupled_model(m=2, seed=seed, eps=0.08, shift=0.3, x0_bump=0.2)
        sol_a = solve_continuation(model_a, tree).solution
        sol_b = solve_continuation(model_b, tree).solution
        report = duality_gap(tree, model_a, sol_a, model_b, sol_b)
        worst_gap = max(worst_gap, report.gap)
        largest_side = max(largest_side, abs(report.lhs))

    ok = worst_gap <= 1e-8 and largest_side > 1e-3
    _verdict(
        8,
        "pairing identity balances along paired solutions",
        ok,
        f"worst gap {worst_gap:.2e}, largest side {largest_side:.2e}",
    )


def test_criterion_09_solutions_are_stable_and_superpose():
    # part one: backward equations — halving the data perturbation halves the
    # solution difference, down to zero
    rng = np.random.default_rng(71)
    halvings = 18
    ratios_ok = True
    vanish_ok = True
    for _ in range(8):
        horizon = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        tree = random_tree(rng, horizon, (2, 3), 1)
        gen, _, _ = random_dsl_generator(rng, n, 1, horizon)
        eta = random_terminal(rng, tree, n)
        base = solve_bsde(tree, gen, eta)

        eta_dir = random_terminal(rng, tree, n)
        driver_dir = rng.uniform(-0.5, 0.5, size=n)
        gaps = []
        for k in range(halvings):
            scale = 0.5**k
            bumped_gen = Generator(
                n=n,
                d=1,
                fn=lambda t, y, z, node, s=scale: gen.fn(t, y, z, node) + s * driver_dir,
            )
            bumped = solve_bsde(tree, bumped_gen, combine((1.0, eta), (scale, eta_dir)))
            gaps.append(solution_gap(bumped, base))
        ratios_ok &= all(after <= before * (1.0 + 1e-9) for before, after in zip(gaps, gaps[1:]))
        vanish_ok &= gaps[-1] <= gaps[0] * 2.0 ** -(halvings - 3)

    # part two: linear systems — the solution map is affine in the data, so
    # dyadic mixtures of data bundles solve to the same mixture of solutions
    rng = np.random.default_rng(73)
    lam = 0.375
    worst_mix = 0.0
    for _ in range(10):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        tree = rademacher_tree(int(rng.integers(2, 5)))
        (bundle_a, bundle_b), homogeneous = _shared_homogeneous_bundles(
            rng, tree, m, n, scale=0.3, count=2, solvable=True
        )
        mixed = LinearCoefficients.build(
            tree,
            m,
            n,
            x0=bundle_a.x0 * lam + bundle_b.x0 * (1.0 - lam),
            D=combine((lam, bundle_a.D), (1.0 - lam, bundle_b.D)),
            Dbar=combine((lam, bundle_a.Dbar), (1.0 - lam, bundle_b.Dbar)),
            Dhat=combine((lam, bundle_a.Dhat), (1.0 - lam, bundle_b.Dhat)),
            g=combine((lam, bundle_a.g), (1.0 - lam, bundle_b.g)),
            **homogeneous,
        )
        sol_a, sol_b, sol_mix = (solve_linear(c, tree) for c in (bundle_a, bundle_b, mixed))
        for name in ("X", "Y", "Z", "N"):
            mixture = (lam, getattr(sol_a, name)), (1.0 - lam, getattr(sol_b, name))
            worst_mix = max(worst_mix, combine(*mixture, (-1.0, getattr(sol_mix, name))).sup_norm())

    ok = ratios_ok and vanish_ok and worst_mix <= 1e-9
    _verdict(
        9,
        "solutions shrink with the data and superpose on linear systems",
        ok,
        f"halving ratios monotone: {ratios_ok}, vanishing tail: {vanish_ok}, "
        f"worst mixture gap {worst_mix:.2e}",
    )


def test_criterion_10_expression_grammar_and_cli_contract(tmp_path, capsys):
    assert len(GOLDEN_EXPRESSIONS) >= 20
    exact = 0
    for text, bindings, expected in GOLDEN_EXPRESSIONS:
        m, n = dims_of(bindings)
        expr = parse_expr(text, m=m, n=n)
        value = eval_expr(
            expr,
            t=bindings.get("t", 0.0),
            x=bindings.get("x", ()),
            y=bindings.get("y", ()),
            z=bindings.get("z", ()),
        )
        exact += value == expected

    good = write_scenario(tmp_path, nonlinear_scenario(), "good.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["solve-nonlinear", good, "--out", str(out_a)]) == 0
    stdout_a = capsys.readouterr().out
    assert cli_main(["solve-nonlinear", good, "--out", str(out_b)]) == 0
    stdout_b = capsys.readouterr().out
    deterministic = bool(stdout_a) and stdout_a == stdout_b
    names = sorted(p.name for p in out_a.iterdir())
    deterministic &= names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        deterministic &= (out_a / name).read_bytes() == (out_b / name).read_bytes()

    singular = {
        "schema_version": 1,
        "kind": "linear",
        "tree": {"horizon": 2, "step": "rademacher"},
        "model": {"m": 1, "n": 1, "G": [[1.0]], "x0": [0.0], "B": [[[0.0]], [[1.0]]]},
    }
    bad_schema = dict(bsde_scenario(), schema_version=99)
    syntax = bsde_scenario()
    syntax["model"] = dict(syntax["model"], driver=["y1 +", "y2"])
    violated = nonlinear_scenario(with_margins=False)
    violated["model"] = dict(violated["model"], driver=["-2*x1"])
    exit_table = [
        (["validate", write_scenario(tmp_path, bsde_scenario(), "ok.json")], 0),
        (["solve-linear", write_scenario(tmp_path, linear_scenario(), "lin.json")], 0),
        (["solve-linear", write_scenario(tmp_path, singular, "sing.json")], 2),
        # the continuation stops at its tolerance, so its gap to the oracle is
        # above 1e-18 by construction (on this scenario the linear solver and
        # the oracle's block elimination agree to the last bit)
        (["compare-oracle", write_scenario(tmp_path, nonlinear_scenario(), "cmp.json"), "--tol", "1e-18"], 2),
        (["validate", write_scenario(tmp_path, bad_schema, "schema.json")], 3),
        (["check-monotone", write_scenario(tmp_path, violated, "viol.json")], 3),
        (["validate", str(tmp_path / "no-such-file.json")], 4),
        (["solve-bsde", write_scenario(tmp_path, syntax, "syntax.json")], 4),
    ]
    codes_ok = True
    for argv, expected_code in exit_table:
        codes_ok &= cli_main(argv) == expected_code
    capsys.readouterr()

    ok = exact == len(GOLDEN_EXPRESSIONS) and bool(deterministic) and codes_ok
    with capsys.disabled():
        _verdict(
            10,
            "expression grammar is exact and the command line is deterministic",
            ok,
            f"{exact}/{len(GOLDEN_EXPRESSIONS)} grammar cases exact, reruns byte-identical: "
            f"{bool(deterministic)}, exit codes: {codes_ok}",
        )
