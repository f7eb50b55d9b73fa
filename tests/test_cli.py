"""Exit-code contract, output tables, and byte-identical reruns."""

import json

import numpy as np
import pytest

from fbsdelta import (
    AdaptedProcess,
    LinearCoefficients,
    NonlinearModel,
    ProbabilityTree,
    build_residual_system,
    check_monotone,
    eval_expr,
    parse_expr,
    solution_gap,
    solve_continuation,
    solve_global_newton,
    solve_linear,
)
from fbsdelta.cli import load_scenario, main
from helpers import rademacher_tree


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2))
    return str(path)


def bsde_scenario():
    return {
        "schema_version": 1,
        "kind": "bsde",
        "tree": {"horizon": 3, "step": "rademacher"},
        "model": {
            "n": 2,
            "driver": ["-0.5*y1 + 0.1*sin(z1)", "0.2*tanh(y2) - 0.1*z2"],
            "terminal": [0.3, -0.4],
        },
    }


def linear_scenario():
    return {
        "schema_version": 1,
        "kind": "linear",
        "tree": {"horizon": 2, "step": "rademacher"},
        "model": {
            "m": 1,
            "n": 1,
            "G": [[1.0]],
            "x0": [1.0],
            "B": [[0.25]],
            "D": {"expr": ["0.1*t + 0.5"]},
            "g": [0.25],
        },
    }


def nonlinear_scenario(with_margins=True):
    scenario = {
        "schema_version": 1,
        "kind": "nonlinear",
        "tree": {"horizon": 2, "step": "rademacher"},
        "model": {
            "m": 1,
            "n": 1,
            "G": [[1.0]],
            "beta1": 1.0,
            "beta2": 1.0,
            "x0": [0.4],
            "drift": ["-y1 + 0.05*tanh(y1 + z1)"],
            "noise_loading": ["-z1 + 0.05*tanh(z1 - 0.3)"],
            "driver": ["x1 + 0.05*sin(x1)"],
            "terminal": ["x1 + 0.05*tanh(x1)"],
        },
    }
    if with_margins:
        scenario["solver"] = {"monotone_beta1": 0.25, "monotone_beta2": 0.25}
    return scenario


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [line.split(",") for line in rows]


# -- happy paths ----------------------------------------------------------------


def test_validate_reports_every_step(tmp_path, capsys):
    path = write_scenario(tmp_path, bsde_scenario())
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "step 0: branching 2, ok" in out
    assert "step 2: branching 2, ok" in out
    assert "scenario OK" in out


def test_solve_bsde_writes_all_tables(tmp_path):
    path = write_scenario(tmp_path, bsde_scenario())
    out_dir = tmp_path / "out"
    assert main(["solve-bsde", path, "--out", str(out_dir)]) == 0
    header, rows = read_csv(out_dir / "Y.csv")
    assert header == ["time", "node", "y1", "y2"]
    assert len(rows) == 1 + 2 + 4 + 8  # Y lives on t = 0..3
    assert rows[0][:2] == ["0", ""]
    assert rows[2][:2] == ["1", "1"]
    assert rows[3][:2] == ["2", "0.0"]
    assert rows[-1][:2] == ["3", "1.1.1"]
    _, z_rows = read_csv(out_dir / "Z.csv")
    assert len(z_rows) == 1 + 2 + 4  # Z stops at T-1
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["command"] == "solve-bsde"
    assert summary["residuals"]["max"] <= 1e-10
    assert summary["sup_N"] <= 1e-12  # binary tree: complete, no orthogonal part
    assert summary["ok"] is True


def test_solve_linear_prints_gamma_table_and_p_sequence(tmp_path, capsys):
    path = write_scenario(tmp_path, linear_scenario())
    out_dir = tmp_path / "out"
    assert main(["solve-linear", path, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "Gamma_t invertibility:" in out
    assert "P[1] = [[1.33333333333]]" in out
    assert "P[2] = [[1]]" in out
    summary = json.loads((out_dir / "summary.json").read_text())
    assert [entry["t"] for entry in summary["gamma"]] == [0, 1]
    assert all(entry["invertible"] for entry in summary["gamma"])
    assert [entry["t"] for entry in summary["P"]] == [1, 2]
    header, rows = read_csv(out_dir / "riccati.csv")
    assert header == ["time", "sigma_min", "invertible", "p1"]
    assert len(rows) == 3
    assert rows[0][3] == "" and rows[2][1] == ""


def test_solve_nonlinear_prints_trace_and_verdict(tmp_path, capsys):
    path = write_scenario(tmp_path, nonlinear_scenario())
    assert main(["solve-nonlinear", path]) == 0
    out = capsys.readouterr().out
    assert "monotonicity: verified" in out
    assert "continuation grid: 0 -> 0.5 -> 1" in out
    assert out.count("accepted") == 2
    assert "residual max:" in out


def test_solve_nonlinear_tags_unverified_assumptions_but_solves(tmp_path, capsys):
    # without the reduced margins the declared-weight inequality fails, which
    # tags the run without blocking it
    path = write_scenario(tmp_path, nonlinear_scenario(with_margins=False))
    assert main(["solve-nonlinear", path]) == 0
    assert "monotonicity: assumption-unverified" in capsys.readouterr().out


def test_check_monotone_verdicts(tmp_path, capsys):
    good = write_scenario(tmp_path, nonlinear_scenario(), "good.json")
    assert main(["check-monotone", good]) == 0
    assert "monotone condition holds" in capsys.readouterr().out

    violating = nonlinear_scenario(with_margins=False)
    violating["model"]["driver"] = ["-2*x1"]
    bad = write_scenario(tmp_path, violating, "bad.json")
    assert main(["check-monotone", bad]) == 3
    assert "VIOLATED" in capsys.readouterr().out


def test_compare_oracle_on_every_kind(tmp_path, capsys):
    for name, scenario in (
        ("b.json", bsde_scenario()),
        ("l.json", linear_scenario()),
        ("n.json", nonlinear_scenario()),
    ):
        path = write_scenario(tmp_path, scenario, name)
        assert main(["compare-oracle", path]) == 0
        out = capsys.readouterr().out
        assert "sup-difference" in out and ": ok" in out


def test_per_node_tables_match_the_library_solve(tmp_path):
    table = {
        "0": {"": [0.5]},
        "1": {"0": [1.0], "1": [-1.0]},
    }
    scenario = linear_scenario()
    scenario["model"]["D"] = {"table": table}
    path = write_scenario(tmp_path, scenario)
    out_dir = tmp_path / "out"
    assert main(["solve-linear", path, "--out", str(out_dir)]) == 0

    tree = rademacher_tree(2)
    offset = AdaptedProcess(
        tree,
        0,
        1,
        (np.array([[[0.5]]]), np.array([[[1.0]], [[-1.0]]])),
    )
    coeffs = LinearCoefficients.build(tree, 1, 1, G=[[1.0]], x0=[1.0], B=[[0.25]], D=offset, g=[0.25])
    sol = solve_linear(coeffs, tree)
    _, rows = read_csv(out_dir / "Y.csv")
    for row in rows:
        t, node = int(row[0]), tuple(int(k) for k in row[1].split(".") if row[1])
        assert float(row[2]) == sol.Y.value(t, node)[0, 0]


def test_terminal_node_table_for_backward_scenarios(tmp_path):
    scenario = bsde_scenario()
    scenario["model"]["n"] = 1
    scenario["model"]["driver"] = ["-0.5*y1"]
    leaves = [".".join(str(b) for b in bits) for bits in np.ndindex(2, 2, 2)]
    scenario["model"]["terminal"] = {leaf: [float(i)] for i, leaf in enumerate(leaves)}
    path = write_scenario(tmp_path, scenario)
    assert main(["solve-bsde", path]) == 0

    incomplete = dict(scenario)
    incomplete["model"] = dict(scenario["model"])
    incomplete["model"]["terminal"] = {leaves[0]: [1.0]}
    path2 = write_scenario(tmp_path, incomplete, "missing.json")
    assert main(["solve-bsde", path2]) == 3


def test_mixed_explicit_steps_and_shorthands(tmp_path):
    scenario = bsde_scenario()
    scenario["tree"] = {
        "steps": [
            {"points": [[-1.0], [1.0]], "probs": [0.5, 0.5]},
            "trinomial(0.25)",
        ]
    }
    path = write_scenario(tmp_path, scenario)
    assert main(["validate", path]) == 0

    scenario["tree"]["horizon"] = 5
    path2 = write_scenario(tmp_path, scenario, "mismatch.json")
    assert main(["validate", path2]) == 3


# -- failure exit codes ------------------------------------------------------------


def test_singular_construction_exits_2_with_the_pinned_message(tmp_path, capsys):
    scenario = {
        "schema_version": 1,
        "kind": "linear",
        "tree": {"horizon": 2, "step": "rademacher"},
        "model": {"m": 1, "n": 1, "G": [[1.0]], "x0": [0.0], "B": [[[0.0]], [[1.0]]]},
    }
    path = write_scenario(tmp_path, scenario)
    assert main(["solve-linear", path]) == 2
    assert "NotSolvable at t=1 (min singular value 0.0e0)" in capsys.readouterr().err


def test_validation_failures_exit_3(tmp_path):
    cases = []

    bad_version = bsde_scenario()
    bad_version["schema_version"] = 99
    cases.append(("validate", bad_version))

    unknown_key = bsde_scenario()
    unknown_key["extra"] = 1
    cases.append(("validate", unknown_key))

    bad_kind = bsde_scenario()
    bad_kind["kind"] = "mystery"
    cases.append(("validate", bad_kind))

    bad_probs = bsde_scenario()
    bad_probs["tree"] = {"horizon": 1, "step": {"points": [[-1.0], [1.0]], "probs": [0.6, 0.5]}}
    cases.append(("validate", bad_probs))

    bad_trinomial = bsde_scenario()
    bad_trinomial["tree"] = {"horizon": 1, "step": "trinomial(0.6)"}
    cases.append(("validate", bad_trinomial))

    wrong_terminal = bsde_scenario()
    wrong_terminal["model"]["terminal"] = [0.3]  # n = 2 components required
    cases.append(("solve-bsde", wrong_terminal))

    terminal_coupling = linear_scenario()
    terminal_coupling["model"]["Chat"] = [[[0.2]], [[0.3]]]  # nonzero at t = T
    cases.append(("solve-linear", terminal_coupling))

    negative_beta = nonlinear_scenario(with_margins=False)
    negative_beta["model"]["beta1"] = -1.0
    cases.append(("solve-nonlinear", negative_beta))

    kind_mismatch = bsde_scenario()
    cases.append(("solve-linear", kind_mismatch))

    for i, (command, scenario) in enumerate(cases):
        path = write_scenario(tmp_path, scenario, f"case{i}.json")
        assert main([command, path]) == 3, f"case {i} ({command})"


def test_bad_flag_values_exit_3(tmp_path):
    path = write_scenario(tmp_path, bsde_scenario())
    assert main(["solve-bsde", path, "--tol", "-1"]) == 3
    assert main(["solve-bsde", path, "--seed", "-4"]) == 3
    nl = write_scenario(tmp_path, nonlinear_scenario(), "nl.json")
    assert main(["solve-nonlinear", nl, "--delta-init", "7"]) == 3


def test_input_and_usage_problems_exit_4(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 4

    not_json = tmp_path / "broken.json"
    not_json.write_text("{not json")
    assert main(["validate", str(not_json)]) == 4

    syntax = bsde_scenario()
    syntax["model"]["driver"] = ["-0.5*y1 +", "y2"]
    path = write_scenario(tmp_path, syntax)
    assert main(["solve-bsde", path]) == 4

    out_of_scope = bsde_scenario()
    out_of_scope["model"]["driver"] = ["x1", "y2"]  # no forward variables here
    path2 = write_scenario(tmp_path, out_of_scope, "scope.json")
    assert main(["solve-bsde", path2]) == 4

    assert main(["solve-bsde"]) == 4  # missing scenario argument
    assert main(["explode", "x.json"]) == 4  # unknown command
    assert main(["solve-bsde", "x.json", "--tol", "abc"]) == 4


@pytest.mark.parametrize(
    "driver,terminal,named",
    [
        (["y1*y1 - y1*y1"], [1e200], "'y1*y1'"),  # NaN would follow the overflow
        (["(y1 - 5)^0.5"], [1.0], "'(y1 - 5.0)^0.5'"),  # no real value
    ],
)
def test_undefined_driver_values_exit_2_naming_the_subexpression(tmp_path, capsys, driver, terminal, named):
    scenario = bsde_scenario()
    scenario["model"].update(n=1, driver=driver, terminal=terminal)
    path = write_scenario(tmp_path, scenario)
    out = tmp_path / "out"
    assert main(["solve-bsde", path, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not (out / "summary.json").exists()
    assert main(["compare-oracle", path]) == 2


def test_overflowing_backward_sweep_exits_2_without_a_summary(tmp_path, capsys):
    scenario = bsde_scenario()
    scenario["model"].update(n=1, driver=["1e308"], terminal=[1e308])
    path = write_scenario(tmp_path, scenario)
    out = tmp_path / "out"
    assert main(["solve-bsde", path, "--out", str(out)]) == 2
    assert "is not finite" in capsys.readouterr().err
    assert not (out / "summary.json").exists()
    assert main(["compare-oracle", path]) == 2


@pytest.mark.parametrize("command", ["solve-linear", "compare-oracle"])
@pytest.mark.parametrize(
    "horizon,model,named",
    [
        (2, {"x0": [1e308], "A": [[1.0]], "D": [1e308]}, "X_1 is not finite at node (0,)"),  # (1 + A) x0 + D
        (1, {"x0": [1.5e308], "Dbar": [1e308]}, "X_1 is not finite at node (1,)"),  # one leaf; N_1 is NaN there
    ],
)
def test_overflowing_linear_sweep_exits_2_without_output(tmp_path, capsys, command, horizon, model, named):
    scenario = linear_scenario()
    scenario["tree"]["horizon"] = horizon
    scenario["model"] = {"m": 1, "n": 1, "G": [[1.0]], **model}
    out = tmp_path / "out"
    assert main([command, write_scenario(tmp_path, scenario), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "residual backward: 0" not in captured.out
    assert not out.exists()


def test_non_finite_summary_exits_2_without_writing_output(tmp_path, capsys):
    scenario = linear_scenario()
    scenario["tree"]["horizon"] = 1
    # the solution is finite (X_1 = +-1e308) but X_1 - X_0 overflows in the forward residual
    scenario["model"] = {"m": 1, "n": 1, "G": [[1.0]], "x0": [1e308], "A": [[-1.0]], "Dbar": [1e308]}
    out = tmp_path / "out"
    assert main(["solve-linear", write_scenario(tmp_path, scenario), "--out", str(out)]) == 2
    assert "summary.json not written" in capsys.readouterr().err
    assert not out.exists()


def test_compiled_nonlinear_scenario_matches_a_pointwise_eval_expr_model(tmp_path):
    scenario = nonlinear_scenario()
    loaded = load_scenario(write_scenario(tmp_path, scenario))
    compiled, tree = loaded.nonlinear, loaded.tree
    spec = scenario["model"]

    def per_node(key):
        exprs = [parse_expr(text, 1, 1) for text in spec[key]]
        return lambda t, x, y, z, node: np.array([eval_expr(e, t=t, x=x[:, 0], y=y[:, 0], z=z[:, 0]) for e in exprs])

    terminal = [parse_expr(text, 1, 0) for text in spec["terminal"]]
    reference = NonlinearModel.pointwise(
        1, 1, compiled.G, compiled.beta1, compiled.beta2, compiled.x0,
        b=per_node("drift"),
        sigma=per_node("noise_loading"),
        f=per_node("driver"),
        h=lambda x, node: np.array([eval_expr(e, t=tree.horizon, x=x[:, 0]) for e in terminal]),
    )
    ours, theirs = solve_continuation(compiled, tree), solve_continuation(reference, tree)
    assert solution_gap(ours.solution, theirs.solution) <= 1e-13
    oracles = [solve_global_newton(build_residual_system(tree, model)) for model in (compiled, reference)]
    assert solution_gap(oracles[0], oracles[1]) <= 1e-13
    for margins in ({"beta1": 0.25, "beta2": 0.25}, {}):
        mono = [check_monotone(model, tree, samples=500, seed=3, **margins) for model in (compiled, reference)]
        assert abs(mono[0].worst_coupling_slack - mono[1].worst_coupling_slack) <= 1e-13
        assert abs(mono[0].worst_terminal_slack - mono[1].worst_terminal_slack) <= 1e-13


# -- determinism --------------------------------------------------------------------


@pytest.mark.parametrize(
    "command,scenario_factory",
    [
        ("solve-linear", linear_scenario),
        ("solve-nonlinear", nonlinear_scenario),
        ("compare-oracle", bsde_scenario),
    ],
)
def test_reruns_are_byte_identical(tmp_path, capsys, command, scenario_factory):
    path = write_scenario(tmp_path, scenario_factory())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([command, path, "--out", str(out_a)]) == 0
    first = capsys.readouterr().out
    assert main([command, path, "--out", str(out_b)]) == 0
    second = capsys.readouterr().out
    assert first == second
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
