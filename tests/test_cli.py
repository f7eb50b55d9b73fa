"""Exit-code contract, output tables, and byte-identical reruns."""

import copy
import functools
import json
import operator
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from fbsdelta import cli
from fbsdelta.cli import (
    ScenarioError,
    _node_labels,
    _parse_tree,
    _process_csv,
    _slab_from_table,
    load_scenario,
    main,
)
from fbsdelta.filtration import NODE_BUDGET
from fbsdelta.linear_fbsde import MATRICES, TABLE_BUDGET
from fbsdelta.model_dsl import NESTING_LIMIT
from fbsdelta.oracle import BLOCK_BUDGET
from helpers import NESTINGS, long_sum, random_increments, rademacher_tree, reference_process_csv


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


STAGE_LINE = r"  stage alpha \S+ -> \S+: delta \S+, \d+ iterations, distance \S+, (accepted|rejected)"


def test_solve_nonlinear_reports_each_attempt_and_its_distances(tmp_path, capsys):
    path = write_scenario(tmp_path, nonlinear_scenario())
    out_dir = tmp_path / "out"
    assert main(["solve-nonlinear", path, "--out", str(out_dir)]) == 0
    stage_lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  stage ")]
    assert stage_lines and all(re.fullmatch(STAGE_LINE, line) for line in stage_lines)
    stages = json.loads((out_dir / "summary.json").read_text())["trace"]["stages"]
    assert len(stages) == len(stage_lines)
    for stage in stages:
        assert set(stage) == {"alpha_from", "alpha_to", "delta", "accepted", "distances", "iterations", "distance"}
        assert len(stage["distances"]) == stage["iterations"]
        assert stage["distances"][-1] == stage["distance"]


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


def test_overflowing_monotonicity_slack_fails_the_check(tmp_path, capsys):
    scenario = nonlinear_scenario()
    scenario["tree"]["horizon"] = 1
    scenario["model"].update(drift=["1e307*y1"], noise_loading=["-1e307*z1"], driver=["2*x1"], terminal=["x1"])
    scenario["solver"] = {"samples": 20, "monotone_beta1": 0.0, "monotone_beta2": 0.0}
    path = write_scenario(tmp_path, scenario)
    assert main(["check-monotone", path]) == 3
    out = capsys.readouterr().out
    assert "worst coupling slack: inf" in out and "VIOLATED" in out
    out_dir = tmp_path / "out"
    assert main(["check-monotone", path, "--out", str(out_dir)]) == 2
    assert "summary.json not written" in capsys.readouterr().err
    assert not out_dir.exists()
    assert main(["solve-nonlinear", path]) == 2  # the model overflows in the continuation
    assert "monotonicity: assumption-unverified" in capsys.readouterr().out


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
        assert float(row[2]) == sol.Y.at(t)[tree.nodes(t).index(node), 0, 0]


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


def test_tol_moves_only_the_documented_threshold_of_each_command(tmp_path, capsys):
    # solve-linear: --tol is the singularity cutoff; the residual bound stays 1e-10
    out = tmp_path / "linear"
    assert main(["solve-linear", write_scenario(tmp_path, linear_scenario()), "--tol", "1e-17", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert 1e-17 < summary["residuals"]["max"] <= 1e-10 and summary["ok"] is True
    # compare-oracle: --tol is the difference threshold, not the continuation reference's validation_tol
    capsys.readouterr()
    nonlinear = write_scenario(tmp_path, nonlinear_scenario(), "nonlinear.json")
    assert main(["compare-oracle", nonlinear, "--tol", "1e-15"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    assert re.search(r"^sup-difference \S+ against threshold 1e-15: FAILED$", captured.out, re.MULTILINE)


def test_bad_flag_values_exit_3(tmp_path, capsys):
    path = write_scenario(tmp_path, bsde_scenario())
    linear = write_scenario(tmp_path, linear_scenario(), "linear.json")
    coarse = nonlinear_scenario()
    coarse["solver"]["picard_tol"] = 1e-3  # leaves a residual far above any small --tol
    nl = write_scenario(tmp_path, coarse, "nl.json")
    assert main(["solve-nonlinear", nl, "--tol", "1e-8"]) == 2
    capsys.readouterr()
    cases = [
        (["solve-bsde", path, "--tol", "-1"], "--tol must be positive"),
        (["solve-bsde", path, "--seed", "-4"], "--seed must be nonnegative"),
        (["solve-nonlinear", nl, "--delta-init", "7"], "need 0 < delta_min <= delta_init <= 1"),
        (["solve-nonlinear", nl, "--delta-init", "0"], "--delta-init must be positive"),
        (["solve-nonlinear", nl, "--delta-init", "nan"], "--delta-init must be finite"),
        # the flags obey the same rules as the solver keys: a NaN or infinite
        # tolerance would certify any residual, or call a solvable system singular
        (["solve-nonlinear", nl, "--tol", "nan"], "--tol must be finite"),
        (["solve-nonlinear", nl, "--tol", "inf"], "--tol must be finite"),
        (["solve-linear", linear, "--tol", "nan"], "--tol must be finite"),
        (["check-monotone", nl, "--tol", "1e999"], "--tol must be finite"),
    ]
    for argv, message in cases:
        assert main(argv) == 3, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv


# one step with d = 2: zero mean, identity covariance
SQRT2 = float(np.sqrt(2.0))
PLANE_STEP = {"points": [[SQRT2, 0.0], [-SQRT2, 0.0], [0.0, SQRT2], [0.0, -SQRT2]], "probs": [0.25] * 4}


@pytest.mark.parametrize(
    "command, scenario_factory",
    [
        ("validate", nonlinear_scenario),
        ("check-monotone", nonlinear_scenario),
        ("solve-nonlinear", nonlinear_scenario),
        ("compare-oracle", nonlinear_scenario),
        ("solve-linear", linear_scenario),
    ],
)
def test_coupled_scenarios_on_a_two_dimensional_tree_exit_3(tmp_path, capsys, command, scenario_factory):
    # the coupled solvers are written for one noise dimension
    scenario = scenario_factory()
    scenario["tree"] = {"horizon": 2, "step": PLANE_STEP}
    out = tmp_path / "out"
    assert main([command, write_scenario(tmp_path, scenario), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: coupled systems require one-dimensional driving noise\n"
    assert captured.out == ""
    assert not out.exists()


def _mutated(factory, section, key, value):
    scenario = factory()
    scenario[section][key] = value
    return scenario


@pytest.mark.parametrize(
    "scenario, message",
    [
        (_mutated(bsde_scenario, "tree", "step", "trinomial(x)"), "tree.step: bad trinomial parameter 'x'"),
        (
            _mutated(bsde_scenario, "tree", "step", "coin"),
            "tree.step: unknown step shorthand 'coin' (use 'rademacher' or 'trinomial(p)')",
        ),
        (
            _mutated(bsde_scenario, "tree", "steps", ["rademacher"]),
            "tree takes either one repeated step or a steps list, not both",
        ),
        (bsde_scenario() | {"tree": {"steps": []}}, "tree.steps must be a non-empty list"),
        (_mutated(bsde_scenario, "tree", "horizon", 0), "tree.horizon must be at least 1"),
        (
            _mutated(linear_scenario, "model", "D", {"table": {"0": [0.5], "1": {"0": [0.5], "1": [0.5]}}}),
            "model.D.table['0'] must map node paths to component vectors",
        ),
        (
            _mutated(linear_scenario, "model", "D", {"expr": ["1"], "table": {}}),
            "model.D needs exactly one of 'expr' or 'table'",
        ),
        (
            _mutated(linear_scenario, "model", "D", {"expr": ["1.0/(t - 1.0)"]}),
            "model.D.expr failed at t=1: cannot evaluate '1.0/(t - 1.0)': float division by zero",
        ),
        (_mutated(linear_scenario, "model", "D", {"table": []}), "model.D.table must map times to node tables"),
        (
            _mutated(linear_scenario, "model", "D", {"table": {"0": {"": [0.5]}}}),
            "model.D.table must have exactly the time keys ['0', '1']",
        ),
        (_mutated(linear_scenario, "model", "g", [0.25, 0.5]), "model.g must have 1 components"),
        (_mutated(bsde_scenario, "model", "n", 0), "model.n must be at least 1"),
        (_mutated(bsde_scenario, "model", "d", 2), "model.d disagrees with the tree noise dimension 1"),
        (_mutated(linear_scenario, "model", "m", 0), "model.m and model.n must be at least 1"),
        (_mutated(nonlinear_scenario, "model", "n", 0), "model.m and model.n must be at least 1"),
        ([bsde_scenario()], "the top level of a scenario must be an object"),
        (_mutated(linear_scenario, "model", "x0", [0.1, 0.2]), "x0 must have shape (1, 1), got (2,)"),
        (_mutated(nonlinear_scenario, "model", "x0", [0.1, 0.2]), "x0 must have shape (1, 1), got (2,)"),
        (
            _mutated(bsde_scenario, "tree", "step", {"points": [[-1], [0], [1]], "probs": [0.5, 0.0, 0.5]}),
            "invalid increment step at t=0: probabilities_strictly_positive (residual 0.000e+00)",
        ),
        (bsde_scenario() | {"solver": [1]}, "solver must be an object"),
    ],
    ids=[
        "trinomial-parameter", "step-shorthand", "step-and-steps", "empty-steps", "horizon", "node-table",
        "expr-and-table", "expr-fault", "time-table", "time-keys", "offset-size", "bsde-n", "bsde-d",
        "linear-m", "nonlinear-n", "top-level", "linear-x0", "nonlinear-x0", "zero-probability", "solver-type",
    ],
)
def test_scenario_refusals_name_the_fault(tmp_path, capsys, scenario, message):
    assert main(["validate", write_scenario(tmp_path, scenario)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_one_parser_serves_every_command_of_a_process(tmp_path, capsys):
    path = write_scenario(tmp_path, bsde_scenario())
    assert main(["validate", path]) == 0
    first = capsys.readouterr()
    assert main(["bogus"]) == 4
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert main(["validate", path]) == 0
    assert capsys.readouterr() == first
    assert cli._build_parser() is cli._build_parser()


def test_input_and_usage_problems_exit_4(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 4

    not_json = tmp_path / "broken.json"
    not_json.write_text("{not json")
    assert main(["validate", str(not_json)]) == 4

    # Python refuses to read an integer literal of over 4300 digits
    too_long = tmp_path / "long.json"
    too_long.write_text(json.dumps(bsde_scenario()).replace('"horizon": 3', '"horizon": ' + "1" * 5000))
    assert main(["validate", str(too_long)]) == 4

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


def test_a_driver_of_20000_terms_solves(tmp_path, capsys):
    scenario = bsde_scenario()
    scenario["model"]["driver"] = [long_sum(20_000), "0.2*tanh(y2) - 0.1*z2"]
    assert main(["solve-bsde", write_scenario(tmp_path, scenario)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("kind", list(NESTINGS))
def test_nesting_deeper_than_the_limit_exits_4_naming_the_position(tmp_path, capsys, kind):
    nest, width = NESTINGS[kind]
    scenario = bsde_scenario()
    scenario["model"]["driver"] = ["y1", nest(3000)]
    assert main(["solve-bsde", write_scenario(tmp_path, scenario)]) == 4
    message = f"expression nested deeper than {NESTING_LIMIT} levels at position {width * NESTING_LIMIT}"
    assert capsys.readouterr().err == f"error: model.driver[1]: {message}\n"


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


def test_an_overflowing_compensator_exits_2_naming_its_node(tmp_path, capsys):
    scenario = bsde_scenario()
    scenario["tree"] = {"horizon": 1, "step": "trinomial(0.45)"}
    # Y_0 and Z_0 stay finite; N_1 = eta - Y_0 overflows at the middle leaf
    scenario["model"].update(n=1, driver=["0"], terminal={"0": [-1.7e308], "1": [1.7e308], "2": [-1.7e308]})
    path = write_scenario(tmp_path, scenario)
    out = tmp_path / "out"
    assert main(["solve-bsde", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "N_1 is not finite at node (1,)\n"
    assert not out.exists()


def test_oracle_line_search_refuses_an_overflowing_merit(tmp_path, capsys):
    # the squared residual overflows here; the line search must not accept
    # every trial as inf <= inf and take blind steps to the iteration limit
    scenario = bsde_scenario()
    scenario["model"]["terminal"] = [0.3, 1e308]
    path = write_scenario(tmp_path, scenario)
    assert main(["solve-bsde", path]) == 0
    capsys.readouterr()
    assert main(["compare-oracle", path]) == 2
    err = capsys.readouterr().err
    assert "line search could not reduce the residual below 1.000e+308" in err
    assert "no convergence" not in err


@pytest.mark.parametrize("command", ["solve-linear", "compare-oracle"])
@pytest.mark.parametrize(
    "horizon,model,named",
    [
        (2, {"x0": [1e308], "A": [[1.0]], "D": [1e308]}, "X_1 is not finite at node (0,)"),  # (1 + A) x0 + D
        (1, {"x0": [1.5e308], "Dbar": [1e308]}, "X_1 is not finite at node (1,)"),  # one leaf; N_1 is NaN there
        (2, {"x0": [1.0], "C": [[2.0]], "Abar": [[1e308]]}, "P_1 is not finite"),  # the Riccati recursion
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


@pytest.mark.parametrize("command", ["solve-nonlinear", "compare-oracle"])
def test_overflowing_anchor_recursion_exits_2_naming_the_matrix(tmp_path, capsys, command):
    scenario = nonlinear_scenario(with_margins=False)
    scenario["model"] = {"m": 1, "n": 1, "G": [[1e308]], "beta1": 1.0, "beta2": 1.0, "x0": [0.4]}
    assert main([command, write_scenario(tmp_path, scenario)]) == 2
    assert capsys.readouterr().err == "P_2 is not finite\n"


def test_an_overflowing_newton_merit_leaks_no_warning(tmp_path):
    # the sweep is finite, but the oracle's squared residual norm overflows
    scenario = bsde_scenario()
    scenario["model"]["terminal"] = [0.3, 1e308]
    path = write_scenario(tmp_path, scenario)
    assert main(["solve-bsde", path]) == 0
    assert main(["compare-oracle", path]) in (0, 2)


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


@pytest.mark.parametrize("command", ["solve-linear", "compare-oracle"])
def test_hat_matrices_take_the_one_by_one_shorthand(tmp_path, capsys, command):
    # as "A": 0.1 does for A, a scalar or a 1-D list stands for 1x1 matrices
    runs = []
    for name, hats in (
        ("short", {"Ahat": 0.2, "Bhat": [0.1, -0.1], "Chat": 0.3}),
        ("full", {"Ahat": [[0.2]], "Bhat": [[[0.1]], [[-0.1]]], "Chat": [[[0.3]], [[0.0]]]}),
    ):
        scenario = linear_scenario()
        scenario["model"].update(hats)
        out = tmp_path / name
        assert main([command, write_scenario(tmp_path, scenario), "--out", str(out)]) == 0
        runs.append((capsys.readouterr(), {p.name: p.read_bytes() for p in out.iterdir()}))
    assert runs[0] == runs[1]


# -- output layout --------------------------------------------------------------------

# a number and the padding after it, masked as "#" plus at most one space
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?|inf|nan)(?!\w)( ?) *")

_RESIDUAL_LINES = "".join(f"residual {key}: #\n" for key in ("equation", "terminal", "martingale", "orthogonality", "max"))
_COUPLED_RESIDUALS = ("forward", "backward", "initial", "terminal", "y_projection", "z_projection", "martingale", "orthogonality")
_COUPLED_RESIDUAL_LINES = "".join(f"residual {key}: #\n" for key in _COUPLED_RESIDUALS + ("max",))
_BASE_KEYS = {"command", "horizon", "kind", "noise_dimension", "schema_version"}
_RESIDUAL_KEYS = {"residuals", "residuals.max"} | {f"residuals.{key}" for key in _COUPLED_RESIDUALS}
_ORACLE_KEYS = _BASE_KEYS | {"ok", "sup_difference", "threshold", "gaps", "gaps.X", "gaps.Y", "gaps.Z", "gaps.N"} | {
    "newton", "newton.converged", "newton.equation_residual", "newton.iterations"
}
_ORACLE_COUPLED_LINES = (
    "oracle: # unknowns, # damped Newton iterations, equation residual #\n"
    + "".join(f"sup |{name}_solver - {name}_oracle| = #\n" for name in "XYZN")
    + "sup-difference # against threshold #: ok\n"
)

# (command, scenario, exit code, stdout with every number masked, --out files, summary.json key paths)
_LAYOUTS = [
    (
        "validate",
        bsde_scenario,
        0,
        "kind bsde, horizon #, noise dimension #\n" + "step #: branching #, ok\n" * 3
        + "payload: backward equation with n=#\nscenario OK\n",
        ["summary.json"],
        _BASE_KEYS | {"ok", "steps", "steps.[].branch_count", "steps.[].failures", "steps.[].ok", "steps.[].t"},
    ),
    (
        "solve-bsde",
        bsde_scenario,
        0,
        "solved backward equation: horizon #, # terminal nodes\n" + _RESIDUAL_LINES
        + "sup |N| = # (complete: the orthogonal part vanishes)\n",
        ["N.csv", "Y.csv", "Z.csv", "summary.json"],
        _BASE_KEYS | {"ok", "sup_N", "residuals"}
        | {f"residuals.{key}" for key in ("equation", "terminal", "martingale", "orthogonality", "max")},
    ),
    (
        "solve-linear",
        linear_scenario,
        0,
        "Gamma_t invertibility:\n  t  sigma_min        invertible\n" + "  # # yes\n" * 2
        + "decoupling sequence P_t (defined for t = #.T):\n" + "  P[#] = [[#]]\n" * 2 + _COUPLED_RESIDUAL_LINES,
        ["N.csv", "X.csv", "Y.csv", "Z.csv", "riccati.csv", "summary.json"],
        _BASE_KEYS | _RESIDUAL_KEYS | {"ok", "P", "P.[].matrix", "P.[].t"}
        | {"gamma", "gamma.[].invertible", "gamma.[].sigma_min", "gamma.[].t"},
    ),
    (
        "solve-nonlinear",
        nonlinear_scenario,
        0,
        "monotonicity: verified (worst coupling slack #, worst terminal slack #, # samples)\n"
        + "continuation grid: # -> # -> #\n"
        + "  stage alpha # -> #: delta #, # iterations, distance #, accepted\n" * 2
        + "inner linear solves: #\n" + _COUPLED_RESIDUAL_LINES,
        ["N.csv", "X.csv", "Y.csv", "Z.csv", "summary.json"],
        _BASE_KEYS | _RESIDUAL_KEYS
        | {f"monotone.{key}" for key in ("ok", "samples", "tag", "tol", "worst_coupling_slack", "worst_terminal_slack")}
        | {f"trace.{key}" for key in ("final_residual", "grid", "linear_solves", "stages")}
        | {f"trace.stages.[].{key}" for key in ("accepted", "alpha_from", "alpha_to", "delta", "distance", "distances")}
        | {"monotone", "trace", "trace.stages.[].iterations"},
    ),
    (
        "check-monotone",
        nonlinear_scenario,
        0,
        "samples: #, tolerance: #\nworst coupling slack: #\nworst terminal slack: #\nmonotone condition holds\n",
        ["summary.json"],
        _BASE_KEYS | {"ok", "samples", "tol", "worst_coupling_slack", "worst_terminal_slack"},
    ),
    (
        "compare-oracle",
        bsde_scenario,
        0,
        _ORACLE_COUPLED_LINES.replace("sup |X_solver - X_oracle| = #\n", ""),
        ["N.csv", "Y.csv", "Z.csv", "summary.json"],
        _ORACLE_KEYS,
    ),
    ("compare-oracle", linear_scenario, 0, _ORACLE_COUPLED_LINES, ["N.csv", "X.csv", "Y.csv", "Z.csv", "summary.json"], _ORACLE_KEYS),
    ("compare-oracle", nonlinear_scenario, 0, _ORACLE_COUPLED_LINES, ["N.csv", "X.csv", "Y.csv", "Z.csv", "summary.json"], _ORACLE_KEYS),
]


def _key_paths(node, prefix=""):
    """Every key path of a JSON document; the entries of a list share the step ``[]``."""
    if isinstance(node, list):
        return set().union(*(_key_paths(child, prefix + "[].") for child in node))
    if isinstance(node, dict):
        return set().union(*({prefix + key} | _key_paths(child, prefix + key + ".") for key, child in node.items()))
    return set()


@pytest.mark.parametrize(
    "command, scenario_factory, code, stdout, files, keys", _LAYOUTS, ids=[f"{c[0]}-{c[1].__name__}" for c in _LAYOUTS]
)
def test_each_command_keeps_its_output_layout(tmp_path, capsys, command, scenario_factory, code, stdout, files, keys):
    path = write_scenario(tmp_path, scenario_factory())
    out_dir = tmp_path / "out"
    assert main([command, path, "--out", str(out_dir)]) == code
    captured = capsys.readouterr()
    assert _NUMBER.sub(r"#\1", captured.out) == stdout
    assert captured.err == ""
    assert sorted(p.name for p in out_dir.iterdir()) == files
    assert _key_paths(json.loads((out_dir / "summary.json").read_text())) == keys


# -- node tables ----------------------------------------------------------------------


def _terminal_table(**changes):
    """A valid n = 2 terminal table on Rademacher T = 2, with entries replaced (or dropped on None)."""
    table = {leaf: [float(i), -float(i)] for i, leaf in enumerate(("0.0", "0.1", "1.0", "1.1"))}
    for leaf, entry in changes.items():
        if entry is None:
            del table[leaf]
        else:
            table[leaf] = entry
    return table


def _table_scenario(table):
    scenario = bsde_scenario()
    scenario["tree"]["horizon"] = 2
    scenario["model"]["terminal"] = table
    return scenario


@pytest.mark.parametrize(
    "table,message",
    [
        (
            _terminal_table(**{"2.0": [1.0, 1.0], "": [0.0, 0.0]}),
            "model.terminal has entries for unknown nodes: ['', '2.0']",
        ),
        (_terminal_table(**{"0.1": None, "1.1": None}), "model.terminal is missing nodes: ['0.1', '1.1']"),
        (_terminal_table(**{"1.0": [1.0], "0.1": [1.0, 2.0, 3.0]}), "model.terminal['0.1'] must have 2 components"),
        (
            _terminal_table(**{"0.1": ["a", 1.0], "1.1": "b"}),
            "model.terminal['0.1'] is not a numeric array: could not convert string to float: 'a'",
        ),
        (
            _terminal_table(**{"0.1": [[1.0], [2.0, 3.0]]}),
            "model.terminal['0.1'] is not a numeric array: setting an array element with a sequence. "
            "The requested array has an inhomogeneous shape after 1 dimensions. "
            "The detected shape was (2,) + inhomogeneous part.",
        ),
        (_terminal_table(**{"1.0": [], "1.1": []}), "model.terminal['1.0'] must not be empty"),
        (_terminal_table(**{"1.0": [float("nan"), 1.0]}), "model.terminal['1.0'] must be finite"),
    ],
    ids=["unknown", "missing", "wrong-size", "non-numeric", "ragged", "empty", "nan"],
)
def test_node_table_faults_exit_3_with_the_pinned_message(tmp_path, capsys, table, message):
    path = write_scenario(tmp_path, _table_scenario(table))
    assert main(["solve-bsde", path]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def _text_in_points(s):
    s["tree"] = {"horizon": 2, "step": {"points": [["-1"], [True]], "probs": ["0.5", 0.5]}}


def _text_in_probs(s):
    s["tree"]["step"] = {"points": [[-1.0], [1.0]], "probs": ["0.5", 0.5]}


def _bool_in_terminal(s):
    s["model"]["terminal"] = [True, 0.5]


def _bool_in_terminal_table(s):
    s["tree"]["horizon"] = 2
    s["model"]["terminal"] = _terminal_table(**{"0.1": [True, 1.5]})


def _text_in_terminal_table(s):
    s["tree"]["horizon"] = 2
    s["model"]["terminal"] = _terminal_table(**{"1.0": ["1.5", "-2"]})


def _null_in_terminal(s):
    s["model"]["terminal"] = [None, 0.5]


def _null_in_terminal_table(s):
    s["tree"]["horizon"] = 2
    s["model"]["terminal"] = _terminal_table(**{"1.1": [0.5, None]})


def _bool_in_linear_x0(s):
    s.update(linear_scenario())
    s["model"]["x0"] = [False]


@pytest.mark.parametrize(
    "mutate,message",
    [
        (_text_in_points, 'tree.step.points is not a numeric array: "-1" must be a number'),
        (_text_in_probs, 'tree.step.probs is not a numeric array: "0.5" must be a number'),
        (_bool_in_terminal, "model.terminal is not a numeric array: true must be a number"),
        (_bool_in_terminal_table, "model.terminal['0.1'] is not a numeric array: true must be a number"),
        (_text_in_terminal_table, "model.terminal['1.0'] is not a numeric array: \"1.5\" must be a number"),
        (_null_in_terminal, "model.terminal is not a numeric array: null must be a number"),
        (_null_in_terminal_table, "model.terminal['1.1'] is not a numeric array: null must be a number"),
        (_bool_in_linear_x0, "model.x0 is not a numeric array: false must be a number"),
    ],
    ids=[
        "points", "probs", "terminal", "terminal-table-bool", "terminal-table-text",
        "terminal-null", "terminal-table-null", "linear-x0",
    ],
)
def test_json_strings_and_booleans_are_not_numbers(tmp_path, capsys, mutate, message):
    scenario = bsde_scenario()
    mutate(scenario)
    assert main(["validate", write_scenario(tmp_path, scenario)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_node_table_fault_in_an_offset_table_names_the_time(tmp_path, capsys):
    scenario = linear_scenario()
    scenario["model"]["D"] = {"table": {"0": {"": [0.5]}, "1": {"0": [1.0], "1": [float("inf")]}}}
    assert main(["solve-linear", write_scenario(tmp_path, scenario)]) == 3
    assert capsys.readouterr().err == "error: model.D.table['1']['1'] must be finite\n"


def test_node_table_entries_may_differ_in_nesting(tmp_path):
    flat = write_scenario(tmp_path, _table_scenario(_terminal_table()), "flat.json")
    nested = write_scenario(tmp_path, _table_scenario(_terminal_table(**{"1.0": [[2.0], [-2.0]]})), "nested.json")
    for path, out in ((flat, "a"), (nested, "b")):
        assert main(["solve-bsde", path, "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "a" / "Y.csv").read_bytes() == (tmp_path / "b" / "Y.csv").read_bytes()


_HUGE = 10**400  # a JSON integer literal with no float value


def _huge_in_terminal(s):
    s["model"]["terminal"] = [_HUGE, 0.0]


def _huge_in_terminal_table(s):
    s["tree"]["horizon"] = 2
    s["model"]["terminal"] = _terminal_table(**{"0.1": [1.0, _HUGE]})


def _huge_in_probs(s):
    s["tree"] = {"horizon": 1, "step": {"points": [[-1.0], [1.0]], "probs": [_HUGE, 0.5]}}


def _huge_in_beta1(s):
    s.update(nonlinear_scenario())
    s["model"]["beta1"] = _HUGE


def _huge_in_tol(s):
    s["solver"] = {"tol": _HUGE}


@pytest.mark.parametrize(
    "mutate,message",
    [
        (_huge_in_terminal, "model.terminal is not a numeric array"),
        (_huge_in_terminal_table, "model.terminal['0.1'] is not a numeric array"),
        (_huge_in_probs, "tree.step.probs is not a numeric array"),
        (_huge_in_beta1, "model.beta1 must be finite"),
        (_huge_in_tol, "solver.tol must be finite"),
    ],
    ids=["terminal", "terminal-table", "probs", "beta1", "tol"],
)
def test_integer_too_large_for_a_float_exits_3(tmp_path, capsys, mutate, message):
    scenario = bsde_scenario()
    mutate(scenario)
    assert main(["validate", write_scenario(tmp_path, scenario)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {message}")


# -- size budgets ----------------------------------------------------------------------


def _peak_traced_bytes(run):
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "step, horizon, message",
    [
        ("rademacher", 60, "2^60 nodes at its horizon"),
        ("rademacher", 2000, "2^2000 nodes at its horizon"),
        ("rademacher", _HUGE, f"2^{_HUGE} nodes at its horizon"),
        ("trinomial(0.25)", 14, "3^14 nodes at its horizon"),
        ({"points": [[0.0]], "probs": [1.0]}, _HUGE, f"{_HUGE + 1} time layers"),
    ],
    ids=["2^60", "2^2000", "2^10**400", "3^14", "one-outcome-10**400"],
)
def test_oversized_trees_exit_3_before_anything_of_their_size_is_built(tmp_path, capsys, step, horizon, message):
    scenario = bsde_scenario()
    scenario["tree"] = {"horizon": horizon, "step": step}
    path = write_scenario(tmp_path, scenario)
    for command in ("validate", "solve-bsde"):
        code, peak = _peak_traced_bytes(lambda: main([command, path]))
        assert code == 3
        assert capsys.readouterr().err == f"error: the tree would have {message}, over the node budget of {NODE_BUDGET}\n"
        assert peak < 2**20


def test_compare_oracle_refuses_a_system_past_the_block_budget_before_solving(tmp_path, capsys):
    # within the node budget, but 2 * (2^18 - 1) + 2 * (2^17 - 1) = 786,428
    # unknowns, whose Jacobian would hold more than BLOCK_BUDGET floats
    scenario = bsde_scenario()
    scenario["tree"]["horizon"] = 17
    path = write_scenario(tmp_path, scenario)
    out = tmp_path / "out"
    code, peak = _peak_traced_bytes(lambda: main(["compare-oracle", path, "--out", str(out)]))
    assert code == 2
    err = capsys.readouterr().err
    assert err == (
        "the oracle's Jacobian for 786428 unknowns would hold 21495664 floats (1.720e+08 bytes), "
        f"over the budget of {BLOCK_BUDGET}\n"
    )
    assert not out.exists()
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "factory, m", [(linear_scenario, 2100), (linear_scenario, 10**6), (nonlinear_scenario, 10**6)],
    ids=["linear-just-over", "linear-10**6", "nonlinear-10**6"],
)
def test_oversized_coefficient_tables_exit_3_before_they_are_built(tmp_path, capsys, factory, m):
    scenario = factory()
    scenario["model"]["m"] = m  # G, x0 and the expression lists keep one column
    path = write_scenario(tmp_path, scenario)
    code, peak = _peak_traced_bytes(lambda: main(["validate", path]))
    assert code == 3
    entries = 4 * m**2 + 17 * m + 16  # horizon 2, n = 1: A and Abar are two m x m matrices each
    expected = f"the coefficient table for m={m}, n=1 would have {entries} entries, over the budget of {TABLE_BUDGET}"
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert peak < 2**20


def test_the_node_budget_admits_rademacher_horizon_21_and_checks_step_lists():
    assert _parse_tree({"horizon": 20, "step": "rademacher"}).node_count(20) == 2**20
    assert _parse_tree({"horizon": 21, "step": "rademacher"}).node_count(21) == NODE_BUDGET
    with pytest.raises(ScenarioError, match=r"^the tree would have 2\^3 \* 3\^13 nodes at its horizon"):
        _parse_tree({"steps": ["rademacher"] * 3 + ["trinomial(0.25)"] * 13})


@pytest.mark.parametrize("samples", [_HUGE, 10**5 + 1])
def test_oversized_sample_counts_exit_3_before_sampling(tmp_path, capsys, monkeypatch, samples):
    def refuse(*args, **kwargs):
        raise AssertionError("check_monotone ran")

    monkeypatch.setattr(cli, "check_monotone", refuse)
    scenario = nonlinear_scenario()
    scenario["solver"]["samples"] = samples
    path = write_scenario(tmp_path, scenario)
    for command in ("check-monotone", "solve-nonlinear"):
        assert main([command, path]) == 3
        assert capsys.readouterr().err == f"error: solver.samples is {samples}, over its budget of 100000\n"
    scenario["solver"]["samples"] = 10**5
    assert load_scenario(write_scenario(tmp_path, scenario)).solver.samples == 10**5


_SPECIALS = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 2.0**53, -7.0])


@st.composite
def processes_on_mixed_trees(draw):
    """A process with awkward values on a tree whose steps differ in branching."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # one noise dimension: 2, 3 and 4 outcomes
        choices = st.sampled_from(("rademacher", "trinomial", "four-point"))
        d = 1
    else:  # two noise dimensions: 3 and 4 outcomes
        choices = st.sampled_from(("three-point", "four-point"))
        d = 2
    steps = []
    for kind in draw(st.lists(choices, min_size=1, max_size=4)):
        if kind == "rademacher":
            steps.append(kind)
        elif kind == "trinomial":
            steps.append(f"trinomial({rng.uniform(0.05, 0.45)!r})")
        else:
            step = random_increments(rng, 4 if kind == "four-point" else 3, d)
            steps.append({"points": step.points.tolist(), "probs": step.probs.tolist()})
    tree = _parse_tree({"steps": steps})
    t_lo = draw(st.integers(0, tree.horizon))
    t_hi = draw(st.integers(t_lo, tree.horizon))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    extra = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4))
    slabs = []
    for t in range(t_lo, t_hi + 1):
        size = tree.node_count(t) * shape[0] * shape[1]
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size)
        kind = rng.integers(0, 3, size)
        values[kind == 1] = rng.choice(_SPECIALS, int((kind == 1).sum()))
        values[kind == 2] = rng.integers(-(10**6), 10**6, int((kind == 2).sum()))
        if t == t_lo:
            values[: len(extra)] = extra[:size]
        slabs.append(values.reshape((tree.node_count(t),) + shape))
    return tree, AdaptedProcess(tree, t_lo, t_hi, tuple(slabs))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=processes_on_mixed_trees())
def test_csv_tables_match_the_per_node_writer_and_parse_back_bit_for_bit(case):
    tree, proc = case
    labels = _node_labels(tree, tree.horizon)
    text = _process_csv(proc, "y", labels)
    assert text == reference_process_csv(tree, proc, "y")
    width = proc.shape[0] * proc.shape[1]
    tables = {t: {} for t in range(proc.t_lo, proc.t_hi + 1)}
    for line in text.splitlines()[1:]:
        t, node, *values = line.split(",")
        tables[int(t)][node] = [float(v) for v in values]
    for t, table in tables.items():
        slab = _slab_from_table(labels[t], json.loads(json.dumps(table)), width, "table")
        assert slab.tobytes() == proc.at(t).reshape(-1, width, 1).tobytes()


# -- scenario fuzz --------------------------------------------------------------------


def _mixed_steps_scenario():
    scenario = bsde_scenario()
    scenario["tree"] = {"steps": ["trinomial(0.25)", {"points": [[-1.0], [1.0]], "probs": [0.5, 0.5]}]}
    return scenario


def _full_linear_scenario():
    scenario = linear_scenario()
    scenario["model"].update({key: [[0.1 * (i + 1)]] for i, key in enumerate(MATRICES)})
    scenario["model"]["Chat"] = [[[0.2]], [[0.0]]]  # Chat_T = 0
    return scenario


_FUZZ_BASES = (
    bsde_scenario,
    linear_scenario,
    _full_linear_scenario,
    nonlinear_scenario,
    lambda: _table_scenario(_terminal_table()),
    _mixed_steps_scenario,
)
_LONG_SUM = " + ".join(["0.5*t"] * 600)
# Nested far past the parser's limit: Hypothesis raises the recursion limit while a test runs,
# so a few hundred levels would not reach it in a parser without that limit.
_DEEP = "(" * 3000 + "t" + ")" * 3000
# Every integer here is at most 4, so no mutant can ask for a large tree, dimension or sample count.
_FUZZ_VALUES = (
    None, True, False, 0, -1, 2, 4, 0.5, 1e308, -1e308, "text", "rademacher", "trinomial(0.3)",
    "1 +", "x1", "log(0 - 1)", "1/0", "exp(1000)", [], {}, [1e308], [[1e308]], ["y1"], {"expr": ["1/t"]}, {"0": [1.0]},
    _LONG_SUM, _DEEP, [_LONG_SUM], [_DEEP],
)
_DROP = object()
_FUZZ_COMMANDS = ("validate", "solve-bsde", "solve-linear", "solve-nonlinear", "check-monotone", "compare-oracle")
_FUZZ_FLAGS = ((), ("--tol", "nan"), ("--tol", "1e-3"), ("--seed", "3"), ("--delta-init", "0.25"))


def _json_paths(node, prefix=()):
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


@st.composite
def mutated_scenarios(draw):
    """One of the small scenarios above with one or two entries replaced or dropped."""
    scenario = draw(st.sampled_from(_FUZZ_BASES))()
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_json_paths(scenario))
        if not paths:
            break
        *where, key = draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, where, scenario)
        value = draw(st.sampled_from(_FUZZ_VALUES + (_DROP,)))
        if value is _DROP:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(value)
    return scenario


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(scenario=mutated_scenarios(), flags=st.sampled_from(_FUZZ_FLAGS))
def test_mutated_scenarios_exit_with_a_documented_code(scenario, flags):
    # an exception escaping main, a leaked warning included, fails the test
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        for command in _FUZZ_COMMANDS:
            assert main([command, str(path), "--out", str(Path(tmp) / command), *flags]) in (0, 2, 3, 4), command
