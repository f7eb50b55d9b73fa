"""Self-test of the benchmark's output checks: they pass real solutions and
catch tampered ones.

    python3 perfbench/selftest.py

Solves small instances of each workload's kind with fbsdelta, confirms that
the independent checks accept the results, then perturbs one node of one
process (or writes NaN there, or edits one CSV value or one byte of a rerun)
and confirms the checks reject every tampered copy.  Exits 0 when all of
that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import run  # sets the BLAS thread count before NumPy loads

run._import_program()

import numpy as np  # noqa: E402

import checks as ck  # noqa: E402
import workloads as wl  # noqa: E402
import fbsdelta as fd  # noqa: E402
import fbsdelta.cli  # noqa: E402,F401


def _tampered(sol: dict, name: str, t: int, node: int, value=None) -> dict:
    out = {key: [np.array(slab, copy=True) for slab in slabs] for key, slabs in sol.items()}
    slab = out[name][t]
    slab.reshape(slab.shape[0], -1)[node, 0] = np.nan if value is None else slab.reshape(slab.shape[0], -1)[node, 0] + value
    return out


class Tally:
    def __init__(self):
        self.failures = []

    def expect(self, label: str, problems: list, clean: bool) -> None:
        good = (not problems) if clean else bool(problems)
        status = "ok" if good else "FAILED"
        detail = "accepted" if not problems else f"rejected: {problems[0]}"
        print(f"[{status}] {label}: {detail}")
        if not good:
            self.failures.append(label)


def _tamper_suite(tally: Tally, label: str, check, sol: dict, names) -> None:
    tally.expect(f"{label} clean", check(sol), clean=True)
    for name in names:
        t = len(sol[name]) // 2
        tally.expect(f"{label} {name}_{t} node 0 + 1e-6", check(_tampered(sol, name, t, 0, 1e-6)), clean=False)
    tally.expect(f"{label} Y_1 node 1 = NaN", check(_tampered(sol, "Y", 1, 1)), clean=False)


def main() -> int:
    tally = Tally()
    rng = np.random.default_rng(7)

    for kind, horizon, n in (("rademacher", 5, 2), ("four-point-d2", 3, 2), ("trinomial", 4, 1)):
        case = wl.bsde_case(rng, kind, horizon, n)
        parsed = fd.cli.parse_scenario(case["scenario"])
        gen, eta = parsed.bsde
        sol = wl._solution(fd.solve_bsde(parsed.tree, gen, eta))
        _tamper_suite(tally, f"bsde {kind}", lambda s, c=case: wl._bsde_check(c, s), sol, ("Y", "Z", "N"))

    case = wl.linear_case(rng, 2, 2, 5)
    tree = wl._program_tree(case["spec"])
    sol = wl._solution(fd.solve_linear(wl._program_linear(case, tree), tree))
    _tamper_suite(tally, "linear", lambda s: wl._linear_check(case, s), sol, ("X", "Y", "Z", "N"))

    mild = wl.MildModel(rng, rng, 2)
    spec = wl._rademacher_spec(3)
    tree = wl._program_tree(spec)
    sol = wl._solution(fd.solve_continuation(mild.program_model(), tree).solution)
    _tamper_suite(tally, "nonlinear", lambda s: ck.nonlinear_problems(spec, mild, **s), sol, ("X", "Y", "Z"))
    tally.expect("oracle agreement, shifted copy", ck.agreement_problems("oracle", sol, _tampered(sol, "Y", 2, 0, 1e-5)), clean=False)

    workdir = os.path.join(run.RUNS_DIR, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        case = wl.bsde_case(rng, "four-point-d1", 3, 1)
        path = os.path.join(workdir, "bsde.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(case["scenario"], handle)
        outs = [os.path.join(workdir, name) for name in ("first", "second")]
        for out in outs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = fd.cli.main(["solve-bsde", path, "--out", out])
            tally.expect(f"cli solve-bsde exit code {code}", [] if code == 0 else ["nonzero exit"], clean=True)
        tally.expect("cli tables clean", wl._tables_problems("bsde", case, outs[0]), clean=True)
        tally.expect("cli summary clean", ck.summary_problems(outs[0]), clean=True)
        tally.expect("cli rerun byte-identical", wl.rerun_problems(outs[0], outs[1]), clean=True)
        y_csv = os.path.join(outs[1], "Y.csv")
        with open(y_csv, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        fields = lines[3].split(",")
        fields[-1] = repr(float(fields[-1]) + 1e-6)
        lines[3] = ",".join(fields)
        with open(y_csv, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        tally.expect("cli Y.csv one value + 1e-6", wl._tables_problems("bsde", case, outs[1]), clean=False)
        tally.expect("cli rerun with the edited Y.csv", wl.rerun_problems(outs[0], outs[1]), clean=False)
        with open(os.path.join(outs[1], "summary.json"), "w", encoding="utf-8") as handle:
            handle.write('{"ok": true, "sup_N": NaN}\n')
        tally.expect("cli summary with NaN", ck.summary_problems(outs[1]), clean=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        run._remove_if_empty(run.RUNS_DIR, run.OUT_DIR)

    if tally.failures:
        print(f"self-test FAILED: {', '.join(tally.failures)}")
        return 1
    print("self-test passed: every clean output accepted, every tampered one rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
