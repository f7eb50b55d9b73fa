"""Check that two checkouts give the same command-line output.

    python3 tools/cli_audit.py PARENT_CHECKOUT CHANGE_CHECKOUT

For each of seeds 1, 2 and 3, ``perfbench/inputs.py`` of PARENT_CHECKOUT writes the
cli-scenarios workload's scenario files and command lines.  Every command
line then runs as ``python -m fbsdelta.cli ...`` once under each checkout's
``src/``, from a copy of those inputs of its own, with BLAS on one thread.
The audit compares stdout, stderr, the exit code and every file of the
``--out`` tree, byte for byte.  It prints the first difference and exits 1,
or prints how many runs matched and exits 0.  Everything it writes goes to a
temporary directory that it deletes at the end.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

SEEDS = (1, 2, 3)
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _write_inputs(checkout: str, seed: int, out: str) -> list[tuple[str, list[str]]]:
    """(operation, argv) of every cli-scenarios operation, inputs under ``out``."""
    script = os.path.join(checkout, "perfbench", "inputs.py")
    cmd = [sys.executable, script, "--workload", "cli-scenarios", "--seed", str(seed), "--out", out]
    subprocess.run(cmd, check=True, capture_output=True, cwd=checkout, env=os.environ | ONE_THREAD)
    ops = []
    for name in sorted(os.listdir(out)):
        if name.endswith(".json"):
            with open(os.path.join(out, name), encoding="utf-8") as handle:
                ops.append((name[: -len(".json")], json.load(handle)["argv"]))
    return ops


def _run(checkout: str, argv: list[str], cwd: str) -> tuple[int, str, str]:
    env = os.environ | ONE_THREAD | {"PYTHONPATH": os.path.join(checkout, "src")}
    cmd = [sys.executable, "-m", "fbsdelta.cli", *argv]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, env=env)
    return done.returncode, done.stdout, done.stderr


def _tree_difference(first: str, second: str) -> str | None:
    """The first file that differs between two directory trees, or None."""
    listings = []
    for root in (first, second):
        files = set()
        for here, _, names in os.walk(root):
            files.update(os.path.relpath(os.path.join(here, name), root) for name in names)
        listings.append(files)
    if listings[0] != listings[1]:
        return f"file sets differ: {sorted(listings[0] ^ listings[1])[:5]}"
    for rel in sorted(listings[0]):
        if not filecmp.cmp(os.path.join(first, rel), os.path.join(second, rel), shallow=False):
            return f"{rel} differs"
    return None


def _first_line_difference(a: str, b: str) -> str:
    for i, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if la != lb:
            return f"line {i}: {la!r} vs {lb!r}"
    return f"line counts {len(a.splitlines())} vs {len(b.splitlines())}"


def audit(parent: str, change: str, seeds: tuple[int, ...], work: str) -> str | None:
    """The first difference between the two checkouts, or None; prints progress."""
    runs = 0
    for seed in seeds:
        seed_dir = os.path.join(work, f"seed-{seed}")
        inputs = os.path.join(seed_dir, "inputs")
        ops = _write_inputs(parent, seed, inputs)
        # (checkout, directory its commands run in), parent first
        sides = [(parent, os.path.join(seed_dir, "parent")), (change, os.path.join(seed_dir, "change"))]
        for _, run_dir in sides:
            shutil.copytree(inputs, run_dir)
        for name, argv in ops:
            (code_a, out_a, err_a), (code_b, out_b, err_b) = (_run(side, argv, run_dir) for side, run_dir in sides)
            where = f"seed {seed}, {name} ({' '.join(argv)})"
            if code_a != code_b:
                return f"{where}: exit code {code_a} vs {code_b}"
            for stream, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
                if a != b:
                    return f"{where}: {stream} {_first_line_difference(a, b)}"
            out_dir = argv[argv.index("--out") + 1] if "--out" in argv else None
            if out_dir is not None:
                problem = _tree_difference(*(os.path.join(run_dir, out_dir) for _, run_dir in sides))
                if problem:
                    return f"{where}: --out {problem}"
            runs += 1
            print(f"seed {seed}: {name} identical (exit {code_a})")
    print(f"{runs} runs identical: stdout, stderr, exit codes and --out trees")
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="root of the checkout to compare against")
    parser.add_argument("change", help="root of the checkout under audit")
    args = parser.parse_args(argv)
    parent, change = (os.path.abspath(path) for path in (args.parent, args.change))
    with tempfile.TemporaryDirectory(prefix="cli-audit-") as work:
        difference = audit(parent, change, SEEDS, work)
    if difference is not None:
        print(f"DIFFERENCE: {difference}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
