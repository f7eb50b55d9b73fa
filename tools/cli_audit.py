"""Check that two checkouts give the same command-line output.

    python3 tools/cli_audit.py PARENT_CHECKOUT CHANGE_CHECKOUT

For each of seeds 1, 2 and 3, ``perfbench/inputs.py`` of PARENT_CHECKOUT writes the
cli-scenarios workload's scenario files and command lines.  Every command
line then runs as ``python -m fbsdelta.cli ...`` once under each checkout's
``src/``, from a copy of those inputs of its own, with BLAS on one thread.
The audit compares stdout, stderr, the exit code and every file of the
``--out`` tree, byte for byte.  It prints every run that differs, with each
part that differs (the first differing line of a stream, every differing
file of the tree), then how many runs matched; it exits 1 when any run
differs and 0 otherwise.  Everything it writes goes to a temporary
directory that it deletes at the end.
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
    """The files that differ between two directory trees, or None."""
    listings = []
    for root in (first, second):
        files = set()
        for here, _, names in os.walk(root):
            files.update(os.path.relpath(os.path.join(here, name), root) for name in names)
        listings.append(files)
    if listings[0] != listings[1]:
        return f"file sets differ: {sorted(listings[0] ^ listings[1])[:5]}"
    differ = [
        rel
        for rel in sorted(listings[0])
        if not filecmp.cmp(os.path.join(first, rel), os.path.join(second, rel), shallow=False)
    ]
    return f"{', '.join(differ)} differ" if differ else None


def _first_line_difference(a: str, b: str) -> str:
    for i, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if la != lb:
            return f"line {i}: {la!r} vs {lb!r}"
    return f"line counts {len(a.splitlines())} vs {len(b.splitlines())}"


def _differences(sides: list, argv: list[str]) -> tuple[int, list[str]]:
    """The parent's exit code and what differs between the two checkouts'
    runs of ``argv``: the exit code, stdout and stderr (each with its first
    differing line) and the files of the ``--out`` tree."""
    (code_a, out_a, err_a), (code_b, out_b, err_b) = (_run(side, argv, run_dir) for side, run_dir in sides)
    found = [f"exit code {code_a} vs {code_b}"] if code_a != code_b else []
    for stream, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
        if a != b:
            found.append(f"{stream} {_first_line_difference(a, b)}")
    if "--out" in argv:
        out_dir = argv[argv.index("--out") + 1]
        problem = _tree_difference(*(os.path.join(run_dir, out_dir) for _, run_dir in sides))
        if problem:
            found.append(f"--out {problem}")
    return code_a, found


def audit(parent: str, change: str, seeds: tuple[int, ...], work: str) -> int:
    """The number of runs that differ between the two checkouts; prints each
    run as identical or with every part of it that differs."""
    runs = differing = 0
    for seed in seeds:
        seed_dir = os.path.join(work, f"seed-{seed}")
        inputs = os.path.join(seed_dir, "inputs")
        ops = _write_inputs(parent, seed, inputs)
        # (checkout, directory its commands run in), parent first
        sides = [(parent, os.path.join(seed_dir, "parent")), (change, os.path.join(seed_dir, "change"))]
        for _, run_dir in sides:
            shutil.copytree(inputs, run_dir)
        for name, argv in ops:
            runs += 1
            code, found = _differences(sides, argv)
            if not found:
                print(f"seed {seed}: {name} identical (exit {code})")
                continue
            differing += 1
            print(f"DIFFERENCE seed {seed}: {name} ({' '.join(argv)})")
            for item in found:
                print(f"    {item}")
    print(f"{runs - differing} of {runs} runs identical: stdout, stderr, exit codes and --out trees")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="root of the checkout to compare against")
    parser.add_argument("change", help="root of the checkout under audit")
    args = parser.parse_args(argv)
    parent, change = (os.path.abspath(path) for path in (args.parent, args.change))
    with tempfile.TemporaryDirectory(prefix="cli-audit-") as work:
        differing = audit(parent, change, SEEDS, work)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
