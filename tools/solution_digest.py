"""Check that two checkouts give the same solutions on the benchmark's solver workloads.

    python3 tools/solution_digest.py PARENT_CHECKOUT CHANGE_CHECKOUT

For each of seeds 1, 2 and 3, each checkout builds the bsde-sweep and
coupled-certify workloads from its own ``perfbench/workloads.py``, under its
own ``src/``, in a process of its own with BLAS on one thread.  Every
operation runs once, and every array, number and string in its result
(solutions, reports, traces; not the tree) is hashed with SHA-256, one
digest per leaf of the result, named by its path.  The digest prints every
operation that differs, with the first leaves that differ, then how many
operations matched; it exits 1 when any operation differs and 0 otherwise.
An operation that raises stops the digest with that checkout's traceback.
Everything it writes goes to a temporary directory that it deletes at the
end.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

SEEDS = (1, 2, 3)
WORKLOADS = ("bsde-sweep", "coupled-certify")
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SHOWN = 5  # differing leaves printed per operation


def _leaves(value, path: str):
    """(path, SHA-256) of every array, number, string and None in ``value``,
    walking dataclasses, named tuples, tuples, lists and dicts; trees are
    skipped, and anything else is an error, so that nothing is skipped
    silently."""
    if type(value).__name__ == "ProbabilityTree":
        return
    if isinstance(value, np.ndarray) and value.dtype != object:
        data = f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
        yield path, hashlib.sha256(data).hexdigest()
    elif value is None or isinstance(value, (bool, int, float, complex, str, np.generic)):
        yield path, hashlib.sha256(f"{type(value).__name__}:{value!r}".encode()).hexdigest()
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _leaves(getattr(value, field.name), f"{path}.{field.name}")
    elif isinstance(value, tuple) and hasattr(value, "_fields"):
        for name in value._fields:
            yield from _leaves(getattr(value, name), f"{path}.{name}")
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    elif isinstance(value, dict):
        for key in sorted(value, key=repr):
            yield from _leaves(value[key], f"{path}[{key!r}]")
    else:
        raise TypeError(f"no digest for {type(value).__name__} at {path}")


def print_digests(seeds: tuple[int, ...], workdir: str) -> None:
    """Run every operation of the solver workloads once, with this process's
    ``fbsdelta`` and ``workloads``, and print {operation: {leaf: digest}} as
    JSON."""
    import workloads

    out = {}
    for workload in WORKLOADS:
        for seed in seeds:
            for op in workloads.build(workload, seed, workdir).ops:
                if op.prepare is not None:
                    op.prepare()
                out[f"{workload} seed {seed}: {op.name}"] = dict(_leaves(op.run(), "result"))
    json.dump(out, sys.stdout)


def _digests(checkout: str, seeds: tuple[int, ...], work: str) -> dict:
    """The digests of one checkout, from a process of its own."""
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(checkout, "src"), os.path.join(checkout, "perfbench"), here])
    code = f"import solution_digest; solution_digest.print_digests({seeds!r}, {work!r})"
    env = os.environ | ONE_THREAD | {"PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=work, env=env)
    if done.returncode:
        raise RuntimeError(f"digests of {checkout} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def compare(parent: dict, change: dict) -> int:
    """The number of operations that differ; prints each as identical or
    with its first differing leaves."""
    differing = 0
    for name in sorted(parent.keys() | change.keys()):
        a, b = parent.get(name), change.get(name)
        if a == b:
            print(f"{name} identical ({len(a)} leaves)")
            continue
        differing += 1
        print(f"DIFFERENCE {name}")
        if a is None or b is None:
            print(f"    only in the {'change' if a is None else 'parent'}")
            continue
        leaves = sorted(path for path in a.keys() | b.keys() if a.get(path) != b.get(path))
        for path in leaves[:SHOWN]:
            print(f"    {path}")
        if len(leaves) > SHOWN:
            print(f"    ... {len(leaves) - SHOWN} more")
    total = len(parent.keys() | change.keys())
    print(f"{total - differing} of {total} operations identical: every array, number and string of the results")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="root of the checkout to compare against")
    parser.add_argument("change", help="root of the checkout under audit")
    args = parser.parse_args(argv)
    sides = []
    with tempfile.TemporaryDirectory(prefix="solution-digest-") as work:
        for label, checkout in (("parent", args.parent), ("change", args.change)):
            side_dir = os.path.join(work, label)
            os.mkdir(side_dir)
            sides.append(_digests(os.path.abspath(checkout), SEEDS, side_dir))
    return 1 if compare(*sides) else 0


if __name__ == "__main__":
    sys.exit(main())
