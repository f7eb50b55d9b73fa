"""Check that two checkouts give the same solutions on the benchmark's solver workloads.

    python3 tools/solution_digest.py PARENT_CHECKOUT CHANGE_CHECKOUT

For each of seeds 1, 2 and 3, each checkout builds the bsde-sweep and
coupled-certify workloads from its own ``perfbench/workloads.py``, under its
own ``src/``, in a process of its own with BLAS on one thread.  Every
operation runs once, and every array, number and string in its result
(solutions, reports, traces; not the tree) is hashed with SHA-256, one
digest per leaf of the result, named by its path.  The digest prints every
operation that differs, with the first leaves that differ and the size of
the difference: the largest |a - b| / max(1, sup|a|) over its differing
numeric leaves, a from the parent and b from the change.  It then prints how
many operations matched and the largest size of all; it exits 1 when any
operation differs and 0 otherwise.
An operation that raises stops the digest with that checkout's traceback.
Everything it writes goes to a temporary directory that it deletes at the
end.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

SEEDS = (1, 2, 3)
WORKLOADS = ("bsde-sweep", "coupled-certify")
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SHOWN = 5  # differing leaves printed per operation
LEAVES = "leaves.npz"  # each side's numeric leaves, in its own work directory


def _digest(leaf) -> str:
    if isinstance(leaf, np.ndarray):
        return hashlib.sha256(f"{leaf.dtype.str}{leaf.shape}".encode() + leaf.tobytes()).hexdigest()
    return hashlib.sha256(f"{type(leaf).__name__}:{leaf!r}".encode()).hexdigest()


def _numeric(leaf) -> bool:
    """Whether the difference of ``leaf`` has a size: real numbers, not flags."""
    return np.asarray(leaf).dtype.kind in "iuf" and not isinstance(leaf, bool)


def _leaves(value, path: str):
    """(path, leaf) of every array, number, string and None in ``value``,
    walking dataclasses, named tuples, tuples, lists and dicts; trees are
    skipped, and anything else is an error, so that nothing is skipped
    silently."""
    if type(value).__name__ == "ProbabilityTree":
        return
    if isinstance(value, np.ndarray) and value.dtype != object:
        yield path, value
    elif value is None or isinstance(value, (bool, int, float, complex, str, np.generic)):
        yield path, value
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
    JSON; the numeric leaves themselves go to ``workdir``/leaves.npz, keyed
    by operation and leaf."""
    import workloads

    out, numeric = {}, {}
    for workload in WORKLOADS:
        for seed in seeds:
            for op in workloads.build(workload, seed, workdir).ops:
                if op.prepare is not None:
                    op.prepare()
                name, leaves = f"{workload} seed {seed}: {op.name}", dict(_leaves(op.run(), "result"))
                out[name] = {path: _digest(leaf) for path, leaf in leaves.items()}
                numeric.update({f"{name}|{path}": leaf for path, leaf in leaves.items() if _numeric(leaf)})
    np.savez(os.path.join(workdir, LEAVES), **numeric)
    json.dump(out, sys.stdout)


def difference_size(a, b) -> float:
    """max |a - b| / max(1, sup|a|) over the finite entries of a for the
    scale; entries equal in both (NaN in both included) count 0, and inf or
    NaN in one only counts inf."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", over="ignore"):
        gap = np.where(same, 0.0, np.abs(a - b))
    finite = np.abs(a[np.isfinite(a)])
    worst = float(np.nan_to_num(gap, nan=math.inf).max(initial=0.0))
    return worst / max(1.0, float(finite.max(initial=0.0)))


def _digests(checkout: str, seeds: tuple[int, ...], work: str) -> dict:
    """The digests of one checkout, from a process of its own; its numeric
    leaves stay in ``work``."""
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(checkout, "src"), os.path.join(checkout, "perfbench"), here])
    code = f"import solution_digest; solution_digest.print_digests({seeds!r}, {work!r})"
    env = os.environ | ONE_THREAD | {"PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=work, env=env)
    if done.returncode:
        raise RuntimeError(f"digests of {checkout} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def compare(parent: dict, change: dict, parent_leaves, change_leaves) -> int:
    """The number of operations that differ; prints each as identical or
    with its first differing leaves and the size of the difference, read
    from both sides' numeric leaves (mappings from "operation|leaf" to
    value)."""
    differing, largest = 0, 0.0
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
        keys = [f"{name}|{path}" for path in leaves]
        sized = [key for key in keys if key in parent_leaves and key in change_leaves]
        size = max((difference_size(parent_leaves[key], change_leaves[key]) for key in sized), default=0.0)
        largest = max(largest, size)
        print(f"    size {size:.3g} (largest |a - b| / max(1, sup|a|) over {len(sized)} numeric leaves)")
        if len(sized) < len(keys):
            print(f"    {len(keys) - len(sized)} differing leaves without a size: on one side only, or not numeric")
    total = len(parent.keys() | change.keys())
    print(f"{total - differing} of {total} operations identical: every array, number and string of the results")
    if differing:
        print(f"largest difference size {largest:.3g} over the numeric leaves of both sides")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="root of the checkout to compare against")
    parser.add_argument("change", help="root of the checkout under audit")
    args = parser.parse_args(argv)
    sides, values = [], []
    with tempfile.TemporaryDirectory(prefix="solution-digest-") as work:
        for label, checkout in (("parent", args.parent), ("change", args.change)):
            side_dir = os.path.join(work, label)
            os.mkdir(side_dir)
            sides.append(_digests(os.path.abspath(checkout), SEEDS, side_dir))
            values.append(np.load(os.path.join(side_dir, LEAVES)))
        return 1 if compare(*sides, *values) else 0


if __name__ == "__main__":
    sys.exit(main())
