"""Write the inputs one benchmark run generates, for inspection.

    python3 perfbench/inputs.py --workload cli-scenarios --seed 1 --out DIR

Builds the workload exactly as ``run.py`` does for that seed and writes, per
operation, ``DIR/<operation>.json``: the scenario (bsde-sweep), the
coefficient arrays and model parameters (coupled-certify) or the command
line (cli-scenarios, whose scenario files land in ``DIR/scenarios``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run  # sets the BLAS thread count before NumPy loads

run._import_program()

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, np.generic):
        return value.item()
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    workload = workloads.build(args.workload, args.seed, out)
    for op in workload.ops:
        with open(os.path.join(out, f"{op.name}.json"), "w", encoding="utf-8") as handle:
            json.dump(_plain(op.inputs), handle, indent=1)
    print(f"{len(workload.ops)} operations of {args.workload} (seed {args.seed}) written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
