"""Run two sets of benchmark runs of one commit and judge them by BENCHMARK.json.

    python3 perfbench/compare.py --out .perfbench/runs.json

From the root of a checkout, runs the benchmark's command ten times per
workload and set, one process at a time, each run with its own seed (set k
uses seeds k*1000+1 .. k*1000+10), workloads interleaved so that a slow
spell of the machine hits all of them alike.  For every workload and
end-to-end metric it prints the median, the quartiles and the spread
(quartile distance over median) of each set, and checks:

  * the spread of every metric stays within the metric's bound;
  * the two sets' medians differ by no more than the bound, either way;
  * both sets fail the same share of their operations.

It then runs every workload traced twice with seed 1 and checks that the
two runs report the same counts (every per-layer metric not measured in
seconds or percent).  Exit code 0 means every check held.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
SETS = 2


def _run(command, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench: unscaled "):
            result["unscaled"] = json.loads(line[len("perfbench: unscaled "):])
    result.update(workload=workload, seed=seed, elapsed_s=time.perf_counter() - start)
    return result


def _quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(bench: dict, runs: list[dict]) -> bool:
    ok = True
    sets = sorted({r["set"] for r in runs})
    for wl in (w["name"] for w in bench["workloads"]):
        print(f"\n{wl}")
        mine = [r for r in runs if r["workload"] == wl]
        shares = {s: sum(r["failed"] for r in mine if r["set"] == s) / sum(r["attempted"] for r in mine if r["set"] == s)
                  for s in sets}
        if len(set(shares.values())) > 1:
            ok = False
            print(f"  FAIL failed shares differ between sets: {shares}")
        if not all(r["correct"] for r in mine):
            ok = False
            print("  FAIL some run reported incorrect output")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = first_raw = None
            for s in sets:
                values = [r["metrics"][name]["value"] for r in mine if r["set"] == s]
                q1, med, q3 = _quartiles(values)
                spread = (q3 - q1) / med
                verdict = []
                if spread > bound:
                    verdict.append("spread over bound")
                if first is None:
                    first = med
                elif abs(med - first) / first > bound:
                    verdict.append("medians of the sets differ by more than the bound")
                ok &= not verdict
                print(
                    f"  set {s} {name:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
                    f"(bound {bound}, third {bound / 3:.4f}) {'FAIL ' + '; '.join(verdict) if verdict else 'ok'}"
                )
                if name != "peak_rss_mb":
                    raw = _quartiles([r["unscaled"][name] for r in mine if r["set"] == s])
                    first_raw = raw[1] if first_raw is None else first_raw
                    print(
                        f"  set {s} {name:12s} unscaled median {raw[1]:.6g} spread {(raw[2] - raw[0]) / raw[1]:.4f} "
                        f"off set 0 {(raw[1] - first_raw) / first_raw:+.4f} (for reference)"
                    )
    return ok


def same_counts(bench: dict) -> bool:
    """Run every workload traced twice with one seed; compare their counts."""
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] not in ("s", "%")]
    ok = True
    for wl in (w["name"] for w in bench["workloads"]):
        a, b = (_run(bench["command"], wl, 1, bench["run_seconds"], trace=1) for _ in range(2))
        differ = [n for n in counts if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        if differ or not (a["correct"] and b["correct"]):
            ok = False
        print(f"{wl} traced twice: {'FAIL counts differ: ' + ', '.join(differ) if differ else 'counts equal'}"
              f"{'' if a['correct'] and b['correct'] else '; FAIL a traced run reported incorrect output'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="save every run's result here as JSON")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    runs = []
    for s in range(SETS):
        for i in range(RUNS):
            for wl in (w["name"] for w in bench["workloads"]):
                result = _run(bench["command"], wl, 1000 * s + i + 1, bench["run_seconds"])
                result["set"] = s
                runs.append(result)
                values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                print(f"set {s} run {i} {wl} seed {result['seed']}: {values} ({result['elapsed_s']:.1f} s)", flush=True)
                if args.out:
                    with open(args.out, "w", encoding="utf-8") as handle:
                        json.dump(runs, handle, indent=1)
    ok = judge(bench, runs)
    print()
    ok &= same_counts(bench)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
