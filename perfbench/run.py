"""Benchmark of fbsdelta: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload bsde-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The client sends the workload's fixed, seeded list of operations one after
the other (a closed loop with a single client), in whole rounds, until the
next round would end after ``--seconds``.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are scaled to a reference machine speed.  The reference machine (2
CPUs shared with other tenants) changes speed by up to 2x within seconds; a
fixed pure-Python probe tracks that change (see README.md).  ``Meter`` runs the
probe before and after each timed span and every SAMPLE_INTERVAL_S inside
it (from a SIGALRM timer, with the probe's own time taken out of the span).
A span's scaled time is its measured time times PROBE_REFERENCE_S over the
mean probe time.  The unscaled figures go to stderr.

``--trace 0`` reports the end-to-end metrics:
  wall_s       each operation's median scaled time over the rounds, summed
               over one round's operations
  setup_s      scaled import time plus the median scaled time of three
               complete set-ups (inputs built from the seed, trees and models
               constructed, scenario files written, caches filled, one
               untimed warm-up operation)
  peak_rss_mb  peak resident set of this process (getrusage)
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of ``tracing.LAYER_METRICS``: counts of one traced round,
median unscaled span times of the traced rounds, tree and parse times of
the last set-up (traced), and the tracing overhead.  Counts that differ
between traced rounds make ``correct`` false.
"""

import math
import signal
import time


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's current speed."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(6000):
        acc += math.tanh(i * 1e-4) * (i % 7) - abs(acc) * 1e-9
    return time.perf_counter() - start


# The probe's median duration on the reference machine (2 CPUs, Python 3.11.7).
PROBE_REFERENCE_S = 0.002
SAMPLE_INTERVAL_S = 0.1
END_PROBES = 5  # probes run before and after each span


def _speed_samples() -> list[float]:
    return [probe() for _ in range(END_PROBES)]


_START_SAMPLES = _speed_samples()
_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the machine's cores are shared, and a threaded OpenBLAS
# adds scheduling noise to every small dense solve.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")  # everything a run writes, git-ignored
RUNS_DIR = os.path.join(OUT_DIR, "runs")
SETUP_REPEATS = 3
MIN_ROUNDS = 3


def _scale(raw: float, samples: list[float]) -> float:
    return raw * PROBE_REFERENCE_S * len(samples) / sum(samples)


class Meter:
    """Times spans and samples the machine's speed around and inside them."""

    def __init__(self, interior: bool = True):
        self.interior = interior
        self._samples: list[float] = []
        self._spent = 0.0
        if interior:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(probe())
        self._spent += time.perf_counter() - start

    def time(self, fn):
        """Run fn(); return (result or None, exception or None, unscaled s, scaled s)."""
        before = _speed_samples()
        self._samples, self._spent = [], 0.0
        result = error = None
        if self.interior:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # reported by the caller
            error = exc
        finally:
            raw = time.perf_counter() - start
            if self.interior:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
        raw -= self._spent
        return result, error, raw, _scale(raw, before + self._samples + _speed_samples())


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("bsde-sweep", "coupled-certify", "cli-scenarios"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="FILE", help="with --trace 1: write every span group here as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def _import_program():
    """Import fbsdelta from this checkout's src, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "fbsdelta", "__init__.py")):
        raise SystemExit(f"perfbench: no fbsdelta sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import fbsdelta
    import fbsdelta.cli  # noqa: F401

    if os.path.dirname(os.path.abspath(fbsdelta.__file__)) != os.path.join(SRC, "fbsdelta"):
        raise SystemExit(f"perfbench: fbsdelta was imported from {fbsdelta.__file__}, not from {SRC}")


class Client:
    """Runs operations, times them and keeps the failure tallies."""

    def __init__(self, meter: Meter):
        self.meter = meter
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._reported: set[str] = set()

    def report(self, op, message: str) -> None:
        if op.name not in self._reported:
            self._reported.add(op.name)
            print(f"perfbench: {op.name}: {message}", file=sys.stderr)

    def execute(self, op) -> tuple[float, float]:
        """Run one operation and check it after the timed span; return its
        (unscaled, scaled) seconds."""
        if op.prepare is not None:
            op.prepare()
        out, error, raw, scaled = self.meter.time(op.run)
        # a refused or crashed operation counts as failed
        problems = None if error is None else [f"raised {type(error).__name__}: {error}"]
        self.attempted += 1
        if problems is None:
            problems = op.check(out)
            self.wrong += bool(problems)
        if problems:
            self.failed += 1
            self.report(op, "; ".join(problems[:3]))
        return raw, scaled

    def round(self, ops) -> list[tuple[float, float]]:
        """(unscaled, scaled) seconds of each operation of one round."""
        gc.collect()
        return [self.execute(op) for op in ops]


def _round_time(rounds, scaled: bool) -> float:
    """Each operation's median time over the rounds, summed over the round."""
    k = 1 if scaled else 0
    return sum(statistics.median(r[i][k] for r in rounds) for i in range(len(rounds[0])))


def _setup(workloads, client, name: str, seed: int, workdir: str, tracer=None) -> tuple[object, list[float], list[float]]:
    """Build the workload SETUP_REPEATS times (inputs, caches, one warm-up
    operation); return the last build and the unscaled and scaled seconds.
    A tracer, if given, records the last build."""
    raw, scaled = [], []
    for repeat in range(SETUP_REPEATS):
        gc.collect()
        traced = tracer is not None and repeat == SETUP_REPEATS - 1
        if traced:
            tracer.reset()
            tracer.install()

        def build():
            workload = workloads.build(name, seed, workdir)
            workload.fill_caches()
            warmup = workload.ops[workload.warmup]
            if warmup.prepare is not None:
                warmup.prepare()
            return workload, warmup, warmup.run()

        try:
            built, error, seconds, scaled_seconds = client.meter.time(build)
        finally:
            if traced:
                tracer.uninstall()
        if error is not None:
            raise error
        workload, warmup, out = built
        raw.append(seconds)
        scaled.append(scaled_seconds)
        if warmup.check(out):
            client.wrong += 1
            client.report(warmup, "warm-up output failed its check")
    return workload, raw, scaled


def _enough(rounds, started: float, seconds: float, minimum: int) -> bool:
    """Stop once the next round would end after the measuring time."""
    if len(rounds) < minimum:
        return False
    return time.perf_counter() - started + _round_time(rounds, scaled=False) > seconds


def _measure(workload, client, seconds: float) -> list[tuple[float, float]]:
    rounds = []
    started = time.perf_counter()
    while not _enough(rounds, started, seconds, MIN_ROUNDS):
        rounds.append(client.round(workload.ops))
    return rounds


def _measure_traced(workload, client, tracer, seconds: float, workdir: str, trace_out: str | None) -> dict:
    import workloads as wl

    setup = tracer.layer_times()
    plain, traced, counts, times, groups = [], [], [], [], []
    started = time.perf_counter()
    while not (len(plain) == len(traced) and _enough(plain + traced, started, seconds, 2 * MIN_ROUNDS)):
        if len(plain) == len(traced):
            plain.append(client.round(workload.ops))
            continue
        tracer.reset()
        tracer.install()
        try:
            traced.append(client.round(workload.ops))
        finally:
            tracer.uninstall()
        tracer.add("cli.out_bytes", wl.out_bytes(workdir))
        counts.append(tracer.layer_counts())
        times.append(tracer.layer_times())
        groups.append(tracer.groups())
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        # the operations are deterministic, so differing counts are a fault
        client.wrong += 1
        print("perfbench: per-round counts differ between traced rounds", file=sys.stderr)
    metrics = dict(counts[0])
    for key in times[0]:
        metrics[key] = statistics.median(t[key] for t in times)
    for key in ("filtration.tree.s", "model_dsl.parse.s"):
        metrics[f"setup.{key}"] = setup[key]
    metrics["trace.overhead_pct"] = 100.0 * (
        _round_time(traced, scaled=True) / _round_time(plain, scaled=True) - 1.0
    )
    if trace_out:
        detail = {
            group: {
                "calls": groups[0][group]["calls"],
                "s": statistics.median(g[group]["s"] for g in groups),
                "self_s": statistics.median(g[group]["self_s"] for g in groups),
            }
            for group in groups[0]
        }
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": workload.name,
                    "round_sums_unscaled_scaled_s": {
                        kind: [[sum(op[0] for op in r), sum(op[1] for op in r)] for r in rounds]
                        for kind, rounds in (("untraced", plain), ("traced", traced))
                    },
                    "counts_repeat": repeat,
                    "span_groups": detail,
                    "metrics": metrics,
                },
                handle,
                indent=1,
                sort_keys=True,
            )
    return metrics


def _remove_if_empty(*dirs) -> None:
    for path in dirs:
        try:
            os.rmdir(path)
        except OSError:
            return


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import tracing
    import workloads

    import_raw = time.perf_counter() - _START
    import_s = _scale(import_raw, _START_SAMPLES + _speed_samples())
    workdir = os.path.join(RUNS_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # traced runs sample only around spans, so no probe lands inside a traced span
    client = Client(Meter(interior=not args.trace))
    tracer = tracing.Tracer() if args.trace else None
    try:
        workload, setup_raw, setup_scaled = _setup(workloads, client, args.workload, args.seed, workdir, tracer)
        if args.trace:
            values = _measure_traced(workload, client, tracer, args.seconds, workdir, args.trace_out)
            units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
        else:
            rounds = _measure(workload, client, args.seconds)
            values = {
                "wall_s": _round_time(rounds, scaled=True),
                "setup_s": import_s + statistics.median(setup_scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
            unscaled = {
                "wall_s": _round_time(rounds, scaled=False),
                "setup_s": import_raw + statistics.median(setup_raw),
                "import_s": import_raw,
                "rounds": [round(sum(op[0] for op in r), 4) for r in rounds],
            }
            print(f"perfbench: unscaled {json.dumps(unscaled)}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(RUNS_DIR, OUT_DIR)
    result = {
        "correct": client.wrong == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
