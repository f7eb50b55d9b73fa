"""Span and counter recorder that wraps fbsdelta's public functions from outside.

Nothing in the package is edited: ``Tracer.install`` replaces each traced
function (and every name another fbsdelta module imported it under, such as
``solve_linear`` as ``nonlinear_fbsde`` sees it) with a wrapper, and
``Tracer.uninstall`` puts the originals back.  A span group that is entered
again while open (``eval_expr`` recursing into its operands, for instance) is
recorded once, at its outermost call.  Self time is a group's duration minus
the time of the spans opened directly inside it.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict

# Per-layer metric name -> (unit, description).  Order is the reporting order.
LAYER_METRICS = {
    "model_dsl.eval.calls": ("count", "top-level eval_expr calls"),
    "model_dsl.eval.s": ("s", "time in top-level eval_expr calls"),
    "model_dsl.parse.s": ("s", "time in parse_expr"),
    "bsde.solve.calls": ("count", "solve_bsde calls"),
    "bsde.solve.s": ("s", "time in solve_bsde"),
    "bsde.residual.s": ("s", "time in bsde_residuals"),
    "bsde.driver.calls": ("count", "driver calls made inside solve_bsde and bsde_residuals"),
    "filtration.kernel.calls": ("count", "expect_next and expect_next_increment calls"),
    "filtration.kernel.s": ("s", "time in expect_next and expect_next_increment"),
    "filtration.check.s": ("s", "time in is_martingale and is_strongly_orthogonal"),
    "filtration.process.calls": ("count", "AdaptedProcess constructions"),
    "filtration.process.s": ("s", "time in AdaptedProcess constructions"),
    "filtration.tree.s": ("s", "time in tree construction, nodes and node_probabilities"),
    "linear_fbsde.riccati.calls": ("count", "riccati_matrices calls"),
    "linear_fbsde.riccati.s": ("s", "time in riccati_matrices"),
    "linear_fbsde.solve.calls": ("count", "solve_linear calls"),
    "linear_fbsde.solve.s": ("s", "time in solve_linear"),
    "linear_fbsde.residual.calls": ("count", "linear_residual calls"),
    "linear_fbsde.residual.s": ("s", "time in linear_residual"),
    "nonlinear_fbsde.continuation.s": ("s", "time in solve_continuation"),
    "nonlinear_fbsde.linear_solves": ("count", "inner linear solves reported by continuation traces"),
    "nonlinear_fbsde.picard_iters": ("count", "Picard iterations over all recorded stages"),
    "nonlinear_fbsde.stage_accept_ratio": ("ratio", "accepted stages / attempted stages"),
    "nonlinear_fbsde.model.calls": ("count", "NonlinearModel drift/noise_loading/driver/terminal calls"),
    "nonlinear_fbsde.monotone.s": ("s", "time in check_monotone"),
    "nonlinear_fbsde.monotone.samples": ("count", "state pairs sampled by check_monotone"),
    "nonlinear_fbsde.residual.s": ("s", "time in nonlinear_residual"),
    "oracle.newton.calls": ("count", "solve_global_newton calls"),
    "oracle.newton.s": ("s", "time in solve_global_newton"),
    "oracle.newton.iters": ("count", "damped Newton iterations"),
    "oracle.unknowns": ("count", "unknowns summed over oracle solves"),
    "oracle.residual_evals": ("count", "ResidualSystem.residual calls"),
    "oracle.jacobian.s": ("s", "time in ResidualSystem.jacobian"),
    "oracle.evals_per_unknown": ("ratio", "residual evaluations / unknowns"),
    "cli.parse.s": ("s", "time in cli.load_scenario"),
    "cli.command.calls": ("count", "cli.main calls"),
    "cli.command.s": ("s", "time in cli.main"),
    "cli.self.s": ("s", "cli.main time outside the spans opened inside it"),
    "cli.out_bytes": ("B", "bytes written to --out directories"),
    "setup.filtration.tree.s": ("s", "filtration.tree.s of one traced set-up"),
    "setup.model_dsl.parse.s": ("s", "model_dsl.parse.s of one traced set-up"),
    "trace.overhead_pct": ("%", "traced round time over untraced round time, minus 100"),
}

# (module, attribute or "Class.method", span group)
_SPANS = (
    ("model_dsl", "eval_expr", "model_dsl.eval"),
    ("model_dsl", "parse_expr", "model_dsl.parse"),
    ("bsde", "solve_bsde", "bsde.solve"),
    ("bsde", "bsde_residuals", "bsde.residual"),
    ("filtration", "ProbabilityTree.expect_next", "filtration.kernel"),
    ("filtration", "ProbabilityTree.expect_next_increment", "filtration.kernel"),
    ("filtration", "is_martingale", "filtration.check"),
    ("filtration", "is_strongly_orthogonal", "filtration.check"),
    ("filtration", "AdaptedProcess.__init__", "filtration.process"),
    ("filtration", "ProbabilityTree.__init__", "filtration.tree"),
    ("filtration", "ProbabilityTree.nodes", "filtration.tree"),
    ("filtration", "ProbabilityTree.node_probabilities", "filtration.tree"),
    ("linear_fbsde", "riccati_matrices", "linear_fbsde.riccati"),
    ("linear_fbsde", "solve_linear", "linear_fbsde.solve"),
    ("linear_fbsde", "linear_residual", "linear_fbsde.residual"),
    ("nonlinear_fbsde", "solve_continuation", "nonlinear_fbsde.continuation"),
    ("nonlinear_fbsde", "check_monotone", "nonlinear_fbsde.monotone"),
    ("nonlinear_fbsde", "nonlinear_residual", "nonlinear_fbsde.residual"),
    ("oracle", "solve_global_newton", "oracle.newton"),
    ("oracle", "ResidualSystem.jacobian", "oracle.jacobian"),
    ("cli", "load_scenario", "cli.parse"),
    ("cli", "main", "cli.command"),
)

# Patched only where other modules call them, not in their defining module:
# eval_expr recurses through its own module's global, so its inner calls run
# unwrapped and each span is one top-level evaluation.
_CALLER_SIDE = {"eval_expr"}

# Call counters without spans: (module, "Class.method", counter)
_COUNTS = (
    ("nonlinear_fbsde", "NonlinearModel.drift", "nonlinear_fbsde.model.calls"),
    ("nonlinear_fbsde", "NonlinearModel.noise_loading", "nonlinear_fbsde.model.calls"),
    ("nonlinear_fbsde", "NonlinearModel.driver", "nonlinear_fbsde.model.calls"),
    ("nonlinear_fbsde", "NonlinearModel.terminal", "nonlinear_fbsde.model.calls"),
    ("oracle", "ResidualSystem.residual", "oracle.residual_evals"),
)


class Tracer:
    """Collects calls, inclusive time and self time per span group, plus counters."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [group, child seconds]
        self._open: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    # -- recording -------------------------------------------------------

    def _span(self, group: str, fn, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if group in tracer._open:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = [group, 0.0]
            tracer._stack.append(frame)
            tracer._open.add(group)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer._open.discard(group)
                tracer.calls[group] += 1
                tracer.total[group] += elapsed
                tracer.self_time[group] += elapsed - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def add(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    # -- hooks that read arguments and results of the public calls -----------

    def _count_driver(self, args, kwargs):
        """Give solve_bsde/bsde_residuals a generator whose fn is counted."""
        args = list(args)
        gen = args[1] if len(args) > 1 else kwargs["gen"]
        counted = dataclasses.replace(gen, fn=self._counter("bsde.driver.calls", gen.fn))
        if len(args) > 1:
            args[1] = counted
        else:
            kwargs = dict(kwargs, gen=counted)
        return tuple(args), kwargs

    def _after_continuation(self, args, result) -> None:
        trace = result.trace
        self.counts["nonlinear_fbsde.linear_solves"] += trace.linear_solves
        self.counts["nonlinear_fbsde.picard_iters"] += sum(stage.iterations for stage in trace.stages)
        self.counts["nonlinear_fbsde.stages"] += len(trace.stages)
        self.counts["nonlinear_fbsde.stages_accepted"] += sum(stage.accepted for stage in trace.stages)

    def _after_monotone(self, args, result) -> None:
        self.counts["nonlinear_fbsde.monotone.samples"] += result.samples

    def _after_newton(self, args, result) -> None:
        self.counts["oracle.newton.iters"] += result.trace.iterations
        self.counts["oracle.unknowns"] += args[0].size

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "bsde.solve": (self._count_driver, None),
            "bsde.residual": (self._count_driver, None),
            "nonlinear_fbsde.continuation": (None, self._after_continuation),
            "nonlinear_fbsde.monotone": (None, self._after_monotone),
            "oracle.newton": (None, self._after_newton),
        }
        for module, attr, group in _SPANS:
            before, after = hooks.get(group, (None, None))
            self._replace(module, attr, lambda fn, g=group, b=before, a=after: self._span(g, fn, b, a))
        for module, attr, name in _COUNTS:
            self._replace(module, attr, lambda fn, n=name: self._counter(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, module: str, attr: str, make) -> None:
        mod = sys.modules[f"fbsdelta.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[method]
            self._patches.append((owner, method, original))
            setattr(owner, method, make(original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        # every fbsdelta namespace that holds this function, the package included
        for name, other in list(sys.modules.items()):
            if attr in _CALLER_SIDE and other is mod:
                continue
            if (name == "fbsdelta" or name.startswith("fbsdelta.")) and getattr(other, attr, None) is original:
                self._patches.append((other, attr, original))
                setattr(other, attr, wrapper)

    # -- reporting -------------------------------------------------------------

    def groups(self) -> dict[str, dict[str, float]]:
        """calls / inclusive seconds / self seconds of every span group seen."""
        return {
            group: {"calls": self.calls[group], "s": self.total[group], "self_s": self.self_time[group]}
            for group in sorted(self.calls)
        }

    def layer_counts(self) -> dict[str, float]:
        """The count-type per-layer metrics of what was recorded since reset."""
        c = self.counts
        stages = c["nonlinear_fbsde.stages"]
        unknowns = c["oracle.unknowns"]
        return {
            "model_dsl.eval.calls": self.calls["model_dsl.eval"],
            "bsde.solve.calls": self.calls["bsde.solve"],
            "bsde.driver.calls": c["bsde.driver.calls"],
            "filtration.kernel.calls": self.calls["filtration.kernel"],
            "filtration.process.calls": self.calls["filtration.process"],
            "linear_fbsde.riccati.calls": self.calls["linear_fbsde.riccati"],
            "linear_fbsde.solve.calls": self.calls["linear_fbsde.solve"],
            "linear_fbsde.residual.calls": self.calls["linear_fbsde.residual"],
            "nonlinear_fbsde.linear_solves": c["nonlinear_fbsde.linear_solves"],
            "nonlinear_fbsde.picard_iters": c["nonlinear_fbsde.picard_iters"],
            "nonlinear_fbsde.stage_accept_ratio": c["nonlinear_fbsde.stages_accepted"] / stages if stages else 0.0,
            "nonlinear_fbsde.model.calls": c["nonlinear_fbsde.model.calls"],
            "nonlinear_fbsde.monotone.samples": c["nonlinear_fbsde.monotone.samples"],
            "oracle.newton.calls": self.calls["oracle.newton"],
            "oracle.newton.iters": c["oracle.newton.iters"],
            "oracle.unknowns": unknowns,
            "oracle.residual_evals": c["oracle.residual_evals"],
            "oracle.evals_per_unknown": c["oracle.residual_evals"] / unknowns if unknowns else 0.0,
            "cli.command.calls": self.calls["cli.command"],
            "cli.out_bytes": c["cli.out_bytes"],
        }

    def layer_times(self) -> dict[str, float]:
        """The time-type per-layer metrics of what was recorded since reset."""
        t = self.total
        return {
            "model_dsl.eval.s": t["model_dsl.eval"],
            "model_dsl.parse.s": t["model_dsl.parse"],
            "bsde.solve.s": t["bsde.solve"],
            "bsde.residual.s": t["bsde.residual"],
            "filtration.kernel.s": t["filtration.kernel"],
            "filtration.check.s": t["filtration.check"],
            "filtration.process.s": t["filtration.process"],
            "filtration.tree.s": t["filtration.tree"],
            "linear_fbsde.riccati.s": t["linear_fbsde.riccati"],
            "linear_fbsde.solve.s": t["linear_fbsde.solve"],
            "linear_fbsde.residual.s": t["linear_fbsde.residual"],
            "nonlinear_fbsde.continuation.s": t["nonlinear_fbsde.continuation"],
            "nonlinear_fbsde.monotone.s": t["nonlinear_fbsde.monotone"],
            "nonlinear_fbsde.residual.s": t["nonlinear_fbsde.residual"],
            "oracle.newton.s": t["oracle.newton"],
            "oracle.jacobian.s": t["oracle.jacobian"],
            "cli.parse.s": t["cli.parse"],
            "cli.command.s": t["cli.command"],
            "cli.self.s": self.self_time["cli.command"],
        }
