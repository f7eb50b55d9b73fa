"""The benchmark's tracer (perfbench/tracing.py) can wrap every function it
names, so a rename or merge in the package fails here rather than in a
traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import fbsdelta.cli  # noqa: F401  (the tracer wraps names across every fbsdelta module)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(module: str, attr: str):
    owner = sys.modules[f"fbsdelta.{module}"]
    if "." in attr:
        cls_name, method = attr.split(".")
        return vars(getattr(owner, cls_name))[method]
    return getattr(owner, attr)


def test_the_tracer_wraps_every_traced_name_and_restores_it():
    tracing = _load_tracing()
    targets = [(module, attr) for module, attr, _ in tracing._SPANS + tracing._COUNTS]
    originals = {target: _lookup(*target) for target in targets}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = {id(original) for _, _, original in tracer._patches}
        missing = [target for target, original in originals.items() if id(original) not in wrapped]
        assert not missing, f"traced names the tracer did not wrap: {missing}"
    finally:
        tracer.uninstall()
    assert all(_lookup(*target) is original for target, original in originals.items())
