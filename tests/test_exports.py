"""Export lists: every name a module's ``__all__`` promises is there, once;
and what the solvers load: no SciPy."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import fbsdelta

MODULES = ["fbsdelta"] + [f"fbsdelta.{info.name}" for info in pkgutil.iter_modules(fbsdelta.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_and_appears_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), sorted(n for n in exported if exported.count(n) > 1)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


SOLVE_WITHOUT_SCIPY = """
import sys
import numpy as np
import fbsdelta.cli
from fbsdelta import (
    IncrementDistribution, NonlinearModel, ProbabilityTree, anchor_coefficients,
    check_monotone, solve_continuation, solve_linear,
)
tree = ProbabilityTree([IncrementDistribution.rademacher()] * 2)
G = np.array([[1.0, 0.2], [-0.1, 0.9]])
solve_linear(anchor_coefficients(tree, G, 0.5, 0.5, np.ones((2, 1)), D=np.full((2, 1), 0.1)), tree)
model = NonlinearModel(
    m=1, n=1, G=np.eye(1), beta1=1.0, beta2=1.0, x0=np.ones((1, 1)),
    b=lambda t, x, y, z, nodes: -y + 0.1 * np.tanh(y),
    sigma=lambda t, x, y, z, nodes: -z,
    f=lambda t, x, y, z, nodes: x,
)
solve_continuation(model, tree)
assert check_monotone(model, tree, samples=50, beta1=0.5, beta2=0.5).ok
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def test_the_solvers_run_without_loading_scipy():
    # Gamma_t is solved with NumPy: importing the command line and running the
    # linear solver, the continuation and the monotonicity check load no SciPy.
    src = os.path.dirname(os.path.dirname(fbsdelta.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SOLVE_WITHOUT_SCIPY], capture_output=True, text=True, env=env, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
