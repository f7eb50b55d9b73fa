"""Export lists: every name a module's ``__all__`` promises is there, once,
and the package exports exactly the modules' lists; every public function
has a use outside the tests; the README's code runs; and what the solvers
load: no SciPy."""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

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


SOLVER_MODULES = ["filtration", "bsde", "model_dsl", "linear_fbsde", "nonlinear_fbsde", "oracle"]


def test_the_package_exports_the_union_of_the_solver_modules_lists():
    origin = {}
    for name in SOLVER_MODULES:
        module = importlib.import_module(f"fbsdelta.{name}")
        for public in module.__all__:
            assert public not in origin, f"{public} is listed by {origin.get(public)} and {name}"
            origin[public] = module
    assert sorted(fbsdelta.__all__) == sorted(origin)
    assert len(fbsdelta.__all__) == len(set(fbsdelta.__all__))
    assert not [name for name in fbsdelta.__all__ if name.startswith("_")]
    for public, module in origin.items():
        assert getattr(fbsdelta, public) is getattr(module, public), public


ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_public_function_is_used_or_documented_outside_the_tests():
    # a function only the tests call is either documented in the README or
    # not public: it must be named in the README, in perfbench/ or in a
    # package module other than its own
    readers = {"README.md": README.read_text(encoding="utf-8")}
    readers |= {str(path): path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))}
    modules = {path.stem: path.read_text(encoding="utf-8") for path in (ROOT / "src" / "fbsdelta").glob("*.py")}
    unused = []
    for name in fbsdelta.__all__:
        obj = getattr(fbsdelta, name)
        if not inspect.isfunction(obj):
            continue
        home = obj.__module__.rsplit(".", 1)[-1]
        texts = [*readers.values(), *(text for stem, text in modules.items() if stem != home)]
        if not any(re.search(rf"\b{name}\b", text) for text in texts):
            unused.append(name)
    assert not unused, f"public functions with no use outside the tests: {unused}"


def test_the_readme_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out == "[[0.1875]] 0.0\n"


SOLVE_WITHOUT_SCIPY = """
import sys
import numpy as np
import fbsdelta.cli
from fbsdelta import (
    IncrementDistribution, NonlinearModel, ProbabilityTree, anchor_coefficients,
    build_residual_system, check_monotone, solve_continuation, solve_global_newton, solve_linear,
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
assert solve_global_newton(build_residual_system(tree, model)).trace.converged
assert check_monotone(model, tree, samples=50, beta1=0.5, beta2=0.5).ok
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def test_the_solvers_run_without_loading_scipy():
    # Gamma_t and the oracle's pivot blocks are solved with NumPy: importing the
    # command line and running the linear solver, the continuation, the Newton
    # oracle and the monotonicity check load no SciPy.
    src = os.path.dirname(os.path.dirname(fbsdelta.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SOLVE_WITHOUT_SCIPY], capture_output=True, text=True, env=env, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
