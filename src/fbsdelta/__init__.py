"""Exact solvers for forward-backward stochastic difference equations on finite trees."""

__version__ = "0.1.0"

from . import bsde, filtration, linear_fbsde, model_dsl, nonlinear_fbsde, oracle
from .bsde import *
from .filtration import *
from .linear_fbsde import *
from .model_dsl import *
from .nonlinear_fbsde import *
from .oracle import *

# each module lists its own public names
__all__ = [name for module in (filtration, bsde, model_dsl, linear_fbsde, nonlinear_fbsde, oracle) for name in module.__all__]
