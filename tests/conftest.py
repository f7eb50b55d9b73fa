"""Run the suite with BLAS on one thread, as the benchmark does.

A multi-threaded BLAS may sum in another order, so iterates that pass
through many BLAS products and solves (the oracle on stiff models) would end
in digits that depend on the machine's CPU count.  The variables must be set
before NumPy loads, and pytest loads this file before any test module.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
