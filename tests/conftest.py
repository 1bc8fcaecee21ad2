"""Test-suite setup: one BLAS thread.

numpy reads these variables when it is first imported, and pytest loads
this file before any test module imports numpy.  The tests multiply small
matrices, where extra BLAS threads only compete for the cores with
whatever else runs; subprocesses the tests start inherit the setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
