"""Extract-then-abstract summarization pipeline for long narrative reports."""

import os

# BLAS runs at one thread whatever the environment: the bits of a long
# matrix product depend on how many threads split it. OpenBLAS reads these
# once, when NumPy loads it, so they are set before any module imports NumPy.
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))

__version__ = "0.1.0"
