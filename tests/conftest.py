"""Test-session setup, run before any test module imports numpy.

The win-table and kernel products are too small to gain from BLAS threads,
and a multi-threaded OpenBLAS on a loaded host can make them hundreds of
times slower, so the suite runs on one BLAS thread, as the benchmark's
child processes do.  A value already set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
