"""Test-session setup, run before any test module imports numpy.

The win-table and kernel products are too small to gain from BLAS threads,
and a multi-threaded OpenBLAS on a loaded host can make them hundreds of
times slower, so the suite runs on one BLAS thread, as the benchmark's
child processes do.  A value already set in the environment is kept.

The `run_limited` fixture runs Python in a child process with a capped
address space and a timeout, for the tests at huge player counts: a
regression that tries to build a row per seat there fails in the child, with
a MemoryError or exit 2, instead of exhausting the host.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# the child's address space: numpy and the package take about 0.1 GiB of it
_CHILD_BYTES = 1 << 30


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (_CHILD_BYTES, _CHILD_BYTES))


@pytest.fixture
def run_limited():
    """`run(*args, timeout=30)`: `python args` on the package these tests
    import, under RLIMIT_AS of 1 GiB, killed after `timeout` seconds
    (subprocess.TimeoutExpired); returns the CompletedProcess, its output
    as text."""
    import showdown

    src = str(Path(showdown.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(*args, timeout=30.0):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env,
            timeout=timeout, preexec_fn=_cap_address_space,
        )

    return run
