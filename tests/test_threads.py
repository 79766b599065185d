"""The OpenBLAS thread rule: importing magpair pins OpenBLAS to one thread
unless the caller has set OPENBLAS_NUM_THREADS.

Each case runs in a fresh interpreter with the variable removed from its
environment, because OpenBLAS reads it once, when the library loads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import magpair

_SETTING_PROBE = """
import os
import magpair
print(os.environ["OPENBLAS_NUM_THREADS"])
"""

_THREAD_PROBE = """
import os
import magpair
magpair.oracle._lapack()
print(len(os.listdir("/proc/self/task")))
"""


def _probe(code, **env):
    base = {k: v for k, v in os.environ.items()
            if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = str(Path(magpair.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=base | env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.strip()


def test_importing_magpair_sets_one_thread_when_unset():
    assert _probe(_SETTING_PROBE) == "1"


def test_a_thread_count_the_caller_set_wins():
    assert _probe(_SETTING_PROBE, OPENBLAS_NUM_THREADS="3") == "3"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
def test_numpy_and_scipy_openblas_start_no_worker_thread():
    # numpy's OpenBLAS loads with the package, scipy's with the oracle's
    # LAPACK extension; unpinned, each adds an idle worker thread per
    # extra core (3 threads in all on a 2-core host)
    assert _probe(_THREAD_PROBE) == "1"
