"""Quasi-exactly-solvable spectra of two planar charges in a magnetic field.

The package computes the quantized Coulomb couplings and polynomial
eigenfunctions of the relative motion for the two solvable regimes of a
planar charge pair (equal Larmor frequencies, and a neutral pair at rest),
realizes the underlying finite-dimensional operator algebra exactly,
cross-checks the spectra against a closed-form catalog and an independent
finite-difference oracle, and covers the center-of-mass Landau sector.

The package exports what its eight library modules export.

Threads: importing magpair sets OPENBLAS_NUM_THREADS to 1 unless the
caller has set it.  magpair's dense eigensolves are at most 65 x 65 and
its tridiagonal LAPACK solves run on one thread, so a second thread gets
almost no work, and the idle workers of numpy's and scipy's two OpenBLAS
copies only spin against the main thread: on a 2-core host a standalone `magpair verify` took about
370 ms with them and 245 ms without.  To run OpenBLAS threaded, set
OPENBLAS_NUM_THREADS yourself before importing magpair.  The setting stays
in os.environ, so in a process that imports magpair before numpy both
OpenBLAS copies run single-threaded, and child processes inherit it.
The thread count can change the trailing digits of finite-difference
couplings on grids of more than about 10,000 points, because OpenBLAS
splits long dot products between threads; no printed CLI result changes.
"""

import os

# before numpy loads: OpenBLAS reads its thread count when it is loaded,
# numpy's copy on the imports below and scipy's on the oracle's first solve
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import catalog, integrals, landau, oracle, polyops, qes, sl2rep, system
from .system import *  # noqa: F401,F403
from .polyops import *  # noqa: F401,F403
from .sl2rep import *  # noqa: F401,F403
from .qes import *  # noqa: F401,F403
from .catalog import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .landau import *  # noqa: F401,F403
from .integrals import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted({name for module in (system, polyops, sl2rep, qes, catalog,
                                      oracle, landau, integrals)
                  for name in module.__all__})
