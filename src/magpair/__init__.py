"""Quasi-exactly-solvable spectra of two planar charges in a magnetic field.

The package computes the quantized Coulomb couplings and polynomial
eigenfunctions of the relative motion for the two solvable regimes of a
planar charge pair (equal Larmor frequencies, and a neutral pair at rest),
realizes the underlying finite-dimensional operator algebra exactly,
cross-checks the spectra against a closed-form catalog and an independent
finite-difference oracle, and covers the center-of-mass Landau sector.

The package exports what its eight library modules export.
"""

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
