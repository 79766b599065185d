"""Quasi-exactly-solvable spectra of two planar charges in a magnetic field.

The package computes the quantized Coulomb couplings and polynomial
eigenfunctions of the relative motion for the two solvable regimes of a
planar charge pair (equal Larmor frequencies, and a neutral pair at rest),
realizes the underlying finite-dimensional operator algebra exactly,
cross-checks the spectra against a closed-form catalog and an independent
finite-difference oracle, and covers the center-of-mass Landau sector.
"""

from .system import CaseTag, ChargePair, DerivedParams, classify, derive
from .polyops import Polynomial, evaluate, parity_flip
from .sl2rep import (CommutatorReport, build_T_algebraic, build_T_direct,
                     commutator_check, jminus, jplus, jzero)
from .qes import (EigenPair, IllConditionedError, NonNormalizableError,
                  RadialSample, Sector, SpectralPoint, ZeroCouplingError,
                  assemble_wavefunction, dimensionless_energy, eigenfunction,
                  field_quantization, secular_spectrum)
from .catalog import (BranchComparison, CatalogComparison, ClosedFormAux,
                      catalog_polynomial, closed_form_aux, closed_form_lambdas,
                      compare_catalog_with_solver)
from .oracle import (MatchReport, MismatchError, OracleResult, OrderReport,
                     RadialGrid, convergence_order, default_grid,
                     fd_kappa_spectrum, oracle_match)
from .landau import (CMSample, CMState, casimir_identity_check, cm_energy,
                     cm_wavefunction, laguerre, pseudomomentum_sq)
from .integrals import (AnnihilationReport, ParticularIntegralReport,
                        annihilation_check, build_annihilator,
                        commutator_particular_check, gauge_rotated_action)

__version__ = "0.1.0"

__all__ = [
    "AnnihilationReport", "BranchComparison", "CMSample", "CMState",
    "CaseTag", "CatalogComparison", "ChargePair", "ClosedFormAux",
    "CommutatorReport", "DerivedParams", "EigenPair", "IllConditionedError",
    "MatchReport",
    "MismatchError", "NonNormalizableError", "OracleResult", "OrderReport",
    "ParticularIntegralReport", "Polynomial", "RadialGrid", "RadialSample",
    "Sector", "SpectralPoint", "ZeroCouplingError", "annihilation_check",
    "assemble_wavefunction", "build_T_algebraic", "build_T_direct",
    "build_annihilator", "casimir_identity_check",
    "catalog_polynomial", "classify", "closed_form_aux",
    "closed_form_lambdas", "cm_energy", "cm_wavefunction",
    "commutator_check", "commutator_particular_check",
    "compare_catalog_with_solver", "convergence_order",
    "default_grid", "derive", "dimensionless_energy",
    "eigenfunction", "evaluate", "fd_kappa_spectrum", "field_quantization",
    "gauge_rotated_action", "jminus", "jplus", "jzero", "laguerre",
    "oracle_match", "parity_flip", "pseudomomentum_sq", "secular_spectrum",
]
