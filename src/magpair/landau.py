"""Center-of-mass Landau sector of a charged pair (q != 0).

The CM motion is a charge-q particle of mass M in the field B: Landau
levels labelled by the principal number N >= 0 and the magnetic quantum
number S.  The squared pseudomomentum is tied to the energy by the
operator identity K^2 = 2 q B L_z + 2 M H_R, which on a level (N, S)
closes exactly in integer arithmetic; casimir_identity_check evaluates
the residual with no algebraic pre-cancellation.

H_R = p^2/2M - (q B/2M) L_z + q^2 B^2 R^2/8M depends on the sign of q B
only through the L_z term, so with sigma = sign(q B) the levels carry
|omega_c| and sigma S: a pair of negative charges has the levels of its
charge conjugate with S mirrored.

A neutral pair has no Landau levels.  cm_energy, pseudomomentum_sq and
cm_wavefunction refuse it through _charged, the sector's one
precondition; casimir_identity_check refuses it through them.  A level
or residual beyond the double range raises ValueError
(magpair._rules._in_range).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rules import _in_range, _integer
from .system import DerivedParams, _radial_samples, _sign

__all__ = [
    "CMState",
    "LAGUERRE_ARGUMENT_NOTE",
    "casimir_identity_check",
    "cm_energy",
    "cm_wavefunction",
    "laguerre",
    "pseudomomentum_sq",
]

#: cm_wavefunction pairs the Gaussian exp(-M omega_c R^2 / 4) with the
#: Laguerre argument 2 R^2 / (M omega_c).  A dimensionally uniform
#: oscillator profile would carry M omega_c R^2 / 2 inside the Laguerre
#: polynomial as well; the mixed convention is kept on purpose, and this
#: exported note states it for consumers that print or store samples.
LAGUERRE_ARGUMENT_NOTE = "laguerre argument 2 R^2 / (M omega_c); gaussian exponent M omega_c R^2 / 4"


def _charged(x: float) -> float:
    """x = q B or omega_c of a charged pair, returned as given; 0 (q = 0)
    raises ValueError."""
    if x == 0.0:
        raise ValueError("the Landau sector needs a charged pair (q != 0)")
    return x


@dataclass(frozen=True)
class CMState:
    """Landau level of the center of mass, N >= 0 and S stored as ints."""

    N: int
    S: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "N", _integer(self.N, "N", 0))
        object.__setattr__(self, "S", _integer(self.S, "S"))


def laguerre(N: int, alpha: float, x):
    """Generalized Laguerre polynomial L_N^(alpha)(x) by the three-term
    recurrence (k+1) L_{k+1} = (2k + 1 + alpha - x) L_k - (k + alpha) L_{k-1}."""
    N = _integer(N, "N", 0)
    xs = np.asarray(x, dtype=float)
    prev = np.ones_like(xs)
    if N == 0:
        return float(prev) if prev.ndim == 0 else prev
    cur = 1.0 + alpha - xs
    for k in range(1, N):
        prev, cur = cur, ((2.0 * k + 1.0 + alpha - xs) * cur
                          - (k + alpha) * prev) / (k + 1.0)
    return float(cur) if cur.ndim == 0 else cur


def cm_energy(state: CMState, dp: DerivedParams) -> float:
    """Landau level energy E_R = (|omega_c| / 2)(2N + 1 + |S| - sigma S),
    sigma = sign(q B).

    Degenerate in S for all sigma S >= 0 at fixed N.
    """
    omega_c = _charged(dp.omega_c)
    return _in_range(0.5 * abs(omega_c) * (2 * state.N + 1 + abs(state.S)
                                           - _sign(omega_c) * state.S), "E_R")


def pseudomomentum_sq(state: CMState, q: float, B: float) -> float:
    """Squared pseudomomentum K^2 = |q B| (2N + 1 + |S| + sigma S),
    sigma = sign(q B).

    Degenerate in S for all sigma S <= 0 at fixed N.
    """
    qb = _charged(q * B)
    k2 = abs(qb) * (2 * state.N + 1 + abs(state.S) + _sign(qb) * state.S)
    return _in_range(k2, "K^2")


def casimir_identity_check(state: CMState, dp: DerivedParams) -> float:
    """Residual of K^2 - 2 q B S - 2 M E_R, which vanishes identically.

    Evaluated through the public operations, so rounding enters only
    through q B / M; with dyadic-exact parameters the residual is 0.0.
    """
    k2 = pseudomomentum_sq(state, dp.q, dp.B)
    return _in_range(k2 - 2.0 * dp.q * dp.B * state.S
                     - 2.0 * dp.M * cm_energy(state, dp), "casimir residual")


def cm_wavefunction(state: CMState, dp: DerivedParams, R_grid) -> np.ndarray:
    """Samples of the radial CM orbital on R_grid.

    chi(R) = R^|S| exp(-M |omega_c| R^2 / 4) L_N^(|S|)(2 R^2 / (M |omega_c|));
    see LAGUERRE_ARGUMENT_NOTE for the argument convention.  The orbital
    depends on omega_c only through |omega_c|, so a pair and its charge
    conjugate share it.  The grid rules, and the zero where the Gaussian
    underflows, are magpair.system._radial_samples'.
    """
    s_abs = abs(state.S)
    m_om = dp.M * abs(_charged(dp.omega_c))
    return _radial_samples(
        R_grid, s_abs, m_om,
        lambda x: laguerre(state.N, float(s_abs), 2.0 * x * x / m_om))
