"""Charge-pair input, derived scales, and solvable-case classification.

Two planar charges (e1, m1), (e2, m2) in a uniform perpendicular field B.
The relative motion becomes quasi-exactly solvable in exactly two regimes:

  EqualLarmor  e1/m1 == e2/m2 (equal cyclotron frequencies; the coupling
               charge ec vanishes and the center of mass separates)
  Neutral      e1 + e2 == 0 (the pair at rest, pseudomomentum zero)

Everything downstream keys off this classification.  Neutral is checked
first; a pair satisfying both tolerances within rounding is impossible for
nonzero charges, but the ordering makes the tie deterministic anyway.

It also holds the physics rules the other modules share: _sign
(sigma = sign(q B)), _radial_samples (profiles on a radial grid), _classify
(the case rule) and _require_case (dp fits a case, or ValueError).  The
input rules, _integer and _in_range, live in magpair._rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from ._rules import _in_range

__all__ = [
    "CaseTag",
    "ChargePair",
    "DerivedParams",
    "TOL_REL",
    "classify",
    "derive",
]

#: Relative tolerance for the case classification tests.
TOL_REL = 1e-12


def _sign(x: float) -> int:
    """sigma = sign(x) of the energy formulas, +1 at zero."""
    return -1 if x < 0.0 else 1


def _radial_samples(grid, a: int, c: float, f) -> np.ndarray:
    """rho^a exp(-c rho^2 / 4) f(rho) on grid, a nonempty, strictly
    ascending, nonnegative 1-D array (NaN is neither).  Where the Gaussian
    underflows to 0 the sample is 0; f sees the other nodes only."""
    r = np.asarray(grid, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("grid must be a nonempty 1-D array")
    if not np.all(r >= 0.0) or (r.size > 1 and np.any(np.diff(r) <= 0.0)):
        raise ValueError("grid must be strictly ascending and nonnegative")
    with np.errstate(over="ignore"):
        # far out rho^2 overflows, and the Gaussian is 0 there
        gauss = np.exp((-0.25 * c) * r * r)
    live = gauss > 0.0
    samples = np.zeros_like(r)
    x = r[live]
    samples[live] = np.power(x, a) * gauss[live] * f(x)
    return samples


class CaseTag(Enum):
    EQUAL_LARMOR = "EqualLarmor"
    NEUTRAL = "Neutral"
    GENERIC = "Generic"


# for _require_case: on Python 3.11 a CaseTag.X lookup costs about 0.1 us
_NEUTRAL, _GENERIC = CaseTag.NEUTRAL, CaseTag.GENERIC


@dataclass(frozen=True)
class ChargePair:
    """Raw input: two charges, two masses, one field."""

    e1: float
    e2: float
    m1: float
    m2: float
    B: float

    def __post_init__(self) -> None:
        vals = (self.e1, self.e2, self.m1, self.m2, self.B)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("all parameters must be finite")
        if self.m1 <= 0 or self.m2 <= 0:
            raise ValueError("masses must be positive")
        if self.B <= 0:
            raise ValueError("magnetic field must be positive")
        if self.e1 == 0 and self.e2 == 0:
            raise ValueError("at least one charge must be nonzero")


@dataclass(frozen=True)
class DerivedParams:
    """Derived scales of a charge pair.

    Quantities that only make sense in one solvable case are None outside
    it (Omega_q, omega_q for Neutral; B0 and b exist for both solvable
    cases, None for Generic).  For a neutral pair the particle labels are
    swapped on derivation if needed so that e1 > 0; e1, e2, B echo the
    inputs after that swap.
    """

    e1: float
    e2: float
    B: float
    M: float
    mr: float
    mu1: float
    mu2: float
    q: float
    ec: float
    qw: float
    omega_c: float
    Omega_q: float | None
    omega_q: float | None
    B0: float | None
    b: float | None

    @cached_property
    def _case(self) -> CaseTag:
        # tested once per instance; dataclasses.replace builds a new one
        return _classify(self.e1, self.e2, self.mu1, self.mu2, self.q, self.ec)


def _classify(e1, e2, mu1, mu2, q, ec) -> CaseTag:
    """The case rule as classify states it; derive and classify apply it."""
    if abs(q) <= TOL_REL * max(abs(e1), abs(e2)):
        return CaseTag.NEUTRAL
    if abs(ec) <= TOL_REL * max(abs(e1 * mu2), abs(e2 * mu1)):
        return CaseTag.EQUAL_LARMOR
    return CaseTag.GENERIC


def _require_case(dp: DerivedParams, case: CaseTag) -> None:
    """dp classifies to case and has the fields derive sets for it, else
    ValueError; the field test catches a self-contradicting hand-built dp."""
    got = dp._case
    if got is not case:
        raise ValueError(
            f"parameters classify as {got.value}, not {case.value}")
    if (dp.B0 is None and case is not _GENERIC) or (case is _NEUTRAL and (
            dp.Omega_q is None or dp.omega_q is None)):
        raise ValueError(f"{case.value} parameters lack their case's fields")


def derive(pair: ChargePair) -> DerivedParams:
    """Compute the derived scales of a charge pair.

    Conventions:
      q  = e1 + e2                    total charge
      ec = e1 mu2 - e2 mu1            coupling charge, = mr (e1/m1 - e2/m2)
      qw = e1 mu2^2 + e2 mu1^2        weighted total charge
      omega_c = q B / M               cyclotron frequency of the pair
      Omega_q = e1 B / (2 mr)         neutral only (e1 > 0 after the swap)
      omega_q = e1 B (mu2 - mu1) / mr neutral only, signed
      B0 = 4 mr M e1^2 e2^2 / |q|     equal-Larmor characteristic field
      B0 = 4 mr^2 e1^3                neutral characteristic field
      b  = B / B0                     dimensionless field

    Equal-Larmor charges share one sign.  For a pair of negative charges
    omega_c is negative, while B0 and b stay positive: the pair has its
    charge conjugate's characteristic field.  The relative energy
    (magpair.qes.dimensionless_energy) and the Landau sector
    (magpair.landau) read omega_c through |omega_c| and sign(q B), so
    their levels are physical for either sign.

    At zero pseudomomentum the neutral relative Hamiltonian is
    p^2/(2 mr) + e1^2 B^2 r^2/(8 mr) - (omega_q / 2) L_z - e1^2/r, so
    omega_q carries the sign of mu2 - mu1: positive when the positive
    charge is the lighter one, negative when it is the heavier one (as in
    hydrogen), and zero for equal masses.

    A pair whose scales leave the double range is refused (ValueError, see
    magpair._rules._in_range): any field that is not finite, or a scale
    that no valid pair makes 0 (M, mr, mu1, mu2, Omega_q, B0, b, and
    omega_c outside the neutral case) rounded to 0 or to a subnormal.
    """
    e1, e2, m1, m2, B = pair.e1, pair.e2, pair.m1, pair.m2, pair.B
    M = _in_range(m1 + m2, "M")
    mr = _in_range(m1 * m2 / M, "mr", nonzero=True)
    mu1 = _in_range(m1 / M, "mu1", nonzero=True)
    mu2 = _in_range(m2 / M, "mu2", nonzero=True)
    q = _in_range(e1 + e2, "q")
    ec = _in_range(e1 * mu2 - e2 * mu1, "ec")
    case = _classify(e1, e2, mu1, mu2, q, ec)
    if case is CaseTag.NEUTRAL and e1 < 0:
        # swap the labels: q, M, mr and the case stay, ec changes sign
        e1, e2, mu1, mu2, ec = e2, e1, mu2, mu1, -ec
    qw = _in_range(e1 * mu2 ** 2 + e2 * mu1 ** 2, "qw")
    omega_c = _in_range(q * B / M, "omega_c", nonzero=case is not _NEUTRAL)

    Omega_q: float | None = None
    omega_q: float | None = None
    B0: float | None = None
    b: float | None = None
    if case is CaseTag.NEUTRAL:
        Omega_q = _in_range(e1 * B / (2.0 * mr), "Omega_q", nonzero=True)
        omega_q = _in_range(e1 * B * (mu2 - mu1) / mr, "omega_q")
    if case is not CaseTag.GENERIC:
        try:
            B0 = (4.0 * mr ** 2 * e1 ** 3 if case is CaseTag.NEUTRAL
                  else 4.0 * mr * M * e1 ** 2 * e2 ** 2 / abs(q))
        except OverflowError:  # a float ** raises where * returns inf
            B0 = math.inf
        B0 = _in_range(B0, "B0", nonzero=True)
        b = _in_range(B / B0, "b", nonzero=True)

    return DerivedParams(e1=e1, e2=e2, B=B, M=M, mr=mr, mu1=mu1, mu2=mu2,
                         q=q, ec=ec, qw=qw, omega_c=omega_c,
                         Omega_q=Omega_q, omega_q=omega_q, B0=B0, b=b)


def classify(dp: DerivedParams) -> CaseTag:
    """Case tag from derived parameters.

    Neutral: |q| small against max(|e1|, |e2|).
    EqualLarmor: |ec| small against max(|e1 mu2|, |e2 mu1|).
    Neutral wins if both tests pass.  The tag is computed once per
    DerivedParams instance and cached on it.
    """
    return dp._case
