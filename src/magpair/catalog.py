"""Closed-form coupling catalog for degrees n = 0..8.

Explicit radical/trigonometric expressions for the quantized lambda values
and the matching polynomial coefficients, in catalog branch order j = 1,
2, ... (ground branch first; for n >= 7 the order is NOT monotone in
lambda).  These formulas are an independent route to the same branches the
secular solver produces; compare_catalog_with_solver quantifies the
agreement per branch and per coefficient.

Two reading conventions are locked in here and surfaced by the comparison
report rather than silently patched:

* the rho^7 coefficient formula for n = 8 disagrees with the secular
  eigenvectors for |s| >= 1: its 7 lambda |s| (657 + 176 |s|) term would
  need the factor 56 instead of 7 to restore agreement.  The formula is
  kept in the stated form, so the report shows an O(1e-2) coefficient
  deviation there while every other slot matches to rounding;
* the constant D in the rho^8 numerator uses |s| (the eigenpolynomials
  depend on s only through |s|; the comparison confirms this reading).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rules import _integer
from .polyops import Polynomial
from .qes import eigenfunction, secular_spectrum
from .system import CaseTag

__all__ = [
    "BranchComparison",
    "CatalogComparison",
    "MAX_CATALOG_DEGREE",
    "catalog_polynomial",
    "closed_form_lambdas",
    "compare_catalog_with_solver",
]

MAX_CATALOG_DEGREE = 8


# The closed forms keep a wide margin from the domain edges of acos and
# sqrt: over n = 5..8 and |s| <= 2000 and 10^4..10^8, |cos theta| <= 0.881
# and min z_i >= 0.04 max z_i, so neither needs a clamp.

def _aux_cubic(n: int, a: float) -> tuple[float, float, float]:
    """(center, amplitude, theta) of the n = 5, 6 branches
    center + amplitude * cos((theta + 2(j-1)pi)/3), j = 1, 2, 3."""
    if n == 5:
        radicand = 1251.0 + 448.0 * a * (3.0 + a)
        center = (35.0 / 3.0) * (3.0 + 2.0 * a)
        num = 20.0 * (3.0 + 2.0 * a) * (531.0 + 384.0 * a + 128.0 * a * a)
    else:  # n == 6
        radicand = 3211.0 + 392.0 * a * (7.0 + 2.0 * a)
        center = (28.0 / 3.0) * (7.0 + 4.0 * a)
        num = 8.0 * (7.0 + 4.0 * a) * (1939.0 + 1001.0 * a + 286.0 * a * a)
    amplitude = (4.0 / 3.0) * math.sqrt(radicand)
    return center, amplitude, math.acos(num / radicand ** 1.5)


def _aux_quartic(n: int, a: float) -> tuple[float, tuple[float, ...]]:
    """(center, z) of the n = 7, 8 branches center +/- sqrt(z1) +/- sqrt(z2)
    +/- sqrt(z3); the z_i come from a cosine triple with phases
    (theta + 2 i pi)/3, i = 1, 2, 3."""
    w = a * (4.0 + a) if n == 7 else a * (9.0 + 2.0 * a)
    if n == 7:
        a1, a2, a3 = 571527.0, 24416241.0, 246083.0
        radicand = a1 + 896.0 * w * (281.0 + 32.0 * w)
        f = 2287.0 + 448.0 * w
        num = 9.0 * math.sqrt(3.0) * (a2 + 64.0 * w * (a3 + 64.0 * w * (843.0 + 64.0 * w)))
        center = 42.0 * (2.0 + a)
    else:  # n == 8
        a1, a2, a3 = 2750247.0, 246596481.0, 7243319.0
        radicand = a1 + 4528.0 * w * (97.0 + 4.0 * w)
        f = 4671.0 + 344.0 * w
        num = 9.0 * math.sqrt(3.0) * (a2 + 8.0 * w * (a3 + 1976.0 * w * (291.0 + 8.0 * w)))
        center = 15.0 * (9.0 + 4.0 * a)
    theta = math.acos(num / radicand ** 1.5)
    amp = math.sqrt(12.0 * radicand)
    return center, tuple(amp * math.cos((theta + 2.0 * i * math.pi) / 3.0) + f
                         for i in (1, 2, 3))


def closed_form_lambdas(n: int, s: int) -> tuple[float, ...]:
    """Catalog lambda values at (n, s) in catalog branch order j = 1, 2, ...

    The list holds the branches with kappa > 0 (one per +/- pair), except
    for n = 0 whose single entry is the zero-coupling lambda = 0.  For
    n >= 7 the catalog order is not descending in lambda.
    """
    n, s = _integer(n, "n", 0, MAX_CATALOG_DEGREE), _integer(s, "s")
    a = float(abs(s))
    if n == 0:
        return (0.0,)
    if n == 1:
        return (1.0 + 2.0 * a,)
    if n == 2:
        return (6.0 + 8.0 * a,)
    if n == 3:
        root = math.sqrt(73.0 + 128.0 * a + 64.0 * a * a)
        return tuple(10.0 + 10.0 * a - (-1.0) ** j * root for j in (1, 2))
    if n == 4:
        root = 3.0 * math.sqrt(33.0 + 40.0 * a + 16.0 * a * a)
        return tuple(25.0 + 20.0 * a + (-1.0) ** (j + 1) * root for j in (1, 2))
    if n in (5, 6):
        center, amplitude, theta = _aux_cubic(n, a)
        return tuple(
            amplitude * math.cos((theta + 2.0 * (j - 1) * math.pi) / 3.0)
            + center
            for j in (1, 2, 3))
    c, z = _aux_quartic(n, a)
    r1, r2, r3 = (math.sqrt(zi) for zi in z)
    return (c + r1 + r2 + r3, c + r1 - r2 - r3, c - r1 - r2 + r3, c - r1 + r2 - r3)


def _coeff_tail(n: int, lam: float, sq: float, a: float) -> list[float]:
    """Catalog coefficients for rho^2 and beyond (n >= 2)."""
    c2_den = 4.0 + 12.0 * a + 8.0 * a * a
    c3_den = 12.0 * (1.0 + a) * (1.0 + 2.0 * a) * (3.0 + 2.0 * a)
    c4_den = 96.0 * (1.0 + a) * (2.0 + a) * (1.0 + 2.0 * a) * (3.0 + 2.0 * a)
    c5_den = c4_den * 5.0 * (5.0 + 2.0 * a)
    c6_den = 5760.0 * (1.0 + a) * (2.0 + a) * (3.0 + a) * (1.0 + 2.0 * a) \
        * (3.0 + 2.0 * a) * (5.0 + 2.0 * a)
    c7_den = c6_den * 7.0 * (7.0 + 2.0 * a)
    c8_den = 645120.0 * (1.0 + a) * (2.0 + a) * (3.0 + a) * (4.0 + a) \
        * (1.0 + 2.0 * a) * (3.0 + 2.0 * a) * (5.0 + 2.0 * a) * (7.0 + 2.0 * a)
    odd3 = (1.0 + 2.0 * a) * (3.0 + 2.0 * a) * (5.0 + 2.0 * a)
    tail: list[float] = []

    if n == 2:
        tail = [(lam - 2.0 - 4.0 * a) / c2_den]
    elif n == 3:
        tail = [(lam - 3.0 - 6.0 * a) / c2_den,
                sq * (lam - 11.0 - 14.0 * a) / c3_den]
    elif n == 4:
        tail = [(lam - 4.0 - 8.0 * a) / c2_den,
                sq * (lam - 16.0 - 20.0 * a) / c3_den,
                (lam * lam - lam * (34.0 + 32.0 * a)
                 + 24.0 * (3.0 + 8.0 * a + 4.0 * a * a)) / c4_den]
    elif n == 5:
        tail = [(lam - 5.0 - 10.0 * a) / c2_den,
                sq * (lam - 21.0 - 26.0 * a) / c3_den,
                (lam * lam - 4.0 * lam * (12.0 + 11.0 * a)
                 + 45.0 * (3.0 + 8.0 * a + 4.0 * a * a)) / c4_den,
                sq * (lam * lam - lam * (80.0 + 60.0 * a)
                      + 807.0 + 1528.0 * a + 596.0 * a * a) / c5_den]
    elif n == 6:
        tail = [(lam - 6.0 - 12.0 * a) / c2_den,
                sq * (lam - 26.0 - 32.0 * a) / c3_den,
                (lam * lam - lam * (62.0 + 56.0 * a)
                 + 72.0 * (3.0 + 8.0 * a + 4.0 * a * a)) / c4_den,
                sq * (lam * lam - lam * (110.0 + 80.0 * a)
                      + 24.0 * (61.0 + 114.0 * a + 44.0 * a * a)) / c5_den,
                (lam ** 3 - 2.0 * lam * lam * (80.0 + 50.0 * a)
                 + 4.0 * lam * (1141.0 + 2.0 * a * (847.0 + 272.0 * a))
                 - 720.0 * odd3) / c6_den]
    elif n == 7:
        f7 = -189153.0 - 6.0 * a * (72439.0 + 46138.0 * a + 8644.0 * a * a)
        tail = [(lam - 7.0 - 14.0 * a) / c2_den,
                sq * (lam - 31.0 - 38.0 * a) / c3_den,
                (lam * lam - 2.0 * lam * (38.0 + 34.0 * a)
                 + 315.0 + 840.0 * a + 420.0 * a * a) / c4_den,
                sq * (lam * lam - lam * (140.0 + 100.0 * a)
                      + 2299.0 + 4264.0 * a + 1636.0 * a * a) / c5_den,
                (lam ** 3 - 5.0 * lam * lam * (43.0 + 26.0 * a)
                 + lam * (7999.0 + 4.0 * a * (2911.0 + 919.0 * a))
                 - 1575.0 * odd3) / c6_den,
                sq * (lam ** 3 - 7.0 * lam * lam * (41.0 + 22.0 * a)
                      + 28.0 * lam * a * (793.0 + 217.0 * a)
                      + 18079.0 * lam + f7) / c7_den]
    elif n == 8:
        f8 = -400896.0 - 576.0 * a * (1583.0 + 1000.0 * a + 186.0 * a * a)
        g8 = -100467.0 - 4.0 * a * (46755.0 + 25226.0 * a + 4096.0 * a * a)
        d8 = 40320.0 * (1.0 + 2.0 * a) * (3.0 + 2.0 * a) * (5.0 + 2.0 * a) \
            * (7.0 + 2.0 * a)
        tail = [(lam - 8.0 - 16.0 * a) / c2_den,
                sq * (lam - 36.0 - 44.0 * a) / c3_den,
                (lam * lam - lam * (90.0 + 80.0 * a)
                 + 144.0 * (3.0 + 8.0 * a + 4.0 * a * a)) / c4_den,
                sq * (lam * lam - lam * (170.0 + 120.0 * a)
                      + 3312.0 + 6112.0 * a + 2336.0 * a * a) / c5_den,
                (lam ** 3 - 10.0 * lam * lam * (27.0 + 16.0 * a)
                 + 8.0 * lam * (1539.0 + a * (2214.0 + 692.0 * a))
                 - 2880.0 * odd3) / c6_den,
                # known inconsistency: matching the secular eigenvectors
                # needs 56 lam a (657 + 176 a) here, not 7; kept deliberately
                sq * (lam ** 3 - 14.0 * lam * lam * (27.0 + 14.0 * a)
                      + 7.0 * lam * a * (657.0 + 176.0 * a)
                      + 30672.0 * lam + f8) / c7_den,
                (lam ** 4 - 28.0 * lam ** 3 * (17.0 + 8.0 * a)
                 + 4.0 * lam * lam * (14283.0 + 224.0 * a * (67.0 + 16.0 * a))
                 + 16.0 * lam * g8 + d8) / c8_den]
    return tail


def catalog_polynomial(n: int, s: int, j: int) -> Polynomial:
    """Closed-form eigenpolynomial p_{n,j}, normalized to p(0) = 1.

    j is the 1-based catalog branch index; branch count is 1 for n <= 2
    (the n = 0 entry being the constant of the zero-coupling branch) and
    grows to 4 at n = 7, 8.  Coefficients are stated for the kappa > 0
    branch; the kappa < 0 mirror is its parity flip.
    """
    n, s = _integer(n, "n", 0, MAX_CATALOG_DEGREE), _integer(s, "s")
    lams = closed_form_lambdas(n, s)
    j = _integer(j, "j", 1)
    if j > len(lams):
        raise ValueError(f"branch j = {j} outside 1..{len(lams)} for n = {n}")
    lam = lams[j - 1]
    a = float(abs(s))
    if n == 0:
        return Polynomial((1.0,))
    sq = math.sqrt(lam)
    coeffs = [1.0, sq / (1.0 + 2.0 * a)]
    coeffs.extend(_coeff_tail(n, lam, sq, a))
    return Polynomial(tuple(coeffs))


@dataclass(frozen=True)
class BranchComparison:
    """Catalog branch j against its nearest-lambda secular partner."""

    j: int
    lam_rel_err: float
    coeff_max_abs_err: float
    worst_coeff_index: int


@dataclass(frozen=True)
class CatalogComparison:
    n: int
    s: int
    branches: tuple[BranchComparison, ...]

    @property
    def max_lam_rel_err(self) -> float:
        return max(b.lam_rel_err for b in self.branches)

    @property
    def max_coeff_abs_err(self) -> float:
        return max(b.coeff_max_abs_err for b in self.branches)


def compare_catalog_with_solver(n: int, s: int) -> CatalogComparison:
    """Match every catalog branch to the secular solver output.

    Each catalog lambda is paired with the nearest solver lambda among the
    kappa >= 0 branches; relative lambda error, the worst polynomial
    coefficient deviation and its power of rho are recorded per branch.
    For n = 8, |s| >= 1 that worst power is rho^7 at an O(1e-2)
    deviation (see the module docstring); `magpair verify` keeps it
    visible as a canary row.
    """
    n, s = _integer(n, "n", 0, MAX_CATALOG_DEGREE), _integer(s, "s")
    points = secular_spectrum(n, s, CaseTag.EQUAL_LARMOR)
    candidates = [p for p in points if p.kappa >= 0.0]
    rows = []
    for j, lam_cf in enumerate(closed_form_lambdas(n, s), start=1):
        best = min(candidates, key=lambda p: abs(p.lam - lam_cf))
        rel = abs(best.lam - lam_cf) / max(1.0, abs(best.lam))
        pair = eigenfunction(n, s, best)
        p_cf = catalog_polynomial(n, s, j)
        diff = np.abs(np.asarray(pair.polynomial.coeffs) - np.asarray(p_cf.coeffs))
        worst = int(np.argmax(diff))
        rows.append(BranchComparison(j=j, lam_rel_err=rel,
                                     coeff_max_abs_err=float(diff[worst]),
                                     worst_coeff_index=worst))
    return CatalogComparison(n=n, s=s, branches=tuple(rows))
