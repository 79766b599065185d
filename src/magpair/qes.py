"""Quantized couplings and polynomial eigenfunctions on P_n.

At the oscillator energy E = (n + 1 + |s| - s)/2 (units of the cyclotron
frequency) the radial problem restricted to P_n = span(1, rho, ..., rho^n)
turns the Coulomb coupling into the spectral parameter:

    T(n, |s|) p = -kappa p,  T tridiagonal with zero diagonal.

The substitution c_k = d_k w_k with positive scale factors d_k symmetrizes
T, so the whole coupling spectrum comes from one symmetric tridiagonal
eigensolve and is real by construction, symmetric under kappa -> -kappa.

Spectral conventions used everywhere downstream:
  lambda = kappa^2, b = 1/lambda (dimensionless field; undefined at lambda=0)
  physical branches: kappa > 0 for EqualLarmor, kappa < 0 for Neutral
  j = 1, 2, ... ranks physical branches by descending lambda; j = 0 marks
  retained unphysical and zero-coupling branches
  branch order: descending lambda, ties ascending kappa (the negative
  member of each +/- pair first, the zero mode of even n last), read off
  the mirror structure of the couplings without a sort
  nodes = number of couplings of the (n, |s|) sector above kappa

Node counts need no root finding.  Multiplied by 2 rho, the radial
equation is the regular Sturm-Liouville problem

    -(rho zeta')' + (s^2/rho + rho^3/4 - 2 E rho) zeta = mu zeta,  mu = -kappa,

with weight 1 and regularity at the origin.  The potential grows without
bound, so the spectrum is discrete and bounded below, and by the
oscillation theorem (Courant-Hilbert vol. I ch. VI; Zettl, Sturm-Liouville
Theory, AMS 2005) the eigenfunction of the k-th eigenvalue mu_k (k = 0, 1,
... in ascending order) has exactly k zeros in (0, inf).  Each of the
n + 1 polynomial solutions zeta = exp(-rho^2/4) rho^|s| p(rho) is such an
eigenfunction; their kappa are distinct because T is unreduced, and each
has at most n positive zeros.  Their zero counts are therefore exactly
0, 1, ..., n, in the order of descending kappa, and they are the n + 1
lowest mu.  With the mirror p_{-kappa}(rho) = p_kappa(-rho) it
follows that all n roots of p are real and simple and that
nodes(kappa) + nodes(-kappa) = n.  The rho^0 coefficient is never zero
(the first component of an eigenvector of an unreduced tridiagonal matrix
is nonzero), so no root sits at the origin.

The rank also fixes the eigenvector: the symmetric eigensolve returns
ascending mu = -kappa, so the branch with k nodes is its column k.

Each sector is solved once per process: its couplings for the 1024 most
recent sectors, its vectors for the 128 most recent.  secular_spectrum
without dp also keeps its points, keyed by the checked (n, s, case), for
the 512 most recent keys; with dp (derived parameters) the points are
built on every call.

The case rule and the check that dp fits a case live in magpair.system.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._rules import _in_range, _integer
from .polyops import Polynomial, evaluate
from .sl2rep import build_T_direct
from .system import (CaseTag, DerivedParams, _radial_samples, _require_case,
                     _sign)

__all__ = [
    "EigenPair",
    "IllConditionedError",
    "MAX_DEGREE",
    "SpectralPoint",
    "ZeroCouplingError",
    "assemble_wavefunction",
    "dimensionless_energy",
    "eigenfunction",
    "field_quantization",
    "secular_spectrum",
]

#: Largest polynomial degree the solver accepts.
MAX_DEGREE = 64

#: Eigenvector backward error above which a solve is treated as failed.
RESIDUAL_LIMIT = 1e-8


class ZeroCouplingError(ValueError):
    """The lambda = 0 branch has no magnetic field attached (b = 1/lambda)."""


class IllConditionedError(RuntimeError):
    """Eigenvector lost to rounding (its rho^0 component or residual)."""


@dataclass(frozen=True)
class SpectralPoint:
    """One root of the secular problem at fixed (n, s).

    nodes is the number of positive roots of its eigenpolynomial, read off
    its rank in the sector's spectrum (see the module docstring).

    secular_spectrum fills its points' fields without calling __init__
    (see _build_points), but they are ordinary frozen instances: equality,
    hash, repr, pickling, copying and dataclasses.replace behave as for a
    point built by the constructor, and assignment raises
    FrozenInstanceError.
    """

    n: int
    s: int
    j: int
    kappa: float
    lam: float
    b: float | None
    energy: float
    case: CaseTag
    physical: bool
    nodes: int


@dataclass(frozen=True)
class EigenPair:
    """Spectral point with its polynomial and backward error; the node
    count is point.nodes."""

    point: SpectralPoint
    polynomial: Polynomial
    residual: float


def _symmetrized(n: int, a: int):
    """Diagonal, off-diagonal, and back-transform scales of the symmetrized T.

    T has sub entries (k - n) and super entries -(k+1)(k+1+2a); their
    products (n-k)(k+1)(k+1+2a) are positive for k < n, so T is similar to
    the symmetric tridiagonal with off entries -sqrt of those products.
    Coefficients recover as c = scale * w.
    """
    k = np.arange(n, dtype=float)
    prod = (n - k) * (k + 1.0) * (k + 1.0 + 2.0 * a)
    off = -np.sqrt(prod)
    ratio = np.sqrt((n - k) / ((k + 1.0) * (k + 1.0 + 2.0 * a)))
    scale = np.concatenate(([1.0], np.cumprod(ratio)))
    return np.zeros(n + 1), off, scale


def eigh_tridiagonal(d, e, eigvals_only=False):
    """Ascending eigenvalues, and unless eigvals_only the eigenvectors, of
    the symmetric tridiagonal matrix with diagonal d and off-diagonal e.

    A sector matrix is at most (MAX_DEGREE + 1) square, so one dense solve
    on its lower triangle is fast enough and needs nothing beyond numpy.
    """
    m = np.diag(np.asarray(d, dtype=float))
    i = np.arange(len(e))
    m[i + 1, i] = e
    return np.linalg.eigvalsh(m) if eigvals_only else np.linalg.eigh(m)


@functools.lru_cache(maxsize=1024)
def _sector_couplings(n: int, a: int) -> np.ndarray:
    """Ascending couplings of T(n, a) as a read-only array, solved once per
    sector and process.

    Conjugating T by diag((-1)^k) gives exactly -T (the diagonal is zero),
    so the coupling spectrum is symmetric under kappa -> -kappa.  Mirrored
    roots are snapped to exact +/- pairs, and couplings below 1e-12 of the
    largest |kappa| (the exact zero mode of even n) to 0.0.
    """
    d, e, _ = _symmetrized(n, a)
    mu = eigh_tridiagonal(d, e, eigvals_only=True)
    k = np.sort(-mu)  # T p = -kappa p
    k = 0.5 * (k - k[::-1])
    k[np.abs(k) <= 1e-12 * max(1.0, float(np.max(np.abs(k))))] = 0.0
    k.flags.writeable = False
    return k


@functools.lru_cache(maxsize=128)
def _sector_vectors(n: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Back-transformed eigenvectors of T(n, a), column k for the branch
    with k nodes, and the integer T(n, a), both read-only.

    One solve with vectors per sector.  128 entries hold every sector that
    `verify` (70) or an n <= 12, |s| <= 7 spectrum table (104) pairs, in
    under 10 MB even at n = 64.  The couplings stay with _sector_couplings, so they
    never depend on whether vectors were asked for.
    """
    d, e, scale = _symmetrized(n, a)
    _, w = eigh_tridiagonal(d, e)
    vectors, t = scale[:, None] * w, build_T_direct(n, a)
    vectors.flags.writeable = t.flags.writeable = False
    return vectors, t


@functools.lru_cache(maxsize=MAX_DEGREE + 1)
def _branch_order(n: int) -> tuple[int, ...]:
    """Indices into a sector's ascending couplings in the order descending
    lambda, ties ascending kappa: 0, n, 1, n - 1, ..., then n/2 for even n.

    The couplings k_0 < ... < k_n are distinct (T is unreduced) and exact
    mirrors k_i = -k_{n-i} (see _sector_couplings).  So lambda = kappa^2
    falls strictly from one +/- pair to the next going inwards, it ties only
    within a pair, where the negative member k_i (i < n - i) comes first,
    and the zero mode k_{n/2} of even n comes last.  The order depends on n
    alone, so it is built once per degree instead of sorted per call.
    """
    order = []
    for i in range((n + 1) // 2):
        order += (i, n - i)
    if n % 2 == 0:
        order.append(n // 2)
    return tuple(order)


def _require_solvable(case) -> None:
    """case is one of the two solvable tags, else ValueError."""
    if case not in (CaseTag.EQUAL_LARMOR, CaseTag.NEUTRAL):
        raise ValueError("QES branches exist only for EqualLarmor and Neutral")


def dimensionless_energy(n: int, s: int, case: CaseTag,
                         dp: DerivedParams | None = None) -> float:
    """Energy of the branch family at fixed (n, s).

    EqualLarmor: E = (|omega_c| / 2)(n + 1 + |s| - sigma s), sigma =
    sign(q B), so a pair of negative charges has its charge conjugate's
    energies with s mirrored; Neutral: E = Omega_q (n + 1 + |s|) -
    omega_q s / 2, with the signed mass-asymmetry shift omega_q = e1 B
    (mu2 - mu1) / mr of magpair.system.derive, so the level with s > 0
    lies lower when the positive charge is the lighter one and higher when
    it is the heavier one.  Without derived parameters the relevant
    frequency is set to one and omega_q (which needs the masses) to zero,
    giving the energy in units of |omega_c| resp. Omega_q for a
    mass-symmetric pair.  dp, when given, must fit case, and an energy
    beyond the double range raises ValueError.
    """
    n, s = _integer(n, "n", 0), _integer(s, "s")
    _require_solvable(case)
    if dp is not None:
        _require_case(dp, case)
    a = abs(s)
    if case is CaseTag.EQUAL_LARMOR:
        omega_c = 1.0 if dp is None else dp.omega_c
        energy = 0.5 * abs(omega_c) * (n + 1 + a - _sign(omega_c) * s)
    elif dp is None:
        energy = float(n + 1 + a)  # Omega_q = 1, omega_q = 0
    else:
        energy = dp.Omega_q * (n + 1 + a) - 0.5 * dp.omega_q * s
    return _in_range(energy, "energy")


def secular_spectrum(n: int, s: int, case: CaseTag,
                     dp: DerivedParams | None = None) -> list[SpectralPoint]:
    """All n + 1 coupling roots at fixed (n, s), flagged and ranked.

    Points come in the order of descending lambda with ties broken by
    ascending kappa: the negative member of each +/- pair comes first and
    the zero mode of even n last.  That order is read off the mirror
    structure of the couplings, without a sort (see _branch_order).
    Physical branches (see the module docstring for the sign convention
    per case) get j = 1, 2, ...; unphysical and zero-coupling branches are
    retained with j = 0.  Each point's node count is n - i, i its index in
    ascending kappa (oscillation theorem, module docstring).  The exact
    zero mode of even n is snapped to kappa = 0.0, and mirrored roots to
    exact +/- pairs, so the two physical cases quantize to bitwise
    identical fields b.  case and dp are checked by dimensionless_energy;
    dp makes the energies dimensionful.

    Without dp the points depend on (n, s, case) alone, so they are built
    once per checked key and kept for the 512 most recent keys (see
    _unit_points); each call gets a new list of them, and a refused input
    never becomes a key.  With dp they are built on every call.
    """
    n, s = _integer(n, "n", 0, MAX_DEGREE), _integer(s, "s")
    if dp is None:
        _require_solvable(case)  # a refused case never becomes a key
        return list(_unit_points(n, s, case))
    return _build_points(n, s, case, dp)


@functools.lru_cache(maxsize=512)
def _unit_points(n: int, s: int, case: CaseTag) -> tuple[SpectralPoint, ...]:
    """The points of secular_spectrum(n, s, case) without dp, for checked
    arguments only.

    512 entries hold the largest working set that repeats: an n <= 12,
    |s| <= 7 spectrum table over both cases visits 13 x 15 x 2 = 390 keys,
    and a cache smaller than a cyclic working set never hits.
    """
    return tuple(_build_points(n, s, case, None))


def _build_points(n: int, s: int, case: CaseTag,
                  dp: DerivedParams | None) -> list[SpectralPoint]:
    """The points of secular_spectrum, built from the sector's couplings.

    Each point is built the way copy and pickle rebuild a frozen
    dataclass: object.__new__, then one update of its instance dict with
    all ten fields in field order.  The generated frozen __init__ makes
    one object.__setattr__ call per field, about 1.5 us per point on a
    2-core x86-64 host, which made it half of a call with dp at n = 64
    (about 110 us, against 52 us this way).  This is sound only while
    SpectralPoint has no __post_init__ (it would be skipped) and no
    __slots__ (there would be no instance dict to fill);
    tests/test_qes.py pins both.
    """
    energy = dimensionless_energy(n, s, case, dp)
    kappas = _sector_couplings(n, abs(s)).tolist()
    equal_larmor = case is CaseTag.EQUAL_LARMOR
    new = object.__new__

    points: list[SpectralPoint] = []
    j = 0
    for i in _branch_order(n):  # i indexes kappa in ascending order
        kap = kappas[i]
        lam = kap * kap
        physical = kap > 0.0 if equal_larmor else kap < 0.0
        if physical:
            j += 1
        p = new(SpectralPoint)
        vars(p).update(
            n=n, s=s, j=j if physical else 0, kappa=kap, lam=lam,
            b=(1.0 / lam) if lam > 0.0 else None, energy=energy, case=case,
            physical=physical, nodes=n - i)
        points.append(p)
    return points


def _coefficient_residual(c: np.ndarray, t: np.ndarray, kappa: float) -> float:
    """Backward error max|T c + kappa c| / max|c| against the integer T."""
    r = t @ c + kappa * c
    return float(np.max(np.abs(r)) / np.max(np.abs(c)))


def eigenfunction(n: int, s: int, point: SpectralPoint) -> EigenPair:
    """Eigenpolynomial of one spectral point of the (n, s) sector,
    normalized to p(0) = 1, with its backward error against the integer T.

    The eigenvector is column point.nodes of the sector's cached solve
    (see the module docstring), which points of either sign of s and of
    either case share.  Raises ValueError unless point belongs to (n, s)
    and point.nodes is a rank 0..n whose coupling is exactly point.kappa,
    and IllConditionedError when rounding leaves the rho^0 component below
    1e-12 of the largest (it is never zero in exact arithmetic, see the
    module docstring) or the residual above RESIDUAL_LIMIT.
    """
    n, s = _integer(n, "n", 0, MAX_DEGREE), _integer(s, "s")
    if point.n != n or point.s != s:
        raise ValueError("spectral point belongs to a different (n, s)")
    a, k = abs(s), point.nodes
    if not 0 <= k <= n or _sector_couplings(n, a)[n - k] != point.kappa:
        raise ValueError(
            f"kappa is not the coupling of rank {k} in T(n, |s|)")
    vectors, t = _sector_vectors(n, a)
    v = vectors[:, k]
    if abs(v[0]) <= 1e-12 * float(np.max(np.abs(v))):
        raise IllConditionedError("eigenvector has no rho^0 component")
    c = v / v[0]
    res = _coefficient_residual(c, t, point.kappa)
    if res > RESIDUAL_LIMIT:
        raise IllConditionedError(
            f"eigenvector residual {res:.3e} exceeds {RESIDUAL_LIMIT:.0e}")
    return EigenPair(point=point, polynomial=Polynomial(c), residual=res)


def field_quantization(point: SpectralPoint, dp: DerivedParams) -> tuple[float, float]:
    """Dimensionless b = 1/lambda, as secular_spectrum set it on the point,
    and dimensionful field B = b * B0.

    The zero-coupling branch has no field attached: lambda = 0 means either
    vanishing Coulomb interaction or the singular B -> 0 limit, so
    ZeroCouplingError is raised.  dp must fit point.case.
    """
    b = point.b
    if b is None:
        raise ZeroCouplingError("b = 1/lambda is undefined at lambda = 0")
    _require_case(dp, point.case)
    return b, b * dp.B0


def assemble_wavefunction(pair: EigenPair, grid) -> np.ndarray:
    """Radial profile zeta = exp(-rho^2/4) rho^|s| p(rho) sampled on grid.

    In the scaled radial variable both solvable cases share this profile.
    The grid rules, and the zero where the Gaussian underflows, are
    magpair.system._radial_samples'.
    """
    return _radial_samples(grid, abs(pair.point.s), 1.0,
                           lambda x: evaluate(pair.polynomial, x))
