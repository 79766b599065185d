"""Euler-operator annihilators of P_n and their commutation with T.

With the Euler operator rho d/drho, the degree-(n+1) product

    i_n^(sigma) = prod_{j=0}^{n} (rho d/drho + sigma j),   sigma = +/-1,

is diagonal on monomials: rho^k maps to rho^k prod_j (k + sigma j).  For
sigma = -1 the factor j = k kills every rho^k with k <= n, so P_n is
annihilated and [T(n), i_n] vanishes on P_n; i_n is then a particular
integral with P_n as invariant subspace.  For sigma = +1 the diagonal
never vanishes on P_n.  The operators built here are the annihilating
i_n = i_n^(-); annihilation_check contrasts both signs on P_n so the
choice of convention is shown rather than assumed.

Everything here is exact integer arithmetic; reported maxima of zero mean
identically zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._rules import _integer
from .polyops import Polynomial
from .qes import EigenPair, assemble_wavefunction
from .sl2rep import build_T_direct

__all__ = [
    "AnnihilationReport",
    "ParticularIntegralReport",
    "annihilation_check",
    "build_annihilator",
    "commutator_particular_check",
    "gauge_rotated_action",
]

_INT64_SAFE = 2 ** 62


def _diag_entries(n: int, dim: int, sign: int) -> list[int]:
    return [math.prod(k + sign * j for j in range(n + 1)) for k in range(dim)]


def build_annihilator(n: int, dim: int | None = None) -> np.ndarray:
    """Diagonal int64 matrix of i_n = i_n^(-) on P_(dim-1); dim defaults
    to n + 3 so that the action just beyond P_n stays visible for the
    commutator checks."""
    n = _integer(n, "n", 0)
    d = n + 3 if dim is None else _integer(dim, "dim", 1)
    entries = _diag_entries(n, d, -1)
    if max(abs(e) for e in entries) >= _INT64_SAFE:
        raise ValueError("diagonal entries overflow int64; reduce n or dim")
    return np.diag(np.array(entries, dtype=np.int64))


@dataclass(frozen=True)
class AnnihilationReport:
    """Largest image coefficient of each sign convention over P_n."""

    max_abs_minus: int
    max_abs_plus: int

    @property
    def annihilating_sign(self) -> int:
        """The convention that actually kills P_n (0 if neither or both)."""
        if (self.max_abs_minus == 0) == (self.max_abs_plus == 0):
            return 0
        return -1 if self.max_abs_minus == 0 else 1


def annihilation_check(n: int) -> AnnihilationReport:
    """Apply both sign conventions to the monomial basis of P_n.

    The report carries max_k |i_n rho^k| over k <= n for each sign; the
    minus convention must come out exactly zero, the plus one must not.
    """
    n = _integer(n, "n", 0)
    minus = _diag_entries(n, n + 1, -1)
    plus = _diag_entries(n, n + 1, +1)
    return AnnihilationReport(max_abs_minus=max(abs(e) for e in minus),
                              max_abs_plus=max(abs(e) for e in plus))


@dataclass(frozen=True)
class ParticularIntegralReport:
    """Exact size of [T, i_n] columns, on P_n and beyond."""

    max_abs_on_pn: int       # columns k <= n; 0 means exact commutation
    max_abs_beyond: int      # column n + 1, the trusted one beyond P_n


def commutator_particular_check(n: int, s: int) -> ParticularIntegralReport:
    """Evaluate [T(n, |s|), i_n] on P_(n+2) in exact integer arithmetic.

    Columns k <= n must vanish: that is the particular-integral property.
    Column n + 1 generally does not (the invariance is a property of the
    subspace, not of the whole operator); the truncated top column
    k = n + 2 is not trusted.
    """
    n = _integer(n, "n", 0)
    d = n + 3
    t = build_T_direct(n, abs(_integer(s, "s")), dim=d)
    i_op = build_annihilator(n, dim=d)
    bound = (int(np.max(np.abs(t))) + 1) * (int(np.max(np.abs(i_op))) + 1) * 2
    if bound >= _INT64_SAFE:
        raise ValueError("commutator entries may overflow int64; reduce n")
    c = t @ i_op - i_op @ t
    return ParticularIntegralReport(
        max_abs_on_pn=int(np.max(np.abs(c[:, :n + 1]))),
        max_abs_beyond=int(np.max(np.abs(c[:, n + 1:d - 1]))))


def gauge_rotated_action(pair: EigenPair, grid) -> np.ndarray:
    """Samples of the gauge-dressed annihilator acting on the dressed state.

    The dressed operator is zeta0 i_n zeta0^{-1} with zeta0 =
    exp(-r^2/4) r^|s|, so its action on zeta = zeta0 p is exactly
    zeta0 (i_n p): apply the diagonal i_n to the coefficients and sample
    the image with assemble_wavefunction, which validates the grid and
    gives 0 wherever the Gaussian underflows.  No numerical
    differentiation is involved.  For an eigenpair polynomial
    (degree <= n) the result is identically zero.
    """
    coeffs = np.asarray(pair.polynomial.coeffs, dtype=float)
    ann = build_annihilator(pair.point.n, dim=len(coeffs))
    image = Polynomial(tuple(ann.astype(float) @ coeffs))
    return assemble_wavefunction(replace(pair, polynomial=image), grid)
