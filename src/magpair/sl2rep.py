"""sl(2) generators on polynomial spaces and the tridiagonal coupling operator.

Matrices act on the monomial basis (1, rho, ..., rho^N) of P_N with the
column convention: column k holds the coefficients of the image of rho^k,
so operator composition is plain matrix multiplication.  The top column of
a degree-raising operator leaves P_N and is truncated, which is why the
commutator check only trusts columns k <= N - 2.

Every operator is a plain square numpy array: int64, except jzero, whose
half-integer diagonal is float.  Every entry is exactly representable in
float64, so all identity checks in this module are exact equalities.

Labels n, N, s_abs >= 0 and dim >= 1 follow magpair._rules._integer.  The
coupling builders also bound s_abs, see _bounded_s_abs.
"""

from __future__ import annotations

import numpy as np

from ._rules import _integer

__all__ = [
    "build_T_algebraic",
    "build_T_direct",
    "commutator_check",
    "jminus",
    "jplus",
    "jzero",
]


def jplus(n: int, N: int | None = None) -> np.ndarray:
    """Raising generator rho^2 d/drho - n rho on P_N (default N = n).

    rho^k maps to (k - n) rho^(k+1); the image of rho^N is truncated.
    rho^n is annihilated, which is what closes the (n+1)-dimensional
    representation.
    """
    n = _integer(n, "n", 0)
    N = n if N is None else _integer(N, "N", 0)
    return np.diag(np.array([k - n for k in range(N)], dtype=np.int64), -1)


def jzero(n: int, N: int | None = None) -> np.ndarray:
    """Grading generator rho d/drho - n/2 on P_N: diagonal k - n/2."""
    n = _integer(n, "n", 0)
    N = n if N is None else _integer(N, "N", 0)
    return np.diag([k - n / 2.0 for k in range(N + 1)])


def jminus(N: int) -> np.ndarray:
    """Lowering generator d/drho on P_N: rho^k maps to k rho^(k-1)."""
    N = _integer(N, "N", 0)
    return np.diag(np.arange(1, N + 1, dtype=np.int64), 1)


def commutator_check(n: int, N: int) -> dict[str, float]:
    """Check [J0, J+] = J+, [J0, J-] = -J-, [J+, J-] = -2 J0 on P_N.

    Returns the largest absolute deviation of each relation on the trusted
    columns, keyed "[J0,J+] - J+", "[J0,J-] + J-" and "[J+,J-] + 2J0".
    Requires N >= n + 2: a product of two generators raises the degree of
    rho^k by at most two, so columns k <= N - 2 are free of truncation and
    the relations must hold there exactly (entries are dyadic, the float
    arithmetic is exact).
    """
    n, N = _integer(n, "n", 0), _integer(N, "N", 0)
    if N < n + 2:
        raise ValueError("need N >= n + 2 for a truncation-free check")
    jp = jplus(n, N).astype(float)
    j0 = jzero(n, N)
    jm = jminus(N).astype(float)
    residues = {
        "[J0,J+] - J+": j0 @ jp - jp @ j0 - jp,
        "[J0,J-] + J-": j0 @ jm - jm @ j0 + jm,
        "[J+,J-] + 2J0": jp @ jm - jm @ jp + 2.0 * j0,
    }
    trusted = slice(0, N - 1)  # columns 0 .. N-2
    return {label: float(np.max(np.abs(c[:, trusted])))
            for label, c in residues.items()}


def _bounded_s_abs(s_abs, top: int) -> int:
    """s_abs by _rules._integer, at most the largest value with
    top (top + 2 s_abs + 1) < 2**52, top the highest power of rho in the
    space and its leading factor read as 1 at top = 0.  Below that bound
    every entry of T and every term build_T_algebraic composes,
    half-integers included, is exact in float64; just beyond it the
    algebraic route rounds at odd top, and far beyond it int64 overflows."""
    most = ((2**52 - 1) // max(top, 1) - top - 1) // 2
    return _integer(s_abs, "s_abs", 0, most)


def build_T_direct(n: int, s_abs: int, dim: int | None = None) -> np.ndarray:
    """Coupling operator by its monomial action:

        T rho^k = (k - n) rho^(k+1) - k (k + 2 |s|) rho^(k-1)

    i.e. tridiagonal with zero diagonal, integer entries.  dim defaults to
    n + 1 (the invariant subspace).  A larger dim exposes the action beyond
    P_n for the particular-integral checks; the top column is truncated as
    usual.  s_abs is bounded by _bounded_s_abs at the top power dim - 1.
    """
    n = _integer(n, "n", 0)
    d = n + 1 if dim is None else _integer(dim, "dim", 1)
    s_abs = _bounded_s_abs(s_abs, d - 1)
    sub = np.array([k - n for k in range(d - 1)], dtype=np.int64)
    sup = np.array([-k * (k + 2 * s_abs) for k in range(1, d)], dtype=np.int64)
    return np.diag(sub, -1) + np.diag(sup, 1)


def build_T_algebraic(n: int, s_abs: int) -> np.ndarray:
    """Coupling operator assembled from the generators:

        T = -J0_n J- + J+_n - (1 + 2 |s| + n/2) J-

    The composition happens in float64.  s_abs is bounded by
    _bounded_s_abs at the top power n, which keeps every composed term,
    half-integers included, exact, so the sum is the integer matrix T and
    converts to int64 exactly.  Entrywise equality with build_T_direct is the
    dual-route check exercised by the test suite and the verify command; it
    is deliberately not asserted here so the two constructions stay
    independent.
    """
    n = _integer(n, "n", 0)
    s_abs = _bounded_s_abs(s_abs, n)
    jp = jplus(n).astype(float)
    j0 = jzero(n)
    jm = jminus(n).astype(float)
    m = -j0 @ jm + jp - (1.0 + 2.0 * s_abs + n / 2.0) * jm
    return m.astype(np.int64)
