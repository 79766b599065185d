"""Finite-difference cross-check of the quantized couplings.

Discretizes the fixed-energy radial problem on [r_min, r_max] without any
reference to the polynomial machinery.  At the oscillator energy
e_n = (n + 1 + |s|)/2 the scaled radial equation

    [-(1/2)(d2/dr2 + (1/r) d/dr - s^2/r^2) + r^2/8 - e_n] zeta
        = -(kappa/2) zeta / r

multiplied by -2r becomes a standard eigenproblem A zeta = kappa zeta with
A tridiagonal:

    sub_i  = r_i/h^2 - 1/(2h)
    diag_i = -2 r_i/h^2 - s^2/r_i - r_i^3/4 + 2 e_n r_i
    sup_i  = r_i/h^2 + 1/(2h)

Regularity at the origin enters through second-order one-sided
extrapolation of u = zeta / r^|s| (analytic there): u_0 = 2 u_1 - u_2,
folded into the first row; Dirichlet closes the far end.  Both
off-diagonals stay positive on admissible grids, so A is diagonally
similar to a symmetric tridiagonal matrix T and the spectrum is real.  The
top n + 1 eigenvalues are the polynomial block; everything below belongs to
non-polynomial continuations at the same energy.

Only that block is solved for.  Bisection isolates each of its eigenvalues
to an absolute width of 0.1, 20 times below the smallest gap of the exact
block, and inverse iteration with Rayleigh-quotient shifts refines each
one to within 0.1 eps ||T|| of the fully converged eigenvalue.  Once an
eigenvalue is isolated, inverse iteration converges cubically where
bisection gains one bit per sweep (Parlett, The Symmetric Eigenvalue
Problem, ch. 4), and its last iterate is the eigenvector, correct to
eps ||T|| (Wilkinson, The Algebraic Eigenvalue Problem, ch. 9).  A block
that cannot be isolated or refined is refused with RuntimeError.

Each (n, |s|, grid) block is solved once per process and kept in one
lru_cache of 1024 entries; +s and -s share an entry because the pencil
depends on s only through |s|.  An entry holds the read-only kappas and
the node counts, the sign changes of the solve's own eigenvectors scaled
back to A; the vectors themselves are dropped.  fd_kappa_spectrum and
convergence_order both read that cache.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np

from ._rules import _integer

__all__ = [
    "DEFAULT_NUM_POINTS",
    "MatchReport",
    "MatchRow",
    "MismatchError",
    "OracleResult",
    "OrderReport",
    "RadialGrid",
    "convergence_order",
    "default_grid",
    "fd_kappa_spectrum",
    "oracle_match",
]

DEFAULT_NUM_POINTS = 3001


class MismatchError(RuntimeError):
    """A physical algebraic kappa has no oracle partner within tolerance."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on [r_min, r_max] with num_points nodes.

    r_min must sit at least three decades below r_max so the one-sided
    regularity closure happens deep inside the r^|s| power-law region.
    Both ends must be finite and num_points an integer by _rules._integer.
    """

    r_min: float
    r_max: float
    num_points: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r_min) and math.isfinite(self.r_max)):
            raise ValueError("r_min and r_max must be finite")
        object.__setattr__(self, "num_points",
                           _integer(self.num_points, "num_points"))
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        if self.r_min > 1e-3 * self.r_max:
            raise ValueError("r_min must not exceed 1e-3 * r_max")
        if self.num_points < 16:
            raise ValueError("need at least 16 grid points")

    @property
    def h(self) -> float:
        return (self.r_max - self.r_min) / (self.num_points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.num_points)

    def refined(self, factor: int) -> "RadialGrid":
        """Same interval with the step divided by an integer factor."""
        return RadialGrid(self.r_min, self.r_max,
                          factor * (self.num_points - 1) + 1)


def _min_r_max(n: int, s: int) -> float:
    # Gaussian turning point of the degree-n states plus margin
    return 2.0 * math.sqrt(2.0 * n + 2.0 * abs(s) + 2.0)


def default_grid(n: int, s: int, num_points: int = DEFAULT_NUM_POINTS) -> RadialGrid:
    """Grid sized for (n, s): r_max = max(2 sqrt(2n + 2|s| + 2), 10),
    r_min four decades below.  n >= 0 and s follow magpair._rules._integer."""
    n, s = _integer(n, "n", 0), _integer(s, "s")
    r_max = max(_min_r_max(n, s), 10.0)
    return RadialGrid(r_min=1e-4 * r_max, r_max=r_max, num_points=num_points)


@dataclass(frozen=True)
class OracleResult:
    """Finite-difference coupling block at fixed (n, s): the n + 1 largest
    kappas, ascending and read-only, and the node count of each one's
    eigenvector.  The eigenvectors are not kept."""

    n: int
    s: int
    e_n: float
    grid: RadialGrid
    r: np.ndarray           # interior nodes carrying the unknowns
    kappas: np.ndarray      # ascending
    node_counts: tuple[int, ...]


def _pencil(n: int, s: int, grid: RadialGrid):
    """A on the interior nodes, in symmetric tridiagonal form.

    Returns e_n, the interior nodes, sub, sup, diag and the symmetric
    off-diagonal off = sqrt(sub[1:] sup[:-1]).
    """
    if grid.r_max < _min_r_max(n, s) - 1e-12:
        raise ValueError(
            f"r_max {grid.r_max} below the admissible minimum {_min_r_max(n, s)}")
    a = abs(s)
    e_n = 0.5 * (n + 1 + a)
    r = grid.nodes()
    h = grid.h
    ri = r[1:-1]
    if len(ri) < n + 1:
        raise ValueError(
            f"{len(ri)} interior nodes cannot carry n + 1 = {n + 1} branches")
    sub = ri / h ** 2 - 1.0 / (2.0 * h)
    sup = (ri / h ** 2 + 1.0 / (2.0 * h)).copy()
    diag = (-2.0 * ri / h ** 2 - (a * a) / ri - ri ** 3 / 4.0
            + 2.0 * e_n * ri).copy()
    # fold the regularity closure zeta_0 = alpha zeta_1 + beta zeta_2 into
    # the first interior row (u = zeta / r^a, u_0 = 2 u_1 - u_2)
    alpha = 2.0 * (r[0] / r[1]) ** a
    beta = -((r[0] / r[2]) ** a)
    diag[0] += sub[0] * alpha
    sup[0] += sub[0] * beta
    # r_i >= r_min + h > h/2 on every interior node, so sub > 0 and sup > 0
    off = np.sqrt(sub[1:] * sup[:-1])
    return e_n, ri, sub, sup, diag, off


def _count_sign_changes(vec: np.ndarray) -> int:
    """Sign changes of vec, ignoring entries within 1e-8 of its max."""
    v = vec[np.abs(vec) > 1e-8 * np.max(np.abs(vec))]
    s = np.sign(v)
    return int(np.sum(s[1:] != s[:-1]))


#: Absolute width to which bisection isolates each top eigenvalue.  The
#: exact block's smallest gap over n <= 64, |s| <= 64 is 2.0 at (1, 0).
_ISOLATION = 0.1

#: Inverse-iteration steps allowed per eigenvalue before refusing.
_MAX_STEPS = 10


def _tolerance(diag: np.ndarray, off: np.ndarray) -> float:
    """eps ||T||, with ||T|| the largest absolute row sum of T."""
    a_off = np.abs(off)
    rows = np.abs(diag)
    rows[:-1] += a_off
    rows[1:] += a_off
    return np.finfo(float).eps * float(np.max(rows))


@functools.lru_cache(maxsize=16)
def _start(m: int) -> np.ndarray:
    """The fixed pseudo-random unit vector every inverse iteration starts
    from, so each solve is reproducible bit for bit.  Seeding RandomState
    costs about as much as a 3001-point vector pass, so the read-only
    vector is built once per length and process."""
    start = np.random.RandomState(0).uniform(-1.0, 1.0, m)
    start /= np.linalg.norm(start)
    start.flags.writeable = False
    return start


def _quotient(diag: np.ndarray, off: np.ndarray, x: np.ndarray,
              tx: np.ndarray) -> float:
    """Rayleigh quotient x^T T x of a unit vector x, with tx as scratch."""
    np.multiply(diag, x, out=tx)
    tx[:-1] += off * x[1:]
    tx[1:] += off * x[:-1]
    return float(x @ tx)


@functools.cache
def _lapack():
    """scipy's Fortran LAPACK extension, scipy.linalg._flapack, loaded from
    its file without importing the scipy.linalg package.

    _top_block calls only its dstebz and dgtsv, the very objects that
    scipy.linalg.lapack exports.  Importing that package would cost about
    0.23 s on the first solve, two thirds of it in scipy's array-API shim;
    the extension alone loads in about 4 ms.  Finding scipy's directory
    imports nothing.  Loaded under its own name, the extension enters
    sys.modules as scipy.linalg._flapack, so a later import of scipy.linalg
    reuses it.  Raises ImportError when the extension file is missing.
    """
    name = "scipy.linalg._flapack"
    stem = os.path.join(
        importlib.util.find_spec("scipy").submodule_search_locations[0],
        "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            break
    else:
        raise ImportError(f"no LAPACK extension at {stem}*", name=name,
                          path=stem)
    loader = importlib.machinery.ExtensionFileLoader(name, stem + suffix)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    return module


def _top_block(diag: np.ndarray, off: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenpairs of a symmetric tridiagonal matrix T.

    Bisection (LAPACK stebz, by index) isolates each eigenvalue w_j to an
    absolute width of _ISOLATION; inverse iteration (LAPACK gtsv) refines
    it, two steps at w_j and then Rayleigh-quotient shifts until the
    quotient moves by at most _tolerance(diag, off) = eps ||T||.  The final
    quotient is the eigenvalue and the final unit iterate its eigenvector.
    Every eigenvalue starts from _start, so the output is reproducible bit
    for bit.

    Returns the eigenvalues in ascending order and the (m, k) matrix of
    eigenvectors, column j belonging to eigenvalue j.  Raises RuntimeError
    when bisection fails, two isolating intervals w_j +- _ISOLATION
    overlap, a shifted factor is singular, the iteration has not converged
    after _MAX_STEPS steps, or a refined value leaves its interval.
    """
    # scipy.linalg._flapack, not the 0.23 s scipy.linalg package, loads on
    # the first solve (see _lapack), so importing magpair loads no scipy;
    # lib is fetched on every call so tests can spy on its routines
    lib = _lapack()
    m = len(diag)
    count, w, _, _, info = lib.dstebz(diag, off, 2, 0.0, 0.0, m - k + 1,
                                      m, _ISOLATION, b"E")
    if info != 0 or count < k:
        raise RuntimeError(f"bisection failed (info = {info}, "
                           f"{count} of {k} eigenvalues)")
    w = w[:k]
    if np.any(np.diff(w) <= 2.0 * _ISOLATION):
        raise RuntimeError("top eigenvalues are not isolated at width "
                           f"{_ISOLATION}")
    tol = _tolerance(diag, off)
    start = _start(m)
    tx = np.empty(m)
    values = np.empty(k)
    rows = np.empty((k, m))
    for j, shift in enumerate(w):
        x = start
        rq = shift
        for step in range(_MAX_STEPS):
            _, _, _, y, info = lib.dgtsv(off, diag - shift, off, x[:, None])
            if info != 0:
                raise RuntimeError(f"singular factor at shift {shift!r}")
            x = y[:, 0] / np.linalg.norm(y)
            prev, rq = rq, _quotient(diag, off, x, tx)
            if step >= 1:
                if abs(rq - prev) <= tol:
                    break
                shift = rq
        else:
            raise RuntimeError(f"inverse iteration did not converge near "
                               f"{w[j]!r}")
        if abs(rq - w[j]) > _ISOLATION:
            raise RuntimeError(f"refined eigenvalue {rq!r} left its interval "
                               f"around {w[j]!r}")
        values[j] = rq
        rows[j] = x
    return values, rows.T


@functools.lru_cache(maxsize=1024)
def _fd_block(n: int, a: int,
              grid: RadialGrid) -> tuple[np.ndarray, tuple[int, ...]]:
    """The block of the pencil at (n, a = |s|) on grid, solved once per key
    and process: its ascending top n + 1 eigenvalues as a read-only array,
    and the sign changes of each one's eigenvector of A.

    Those eigenvectors are _top_block's, scaled back by the diagonal
    similarity between A and T, and are dropped once counted.  Validation
    errors from _pencil are raised on every call; lru_cache keeps no
    exception.
    """
    _, _, sub, sup, diag, off = _pencil(n, a, grid)
    kappas, vectors = _top_block(diag, off, n + 1)
    kappas.flags.writeable = False
    vectors *= np.concatenate(
        ([1.0], np.cumprod(np.sqrt(sub[1:] / sup[:-1]))))[:, None]
    return kappas, tuple(_count_sign_changes(vectors[:, k])
                         for k in range(n + 1))


def fd_kappa_spectrum(n: int, s: int, grid: RadialGrid | None = None) -> OracleResult:
    """Coupling eigenvalues and node counts of the discretized pencil.

    Returns the n + 1 largest kappa values, the polynomial block, in
    ascending order, with the sign changes of their eigenvectors.  Both
    come from the per-process block cache that convergence_order also
    reads: the first call at (n, |s|, grid) runs _top_block once (coarse
    bisection, then inverse iteration to full accuracy) and counts the
    nodes of the vectors it converged; a warm call solves nothing, so cold
    and warm results give the same bytes.  The grid is validated on every
    call and must carry at least n + 1 interior nodes.
    """
    n, s = _integer(n, "n", 0), _integer(s, "s")
    if grid is None:
        grid = default_grid(n, s)
    e_n, ri, *_ = _pencil(n, s, grid)
    kappas, node_counts = _fd_block(n, abs(s), grid)
    return OracleResult(n=n, s=s, e_n=e_n, grid=grid, r=ri, kappas=kappas,
                        node_counts=node_counts)


@dataclass(frozen=True)
class MatchRow:
    j: int
    kappa_alg: float
    kappa_fd: float
    abs_err: float
    nodes_alg: int
    nodes_fd: int


@dataclass(frozen=True)
class MatchReport:
    rows: tuple[MatchRow, ...]

    @property
    def max_abs_err(self) -> float:
        return max((r.abs_err for r in self.rows), default=0.0)

    @property
    def nodes_all_match(self) -> bool:
        return all(r.nodes_alg == r.nodes_fd for r in self.rows)


def oracle_match(points, result: OracleResult, tol: float) -> MatchReport:
    """Match the physical algebraic branches against the oracle block.

    points holds the SpectralPoints of one (n, s), as secular_spectrum
    returns them; only physical branches participate.  Every physical
    kappa must find a distinct oracle partner within tol, else
    MismatchError.  Node counts of both sides ride along in the report:
    the algebraic one is the point's rank, the oracle one counts sign
    changes of the discrete eigenvector.
    With no physical branch (n = 0) the match is vacuous.  tol must be
    nonnegative and not NaN (against NaN every partner would match);
    tol = inf accepts any partner.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative and not NaN, got {tol!r}")
    rows = []
    used: set[int] = set()
    for pt in sorted((p for p in points if p.physical), key=lambda p: p.j):
        if pt.n != result.n or pt.s != result.s:
            raise ValueError("algebraic point belongs to a different (n, s)")
        # n + 1 oracle branches outnumber the (n + 1) // 2 physical ones
        free = [i for i in range(len(result.kappas)) if i not in used]
        i = min(free, key=lambda k: abs(result.kappas[k] - pt.kappa))
        err = abs(float(result.kappas[i]) - pt.kappa)
        if err > tol:
            raise MismatchError(
                f"branch j = {pt.j} (kappa = {pt.kappa:.12g}) has no oracle "
                f"partner within {tol:.1e}; nearest differs by {err:.3e}")
        used.add(i)
        rows.append(MatchRow(j=pt.j, kappa_alg=pt.kappa,
                             kappa_fd=float(result.kappas[i]), abs_err=err,
                             nodes_alg=pt.nodes,
                             nodes_fd=result.node_counts[i]))
    return MatchReport(rows=tuple(rows))


@dataclass(frozen=True)
class OrderReport:
    """Observed convergence order per branch from two step halvings."""

    orders: tuple[float, ...]     # per branch, ascending kappa; inf = converged
    kappas_finest: np.ndarray

    @property
    def min_order(self) -> float:
        finite = [o for o in self.orders if math.isfinite(o)]
        return min(finite) if finite else math.inf


def convergence_order(n: int, s: int, grid: RadialGrid | None = None) -> OrderReport:
    """Estimate the discretization order from grids with steps h, h/2, h/4.

    order = log2(|kappa_h - kappa_{h/2}| / |kappa_{h/2} - kappa_{h/4}|) per
    branch; branches whose increments are already at rounding level are
    reported as inf.  The three grids are read from the block cache that
    fd_kappa_spectrum also reads, so kappas_finest is its kappas on the
    finest grid, the same read-only array.  Each grid's block is solved
    once per process, keyed by (n, |s|, grid), so +s and -s, and a grid
    and its refined(2), share solves.
    """
    n, s = _integer(n, "n", 0), _integer(s, "s")
    if grid is None:
        grid = default_grid(n, s, num_points=801)
    k0, k1, k2 = (_fd_block(n, abs(s), g)[0]
                  for g in (grid, grid.refined(2), grid.refined(4)))
    scale = max(1.0, float(np.max(np.abs(k2))))
    orders = []
    for d1, d2 in zip(np.abs(k0 - k1), np.abs(k1 - k2)):
        if d2 <= 1e-13 * scale:
            orders.append(math.inf)
        else:
            orders.append(float(np.log2(d1 / d2)))
    return OrderReport(orders=tuple(orders), kappas_finest=k2)
