"""Finite-difference oracle: grids, matching, failure modes, order."""

import ast
import importlib.machinery
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from magpair import cli, oracle
from magpair.oracle import (
    MismatchError,
    RadialGrid,
    convergence_order,
    default_grid,
    fd_kappa_spectrum,
    oracle_match,
)
from magpair.qes import assemble_wavefunction, eigenfunction, secular_spectrum
from magpair.system import CaseTag

EL = CaseTag.EQUAL_LARMOR


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(0.0, 10.0, 100)
    with pytest.raises(ValueError):
        RadialGrid(5.0, 5.0, 100)
    with pytest.raises(ValueError):
        RadialGrid(0.1, 10.0, 100)  # r_min above 1e-3 * r_max
    with pytest.raises(ValueError):
        RadialGrid(1e-3, 10.0, 15)
    g = RadialGrid(1e-3, 10.0, 16)
    assert g.h == (10.0 - 1e-3) / 15.0
    assert RadialGrid(1e-3, 10.0, np.int64(16)) == g


@pytest.mark.parametrize("r_min, r_max", [
    (1e-4, math.inf), (-math.inf, 10.0), (math.nan, 10.0), (1e-4, math.nan)])
def test_grid_refuses_non_finite_ends(r_min, r_max):
    with pytest.raises(ValueError, match="finite"):
        RadialGrid(r_min, r_max, 3001)


@pytest.mark.parametrize("num_points", [3001.5, True, "3001", None])
def test_grid_refuses_non_integer_point_count(num_points):
    with pytest.raises(ValueError, match="integer"):
        RadialGrid(1e-4, 10.0, num_points)


def test_grid_takes_an_integral_float_point_count_as_an_int():
    # the oracle's one integer rule, as for n and s
    for num_points in (3001.0, np.float64(3001.0), np.int64(3001)):
        g = RadialGrid(1e-4, 10.0, num_points)
        assert g == RadialGrid(1e-4, 10.0, 3001)
        assert type(g.num_points) is int
    assert default_grid(2, 0, 3001.0) == default_grid(2, 0, 3001)


def test_grid_refinement_keeps_interval():
    g = RadialGrid(1e-3, 10.0, 101)
    f = g.refined(2)
    assert (f.r_min, f.r_max, f.num_points) == (1e-3, 10.0, 201)
    assert f.h == pytest.approx(g.h / 2.0, rel=1e-15)
    assert g.nodes()[0] == 1e-3 and g.nodes()[-1] == 10.0


def test_default_grid_scales_with_state():
    g = default_grid(0, 0)
    assert g.r_max == 10.0 and g.r_min == 1e-3  # turning point below the floor
    g = default_grid(12, 3)
    assert g.r_max == pytest.approx(2.0 * math.sqrt(32.0), rel=1e-15)
    assert g.r_min == pytest.approx(1e-4 * g.r_max, rel=1e-15)


def test_block_matches_algebraic_branches():
    for n, s in ((2, 0), (3, 1)):
        grid = default_grid(n, s, num_points=1501)
        res = fd_kappa_spectrum(n, s, grid)
        assert len(res.kappas) == n + 1
        assert res.e_n == 0.5 * (n + 1 + abs(s))
        report = oracle_match(secular_spectrum(n, s, EL), res, tol=1e-3)
        assert report.max_abs_err <= 1e-3
        assert report.nodes_all_match
        assert [row.j for row in report.rows] == \
            [p.j for p in secular_spectrum(n, s, EL) if p.physical]


def test_match_is_vacuous_without_physical_branches():
    res = fd_kappa_spectrum(0, 0, default_grid(0, 0, 501))
    report = oracle_match(secular_spectrum(0, 0, EL), res, tol=1e-3)
    assert report.rows == ()
    assert report.max_abs_err == 0.0 and report.nodes_all_match


def test_eigenvector_profile_agrees_pointwise():
    n, s = 2, 0
    _, ri, sub, sup, diag, off = oracle._pencil(n, s,
                                                default_grid(n, s, 1501))
    point = [p for p in secular_spectrum(n, s, EL) if p.physical][0]
    pair = eigenfunction(n, s, point)
    zeta = assemble_wavefunction(pair, ri)
    _, vectors = oracle._top_block(diag, off, n + 1)
    # the largest kappa's vector of T, scaled back to an eigenvector of A
    vec = _similarity(sub, sup) * vectors[:, -1]
    i0 = int(np.argmax(np.abs(zeta)))
    vec *= zeta[i0] / vec[i0]
    m = len(zeta)
    inner = slice(m // 4, 3 * m // 4)
    err = np.max(np.abs(vec[inner] - zeta[inner])) / np.max(np.abs(zeta))
    assert err <= 1e-3


def test_mismatch_raised_at_unreachable_tolerance():
    res = fd_kappa_spectrum(2, 0, default_grid(2, 0, num_points=801))
    with pytest.raises(MismatchError):
        oracle_match(secular_spectrum(2, 0, EL), res, tol=1e-12)


@pytest.mark.parametrize("tol", [math.nan, -1e-3, -math.inf])
def test_match_refuses_a_tolerance_that_cannot_decide(tol):
    # err > nan is never true, so tol = nan would pass any partner
    res = fd_kappa_spectrum(2, 0, default_grid(2, 0, num_points=801))
    with pytest.raises(ValueError, match="tol"):
        oracle_match(secular_spectrum(2, 0, EL), res, tol=tol)


def test_match_accepts_an_infinite_tolerance():
    # verify measures the largest error, so it matches with tol = inf
    res = fd_kappa_spectrum(2, 0, default_grid(2, 0, num_points=801))
    report = oracle_match(secular_spectrum(2, 0, EL), res, tol=math.inf)
    assert 0.0 < report.max_abs_err < 1e-2


def test_branch_count_bounds():
    # the grid must carry the n + 1 branches: 16 points leave 14 interior
    with pytest.raises(ValueError):
        fd_kappa_spectrum(20, 0, RadialGrid(1e-3, 13.0, 16))
    res = fd_kappa_spectrum(13, 0, RadialGrid(1e-3, 11.0, 16))
    assert len(res.kappas) == 14


def test_non_integer_quantum_numbers_are_rejected():
    # s = 1.5 must not pass as |s| = 1.5 under the label s = 1
    with pytest.raises(ValueError):
        fd_kappa_spectrum(2, 1.5)
    with pytest.raises(ValueError):
        fd_kappa_spectrum(2.5, 1)
    # bools and non-finite values neither
    for n, s in ((2, math.inf), (math.inf, 0), (math.nan, 0), (2, -math.inf),
                 (2, math.nan), (True, 0), (2, True), (2, np.False_)):
        with pytest.raises(ValueError):
            fd_kappa_spectrum(n, s)
    res = fd_kappa_spectrum(2.0, 1.0, default_grid(2, 1, 401))
    assert (res.n, res.s) == (2, 1) and type(res.n) is type(res.s) is int


#: Modules that check the physics without sharing any of it.  A witness may
#: import the input rules of magpair._rules and nothing else from magpair.
WITNESSES = ("oracle",)


def _magpair_imports(path):
    """The magpair modules path imports, nested imports too, with relative
    imports resolved against the package; one that leaves it stays as
    written."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1:
                module = f"magpair.{module}" if module else "magpair"
            elif node.level > 1:
                module = "." * node.level + module
            modules = ([f"{module}.{a.name}" for a in node.names]
                       if module == "magpair" else [module])
        else:
            continue
        yield from (m for m in modules
                    if m.startswith(".") or m.split(".")[0] == "magpair")


def test_oracle_imports_nothing_from_magpair():
    # a witness imports no physics from magpair: the input rules carry none
    src = Path(oracle.__file__).parent
    for name in WITNESSES:
        assert set(_magpair_imports(src / f"{name}.py")) <= {
            "magpair._rules"}, name


def test_the_witness_rule_refuses_any_other_magpair_import(tmp_path):
    probe = tmp_path / "probe.py"
    text = Path(oracle.__file__).read_text(encoding="utf-8") + (
        "from . import _rules\nimport magpair._rules\n"
        "from magpair._rules import _in_range\n")
    probe.write_text(text, encoding="utf-8")
    assert set(_magpair_imports(probe)) == {"magpair._rules"}
    for stray, module in (
            ("from .system import _sign", "magpair.system"),
            ("from . import qes", "magpair.qes"),
            ("from magpair import qes", "magpair.qes"),
            ("import magpair", "magpair"),
            ("import magpair.qes as q", "magpair.qes"),
            ("def f():\n    from .polyops import evaluate", "magpair.polyops"),
            ("from .. import magpair", "..")):
        probe.write_text(f"{text}{stray}\n", encoding="utf-8")
        assert set(_magpair_imports(probe)) - {"magpair._rules"} == {
            module}, stray


def test_domain_too_small_is_rejected():
    with pytest.raises(ValueError):
        fd_kappa_spectrum(4, 2, RadialGrid(5e-4, 5.0, 101))


def test_second_order_convergence():
    report = convergence_order(2, 1, default_grid(2, 1, num_points=401))
    assert report.min_order >= 1.8
    assert len(report.orders) == 3
    assert report.kappas_finest[-1] == pytest.approx(math.sqrt(14.0), abs=1e-4)


@pytest.mark.parametrize("n", range(7))
def test_convergence_order_matches_three_full_solves(n):
    # eigenvalues alone come out bitwise equal to those solved with vectors
    for s in range(-4, 5):
        grid = default_grid(n, s, num_points=801)
        k0, k1, k2 = (fd_kappa_spectrum(n, s, g).kappas
                      for g in (grid, grid.refined(2), grid.refined(4)))
        scale = max(1.0, float(np.max(np.abs(k2))))
        orders = tuple(math.inf if d2 <= 1e-13 * scale
                       else float(np.log2(d1 / d2))
                       for d1, d2 in zip(np.abs(k0 - k1), np.abs(k1 - k2)))
        report = convergence_order(n, s)
        assert np.array_equal(report.kappas_finest, k2), (n, s)
        assert report.orders == orders, (n, s)


def test_convergence_order_validates_like_the_full_solve():
    with pytest.raises(ValueError):
        convergence_order(2, 1.5)
    with pytest.raises(ValueError):
        convergence_order(4, 2, RadialGrid(5e-4, 5.0, 101))


def _similarity(sub, sup):
    """Diagonal of the similarity taking eigenvectors of T to those of A."""
    return np.concatenate(([1.0], np.cumprod(np.sqrt(sub[1:] / sup[:-1]))))


def _row_sum_norm(diag, off):
    rows = np.abs(diag)
    rows[:-1] += np.abs(off)
    rows[1:] += np.abs(off)
    return float(np.max(rows))


_SWEEP = [(n, s, p) for n in (*range(9), 16, 32, 64) for s in (0, 1, 5, 64)
          for p in (801, 3001)] + [(6, 4, 12001), (64, 0, 12001)]


def test_top_block_reaches_the_fully_converged_eigenvalues():
    # reference: bisection run to the end, eigenvectors by LAPACK stein
    from scipy.linalg import eigh_tridiagonal

    for n, s, p in _SWEEP:
        grid = default_grid(n, s, p)
        _, ri, sub, sup, diag, off = oracle._pencil(n, s, grid)
        m, ulp = len(ri), np.finfo(float).eps * _row_sum_norm(diag, off)
        w, v = oracle._top_block(diag, off, n + 1)
        ref, ref_v = eigh_tridiagonal(diag, off, select="i", tol=1e-300,
                                      select_range=(m - n - 1, m - 1))
        assert np.max(np.abs(w - ref)) <= 0.1 * ulp, (n, s, p)
        assert np.allclose(np.linalg.norm(v, axis=0), 1.0, rtol=0, atol=1e-14)
        tv = diag[:, None] * v
        tv[:-1] += off[:, None] * v[1:]
        tv[1:] += off[:, None] * v[:-1]
        assert np.max(np.linalg.norm(tv - w * v, axis=0)) <= 4.0 * ulp
        # node counts as fd_kappa_spectrum takes them, on both vector sets
        scale = _similarity(sub, sup)
        nodes = [[oracle._count_sign_changes(scale * vecs[:, k])
                  for k in range(n + 1)] for vecs in (v, ref_v)]
        assert nodes[0] == nodes[1], (n, s, p)
        assert fd_kappa_spectrum(n, s, grid).node_counts == tuple(nodes[1])


def test_top_block_refuses_a_pair_it_cannot_isolate():
    # Wilkinson's W21+: the two largest eigenvalues agree to about 1e-14
    diag = np.abs(np.arange(-10.0, 11.0))
    off = np.ones(20)
    with pytest.raises(RuntimeError, match="isolated"):
        oracle._top_block(diag, off, 2)
    w, v = oracle._top_block(diag, off, 1)
    assert w[0] == pytest.approx(10.746194182903393, abs=1e-13)
    assert w.shape == (1,) and v.shape == (21, 1)


def test_top_block_is_reproducible_bit_for_bit():
    _, _, _, _, diag, off = oracle._pencil(5, 2, default_grid(5, 2, 2001))
    w1, v1 = oracle._top_block(diag, off, 6)
    w2, v2 = oracle._top_block(diag, off, 6)
    assert w1.tobytes() == w2.tobytes() and v1.tobytes() == v2.tobytes()
    assert fd_kappa_spectrum(5, 2, default_grid(5, 2, 2001)).kappas.tobytes() \
        == w1.tobytes()


@pytest.mark.parametrize("m", [1, 15, 799, 2999, 12001])
def test_start_vector_is_numpys_random_state_zero_bit_for_bit(m):
    # built from the standard library's MT19937, so the first solve needs
    # no numpy.random; the entries are RandomState(0)'s before the scaling
    expected = np.random.RandomState(0).uniform(-1.0, 1.0, m)
    expected /= np.linalg.norm(expected)
    start = oracle._start.__wrapped__(m)
    assert start.tobytes() == expected.tobytes()
    assert not start.flags.writeable


def test_cached_couplings_equal_a_fresh_solve_byte_for_byte():
    for n, s, p in ((0, 0, 801), (3, 2, 1601), (6, 4, 3201)):
        grid = default_grid(n, s, p)
        _, _, _, _, diag, off = oracle._pencil(n, s, grid)
        fresh, _ = oracle._top_block(diag, off, n + 1)
        cached, _ = oracle._fd_block(n, abs(s), grid)
        assert cached.tobytes() == fresh.tobytes(), (n, s, p)
        assert cached is oracle._fd_block(n, abs(s), grid)[0]


def test_convergence_order_shares_entries_between_signs_and_grids():
    oracle._fd_block.cache_clear()
    plus = convergence_order(3, 2)
    assert oracle._fd_block.cache_info().misses == 3
    minus = convergence_order(3, -2)
    info = oracle._fd_block.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 3, 3)
    assert plus.orders == minus.orders
    assert plus.kappas_finest is minus.kappas_finest
    # the refined(2) of a base grid is solved already at h/2 and h/4
    convergence_order(3, 2, default_grid(3, 2, 801).refined(2))
    info = oracle._fd_block.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 5, 4)


def test_cached_finest_kappas_are_read_only():
    report = convergence_order(2, 1)
    with pytest.raises(ValueError):
        report.kappas_finest[0] = 0.0


def test_refused_grid_raises_on_every_call():
    bad = RadialGrid(5e-4, 5.0, 101)
    oracle._fd_block.cache_clear()
    for solve in (convergence_order, fd_kappa_spectrum):
        for _ in range(2):
            with pytest.raises(ValueError, match="admissible"):
                solve(4, 2, bad)
    assert oracle._fd_block.cache_info().currsize == 0
    # still refused once the same (n, |s|) is cached on an admissible grid
    fd_kappa_spectrum(4, 2, default_grid(4, 2, 801))
    with pytest.raises(ValueError, match="admissible"):
        fd_kappa_spectrum(4, 2, bad)


def test_oracle_checks_read_the_same_cold_and_warm():
    def rows():
        return [(c.name, repr(c.measured), c.passed)
                for c in cli.run_verification(only="oracle")]

    oracle._fd_block.cache_clear()
    cold = rows()
    # 15 fd_kappa_spectrum grids and the 3 of convergence_order
    assert oracle._fd_block.cache_info().misses == 18
    warm = rows()
    assert oracle._fd_block.cache_info().misses == 18
    assert warm == cold and all(passed for _, _, passed in cold)


def test_warm_spectrum_reads_the_cached_kappas_without_bisection(monkeypatch):
    lapack = oracle._lapack()
    grid = default_grid(4, 3, 2001)
    oracle._fd_block.cache_clear()
    cached, _ = oracle._fd_block(4, 3, grid)
    calls = []
    real = lapack.dstebz

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lapack, "dstebz", spy)
    res = fd_kappa_spectrum(4, -3, grid)
    assert calls == []
    assert res.kappas is cached and not res.kappas.flags.writeable
    # the spy does see a cold solve
    fd_kappa_spectrum(4, 3, default_grid(4, 3, 2003))
    assert len(calls) == 1


def test_cold_and_warm_spectra_are_identical_bytes():
    grid = default_grid(5, 2, 3001)
    oracle._fd_block.cache_clear()
    cold = fd_kappa_spectrum(5, 2, grid)
    # one miss fills both kappas and node counts
    assert oracle._fd_block.cache_info()[:2] == (0, 1)
    warm = fd_kappa_spectrum(5, 2, grid)
    assert oracle._fd_block.cache_info()[:2] == (1, 1)
    assert cold.kappas.tobytes() == warm.kappas.tobytes()
    assert cold.node_counts == warm.node_counts


_BLOCKS = _SWEEP + [(n, s, p) for n in range(9) for s in (0, 1, 5, 64)
                    for p in (2001, 12001)]


def test_warm_spectrum_makes_no_lapack_call(monkeypatch):
    lapack = oracle._lapack()
    calls = []
    for name in ("dgtsv", "dstebz"):
        def spy(*args, _real=getattr(lapack, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(lapack, name, spy)
    oracle._fd_block.cache_clear()
    for n, s, p in _BLOCKS:
        grid = default_grid(n, s, p)
        cold = fd_kappa_spectrum(n, s, grid)
        # one bisection, then at least two gtsv per branch
        assert calls.count("dstebz") == 1, (n, s, p)
        assert calls.count("dgtsv") >= 2 * (n + 1), (n, s, p)
        del calls[:]
        warm = fd_kappa_spectrum(n, -s, grid)
        assert calls == [], (n, s, p)
        assert warm.kappas is cold.kappas
        assert warm.node_counts == cold.node_counts


_LATER_SCIPY_IMPORT = """
import sys
import numpy as np
from magpair import oracle
blocks = [(4, 2, 3001), (8, 1, 801), (0, 5, 2001)]
cold = [oracle.fd_kappa_spectrum(n, s, oracle.default_grid(n, s, p)).kappas
        for n, s, p in blocks]
assert "scipy.linalg" not in sys.modules, "the solve imported scipy.linalg"
lib = oracle._lapack()
from scipy.linalg import eigh_tridiagonal, lapack
assert lapack.dstebz is lib.dstebz and lapack.dgtsv is lib.dgtsv
# the same solves, driven through the public scipy.linalg.lapack names
oracle._lapack = lambda: lapack
for (n, s, p), kappas in zip(blocks, cold):
    _, ri, _, _, diag, off = oracle._pencil(n, s, oracle.default_grid(n, s, p))
    w, _ = oracle._top_block(diag, off, n + 1)
    assert w.tobytes() == kappas.tobytes(), (n, s, p)
    m = len(ri)
    ref = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                           select_range=(m - n - 1, m - 1), tol=1e-300)
    assert np.max(np.abs(ref - kappas)) <= oracle._tolerance(diag, off)
"""


def test_a_later_scipy_import_shares_the_loaded_extension():
    # the oracle loads scipy.linalg._flapack by file; importing scipy.linalg
    # afterwards must reuse it, and scipy's own solvers must still run
    src = str(Path(oracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _LATER_SCIPY_IMPORT],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_a_missing_lapack_extension_is_an_import_error(monkeypatch):
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES",
                        [".missing"])
    with pytest.raises(ImportError, match="_flapack") as info:
        oracle._lapack.__wrapped__()
    assert info.value.path.endswith(os.path.join("linalg", "_flapack"))


def test_kappas_and_node_counts_equal_the_uncached_solve():
    # the uncached path: a fresh _top_block solve, its vectors scaled to A
    for n, s, p in _BLOCKS:
        grid = default_grid(n, s, p)
        res = fd_kappa_spectrum(n, s, grid)
        _, _, sub, sup, diag, off = oracle._pencil(n, s, grid)
        w, v = oracle._top_block(diag, off, n + 1)
        ref = v * _similarity(sub, sup)[:, None]
        assert res.kappas.tobytes() == w.tobytes(), (n, s, p)
        assert res.node_counts == tuple(
            oracle._count_sign_changes(ref[:, k]) for k in range(n + 1)), \
            (n, s, p)
