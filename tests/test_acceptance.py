"""Acceptance gate: ten go/no-go criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see every line; each
criterion states its own tolerance inline and fails loudly, never
silently.  Criteria 1 and 6 carry runtime budgets.  Criteria repeating a
`magpair verify` sweep hold its measured values to their own bounds.
"""

import contextlib
import io
import math
import time

import numpy as np

from magpair import cli
from magpair.qes import dimensionless_energy, secular_spectrum
from magpair.sl2rep import build_T_direct
from magpair.system import CaseTag

EL = CaseTag.EQUAL_LARMOR


def _finish(k: int, ok: bool, detail: str) -> None:
    print(f"[PRIMARY {k}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"[PRIMARY {k}] {detail}"


def _measured(only, ns=None, ss=None):
    """Measured value by check name for one section of `magpair verify`."""
    return {c.name: c.measured
            for c in cli.run_verification(ns, ss, only=only)}


def _physical(n, s):
    return [p for p in secular_spectrum(n, s, EL) if p.physical]


def test_primary_01_catalog_lambdas():
    t0 = time.perf_counter()
    got = _measured("catalog")
    dt = time.perf_counter() - t0
    low, high = got["lambda rel err n<=6"], got["lambda rel err n=7..8"]
    ok = low <= 1e-10 and high <= 1e-8 and dt < 1.0
    _finish(1, ok, "closed-form lambdas vs solver, n<=8 |s|<=5 "
            f"(rel {low:.2e} for n<=6, {high:.2e} for n=7..8; {dt:.2f}s)")


def test_primary_02_spot_values():
    tol = 1e-12
    devs = [
        abs(_physical(1, 0)[0].lam - 1.0),
        abs(_physical(2, 0)[0].lam - 6.0),
        abs(_physical(3, 0)[0].lam - (10.0 + math.sqrt(73.0))),
        abs(_physical(3, 0)[1].lam - (10.0 - math.sqrt(73.0))),
        abs(_physical(4, 0)[0].lam - (25.0 + 3.0 * math.sqrt(33.0))),
        abs(_physical(4, 0)[1].lam - (25.0 - 3.0 * math.sqrt(33.0))),
        abs(_physical(1, 0)[0].b - 1.0),
        abs(_physical(2, 0)[0].b - 1.0 / 6.0),
        abs(_physical(3, 0)[0].b - 1.0 / (10.0 + math.sqrt(73.0))),
    ]
    worst = max(devs)
    _finish(2, worst <= tol,
            f"spot lambdas n=1..4 and fields b (worst dev {worst:.2e} "
            f"<= {tol:.0e})")


def test_primary_03_spectrum_structure():
    got = _measured("symmetry", ss=[0, 1, 2])
    worst_mirror = got["kappa mirror multiset n<=12"]
    structure_ok = got["positive count and zero membership"] == 0.0
    worst_imag = worst_agree = 0.0
    for n in range(13):
        for s in (0, 1, 2):
            kap = np.sort([p.kappa for p in secular_spectrum(n, s, EL)])
            # independent route: dense eigenvalues of the integer operator
            t = build_T_direct(n, s).astype(float)
            ev = np.linalg.eigvals(t)
            scale = max(1.0, float(np.max(np.abs(ev))))
            worst_imag = max(worst_imag,
                             float(np.max(np.abs(ev.imag))) / scale)
            worst_agree = max(worst_agree, float(np.max(np.abs(
                np.sort(ev.real) - np.sort(-kap)))) / scale)
    ok = (worst_imag <= 1e-12 and worst_agree <= 1e-12
          and worst_mirror <= 1e-12 and structure_ok)
    _finish(3, ok, "spectrum real, mirror-symmetric, zero iff n even, "
            f"floor((n+1)/2) positive roots, n<=12 (mirror {worst_mirror:.1e}, "
            f"dense-eig agreement {worst_agree:.1e})")


def test_primary_04_node_ladders():
    got = _measured("nodes")
    ok = (got["ladder 0..floor((n-1)/2) n<=8"] == 0.0
          and got["n=5,6 map j=1,3,2 -> 0,1,2"] == 0.0)
    _finish(4, ok, "node ladders 0..floor((n-1)/2) for n<=8 and the "
            "n=5,6 catalog-label map j=1,3,2 -> 0,1,2 nodes")


def test_primary_05_residuals():
    got = _measured("residuals")
    solver, catalog = got["solver eigenpairs n<=12"], got["closed forms n<=6"]
    ok = solver <= 1e-12 and catalog <= 1e-9
    _finish(5, ok, f"eigen residuals: solver {solver:.2e} <= 1e-12 (n<=12), "
            f"closed forms {catalog:.2e} <= 1e-9 (n<=6)")


def test_primary_06_finite_difference_oracle():
    t0 = time.perf_counter()
    got = _measured("oracle")
    dt = time.perf_counter() - t0
    err = got["kappa vs finite differences n<=4 |s|<=2"]
    order = got["grid convergence order at (4,2)"]
    ok = (err <= 1e-4 and got["node counts agree"] == 0.0 and order >= 1.8
          and dt < 30.0)
    _finish(6, ok, "finite-difference oracle n<=4 |s|<=2: kappa dev "
            f"{err:.2e} <= 1e-4, nodes match, order {order:.3f} >= 1.8 "
            f"({dt:.1f}s)")


def test_primary_07_neutral_mirror():
    got = _measured("symmetry", ns=list(range(9)), ss=[0, 1, 3])
    coeff = got["neutral parity-flip coefficients n<=8"]
    ok = got["shared field quantization b"] == 0.0 and coeff <= 1e-10
    _finish(7, ok, "neutral case: kappa bitwise negated, b bitwise shared, "
            f"parity-flipped coefficients dev {coeff:.2e} <= 1e-10, n<=8")


def test_primary_08_exact_algebra():
    sl2_ok = all(v == 0.0 for v in _measured("sl2").values())
    dual = _measured("tmatrix")["direct vs algebraic n<=16 |s|<=8"]
    integral = _measured("annihilator")["[T, i_n] = 0 on P_n n<=10 |s|<=5"]
    casimir = _measured("casimir")["K^2 - 2qB S - 2M E_R sweep N,|S|<=10"]
    ok = sl2_ok and dual == 0.0 and integral == 0.0 and casimir == 0.0
    _finish(8, ok, "exact algebra: sl2 commutators on P_16, dual operator "
            f"builds n<=16 |s|<=8 (diff {dual:g}), [T, i_n] = 0 on P_n n<=10 "
            f"(max {integral:g}), Casimir identity 0.0 for N,|S|<=10")


def test_primary_09_degeneracy_laws():
    ok = True
    for n in range(9):
        e0 = dimensionless_energy(n, 0, EL)
        if any(dimensionless_energy(n, s, EL) != e0 for s in range(9)):
            ok = False
    got = _measured("casimir")
    ok = (ok and got["E_R degenerate in S>=0"] == 0.0
          and got["K^2 degenerate in S<=0"] == 0.0)
    _finish(9, ok, "degeneracies exact: E_rho flat in s>=0, E_R flat in "
            "S>=0, K^2 flat in S<=0")


def test_primary_10_verify_determinism():
    outs = []
    codes = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(cli.main(["verify"]))
        outs.append(buf.getvalue())
    ok = codes == [0, 0] and outs[0] == outs[1] and len(outs[0]) > 0
    _finish(10, ok, "full verification suite exits 0 twice with "
            f"byte-identical reports ({len(outs[0])} bytes)")
