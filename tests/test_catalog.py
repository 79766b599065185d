"""Closed-form catalog against the secular solver, including the known
n = 8 rho^7 inconsistency which must stay visible, not patched."""

import math
import re
import types

import numpy as np
import pytest

from magpair import catalog, qes
from magpair.catalog import (
    MAX_CATALOG_DEGREE,
    catalog_polynomial,
    closed_form_lambdas,
    compare_catalog_with_solver,
)
from magpair.sl2rep import build_T_direct


def test_lambda_matches_solver_everywhere():
    worst = 0.0
    for n in range(MAX_CATALOG_DEGREE + 1):
        for s in range(6):
            cmp = compare_catalog_with_solver(n, s)
            worst = max(worst, max(b.lam_rel_err for b in cmp.branches))
    assert worst <= 1e-12  # observed 6.2e-15


def test_coefficients_match_solver_where_consistent():
    worst = 0.0
    for n in range(8):
        for s in range(6):
            cmp = compare_catalog_with_solver(n, s)
            worst = max(worst, max(b.coeff_max_abs_err for b in cmp.branches))
    cmp = compare_catalog_with_solver(8, 0)  # the broken term carries |s|
    worst = max(worst, max(b.coeff_max_abs_err for b in cmp.branches))
    assert worst <= 1e-9  # observed 4.4e-13


@pytest.mark.parametrize("s", [1, 3, 5])
def test_n8_rho7_printed_form_disagrees(s):
    cmp = compare_catalog_with_solver(8, s)
    # the lambdas themselves are fine
    assert max(b.lam_rel_err for b in cmp.branches) <= 1e-12
    for b in cmp.branches:
        assert b.worst_coeff_index == 7
        assert b.coeff_max_abs_err > 1e-6  # every branch, not only the worst
    assert max(b.coeff_max_abs_err for b in cmp.branches) > 1e-3


def test_comparison_solves_its_sector_once(monkeypatch):
    # one eigenvalue-only solve for the spectrum, one with vectors for all
    # four catalog branches
    calls, real = [], qes.eigh_tridiagonal
    monkeypatch.setattr(qes, "eigh_tridiagonal", lambda *a, **kw: calls.append(
        kw.get("eigvals_only", False)) or real(*a, **kw))
    qes._sector_couplings.cache_clear()
    qes._sector_vectors.cache_clear()
    assert len(compare_catalog_with_solver(8, 1).branches) == 4
    assert calls == [True, False]


def test_spot_lambda_values():
    assert closed_form_lambdas(0, 3) == (0.0,)
    assert closed_form_lambdas(1, 2) == (5.0,)
    assert closed_form_lambdas(2, 1) == (14.0,)
    r3 = math.sqrt(73.0)
    assert closed_form_lambdas(3, 0) == pytest.approx((10.0 + r3, 10.0 - r3),
                                                      rel=1e-15)
    r4 = 3.0 * math.sqrt(33.0)
    assert closed_form_lambdas(4, 0) == pytest.approx((25.0 + r4, 25.0 - r4),
                                                      rel=1e-15)
    # s enters lambda_1(n=3) through 73 + 128 a + 64 a^2
    assert closed_form_lambdas(3, 1)[0] == pytest.approx(
        20.0 + math.sqrt(265.0), rel=1e-15)


def test_polynomial_normalization_and_degree():
    for n in range(MAX_CATALOG_DEGREE + 1):
        for s in (0, 2):
            for j in range(1, len(closed_form_lambdas(n, s)) + 1):
                p = catalog_polynomial(n, s, j)
                assert len(p.coeffs) == n + 1 and p.coeffs[n] != 0.0
                assert p.coeffs[0] == 1.0
                if n >= 1:
                    assert p.coeffs[1] > 0.0  # kappa > 0 branch convention
    assert catalog_polynomial(0, 3, 1).coeffs == (1.0,)


def test_bounds_are_enforced():
    with pytest.raises(ValueError):
        closed_form_lambdas(9, 0)
    with pytest.raises(ValueError):
        closed_form_lambdas(-1, 0)
    with pytest.raises(ValueError):
        catalog_polynomial(3, 0, 0)
    with pytest.raises(ValueError):
        catalog_polynomial(3, 0, 3)  # n = 3 has two branches
    with pytest.raises(ValueError):
        closed_form_lambdas(3, 1.5)  # not truncated to |s| = 1
    with pytest.raises(ValueError):
        closed_form_lambdas(5, 1.5)


def test_aux_quantities_well_formed(monkeypatch):
    # the margins that let the closed forms call acos and sqrt unclamped:
    # observed |cos theta| <= 0.881 and min z >= 0.04 max z
    args = []
    spy = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math)
                                   if not k.startswith("_")})
    spy.acos = lambda x: args.append(x) or math.acos(x)
    monkeypatch.setattr(catalog, "math", spy)
    for s in (0, 1, 7, 64, 10 ** 4, 10 ** 8):
        for n in (5, 6, 7, 8):
            args.clear()
            lams = closed_form_lambdas(n, s)
            assert len(args) == 1 and abs(args[0]) < 0.89, (n, s)
            assert all(math.isfinite(lam) and lam > 0.0 for lam in lams)
        for n in (7, 8):
            _, z = catalog._aux_quartic(n, float(s))
            assert min(z) > 0.03 * max(z), (n, s)


def test_vieta_sum_of_branches():
    # the catalog lists one lambda = kappa^2 per +/- pair of couplings, so
    # its sum is tr(T^2)/2 = sum_k (n-k)(k+1)(k+1+2|s|), exactly in integers
    for n in range(1, MAX_CATALOG_DEGREE + 1):
        for s in (0, 1, 4):
            t = build_T_direct(n, s)
            total = sum((n - k) * (k + 1) * (k + 1 + 2 * s) for k in range(n))
            assert 2 * total == int(np.trace(t @ t))
            assert sum(closed_form_lambdas(n, s)) == pytest.approx(
                total, rel=1e-12)


def test_n7_catalog_order_is_not_monotone():
    lams = closed_form_lambdas(7, 0)
    assert list(lams) != sorted(lams, reverse=True)
    by_descending = tuple(int(i) + 1 for i in np.argsort(-np.asarray(lams)))
    assert by_descending == (1, 3, 4, 2)


@pytest.mark.parametrize("n, k, fault", [
    (7, 80, "radicand^1.5"),  # was NaN
    (5, 120, "radicand^1.5"),  # was OverflowError from float **
    (3, 160, "lambda"),  # was +/-inf
])
def test_closed_form_lambdas_beyond_the_double_range_are_refused(n, k, fault):
    with pytest.raises(ValueError, match=f"closed-form {re.escape(fault)} "
                                         "overflows in double precision"):
        closed_form_lambdas(n, 10**k)


def test_catalog_denominator_beyond_the_double_range_is_refused():
    # the rho^8 denominator overflowed, and the coefficient printed as 0.0
    with pytest.raises(ValueError, match="closed-form denominator overflows"):
        catalog_polynomial(8, 10**38, 1)


@pytest.mark.parametrize("n, k", [(7, 50), (5, 100), (3, 150)])
def test_closed_form_lambdas_in_range_are_finite(n, k):
    assert all(math.isfinite(lam) and lam > 0.0
               for lam in closed_form_lambdas(n, 10**k))


@pytest.mark.parametrize("k", [20, 37])
def test_top_catalog_coefficient_in_range_keeps_its_value(k):
    # the rho^8 coefficient of branch j = 1 tends to 0.0625 |s|^-4
    top = catalog_polynomial(8, 10**k, 1).coeffs[8]
    assert math.isclose(top, 0.0625 / 10.0 ** (4 * k), rel_tol=1e-12)
