"""Closed-form catalog against the secular solver, including the known
n = 8 rho^7 inconsistency which must stay visible, not patched."""

import math

import numpy as np
import pytest

from magpair import qes
from magpair.catalog import (
    MAX_CATALOG_DEGREE,
    catalog_polynomial,
    closed_form_aux,
    closed_form_lambdas,
    compare_catalog_with_solver,
)


def test_lambda_matches_solver_everywhere():
    worst = 0.0
    for n in range(MAX_CATALOG_DEGREE + 1):
        for s in range(6):
            cmp = compare_catalog_with_solver(n, s)
            worst = max(worst, cmp.max_lam_rel_err)
    assert worst <= 1e-12  # observed 6.2e-15


def test_coefficients_match_solver_where_consistent():
    worst = 0.0
    for n in range(8):
        for s in range(6):
            cmp = compare_catalog_with_solver(n, s)
            worst = max(worst, cmp.max_coeff_abs_err)
            assert cmp.notes == ()
    cmp = compare_catalog_with_solver(8, 0)  # the broken term carries |s|
    worst = max(worst, cmp.max_coeff_abs_err)
    assert cmp.notes == ()
    assert worst <= 1e-9  # observed 4.4e-13


@pytest.mark.parametrize("s", [1, 3, 5])
def test_n8_rho7_printed_form_disagrees(s):
    cmp = compare_catalog_with_solver(8, s)
    assert cmp.max_lam_rel_err <= 1e-12  # the lambdas themselves are fine
    for b in cmp.branches:
        assert b.worst_coeff_index == 7
        assert b.coeff_max_abs_err > 1e-6  # every branch crosses NOTE_THRESHOLD
    assert cmp.max_coeff_abs_err > 1e-3
    assert cmp.notes and all("rho^7" in note for note in cmp.notes)


def test_comparison_solves_its_sector_once(monkeypatch):
    # one eigenvalue-only solve for the spectrum, one with vectors for all
    # four catalog branches
    calls, real = [], qes.eigh_tridiagonal
    monkeypatch.setattr(qes, "eigh_tridiagonal", lambda *a, **kw: calls.append(
        kw.get("eigvals_only", False)) or real(*a, **kw))
    qes._sector_couplings.cache_clear()
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
                assert p.degree == n
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
        closed_form_aux(5, 1.5)


def test_aux_quantities_well_formed():
    for n in (5, 6, 7, 8):
        for s in range(6):
            aux = closed_form_aux(n, s)
            assert aux.s_abs == s
            assert 0.0 <= aux.theta <= math.pi
            if n in (5, 6):
                assert aux.amplitude > 0.0 and aux.z is None
            else:
                assert aux.amplitude is None
                assert len(aux.z) == 3 and all(z >= 0.0 for z in aux.z)
    for bad in (4, 9):
        with pytest.raises(ValueError):
            closed_form_aux(bad, 0)


def test_vieta_sum_of_branches():
    # cosine triples sum to zero, so the branch sums collapse to the centers
    for n, mult in ((5, 3.0), (6, 3.0), (7, 4.0), (8, 4.0)):
        for s in (0, 1, 4):
            aux = closed_form_aux(n, s)
            total = sum(closed_form_lambdas(n, s))
            assert total == pytest.approx(mult * aux.center, rel=1e-12)


def test_n7_catalog_order_is_not_monotone():
    lams = closed_form_lambdas(7, 0)
    assert list(lams) != sorted(lams, reverse=True)
    by_descending = tuple(int(i) + 1 for i in np.argsort(-np.asarray(lams)))
    assert by_descending == (1, 3, 4, 2)
