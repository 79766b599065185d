"""Annihilators of P_n: exact diagonals, commutation, dressed action."""

import math

import numpy as np
import pytest

from magpair.integrals import (
    annihilation_check,
    build_annihilator,
    commutator_particular_check,
    gauge_rotated_action,
)
from magpair.polyops import Polynomial
from magpair.qes import EigenPair, eigenfunction, secular_spectrum
from magpair.system import CaseTag

EL = CaseTag.EQUAL_LARMOR
NU = CaseTag.NEUTRAL


def test_minus_convention_annihilates():
    for n in range(11):
        report = annihilation_check(n)
        assert report.max_abs_minus == 0
        if n >= 1:
            assert report.max_abs_plus > 0


def test_degree_zero_conventions_coincide():
    # i_0 is the bare Euler operator under either sign, so both kill P_0
    report = annihilation_check(0)
    assert report.max_abs_minus == 0 and report.max_abs_plus == 0


def test_diagonal_entries_explicit():
    assert build_annihilator(0, dim=3).diagonal().tolist() == [0, 1, 2]
    assert annihilation_check(2).max_abs_plus == 24  # k (k+1) (k+2), k <= 2
    minus = build_annihilator(2, dim=4).diagonal()
    assert minus.tolist() == [0, 0, 0, 6]   # k (k-1) (k-2)
    assert minus.dtype == np.int64


def test_commutator_vanishes_exactly_on_pn():
    for n in range(11):
        for s in (0, 2, 5):
            report = commutator_particular_check(n, s)
            assert report.max_abs_on_pn == 0
            if n >= 1:
                assert report.max_abs_beyond > 0


def test_commutator_spot_magnitudes():
    assert commutator_particular_check(5, 2).max_abs_beyond == 43200


def test_dimension_and_sign_guards():
    with pytest.raises(ValueError):
        build_annihilator(2, dim=0)
    with pytest.raises(ValueError):
        build_annihilator(-1)


def test_overflow_guard():
    with pytest.raises(ValueError):
        build_annihilator(30)
    with pytest.raises(ValueError):
        commutator_particular_check(30, 0)


def test_dressed_action_kills_eigenstates():
    grid = np.linspace(0.25, 12.0, 48)
    for case in (EL, NU):
        for point in secular_spectrum(3, 1, case):
            pair = eigenfunction(3, 1, point)
            out = gauge_rotated_action(pair, grid)
            assert out.shape == grid.shape
            assert np.all(out == 0.0)


def test_dressed_action_sees_nonmembers():
    grid = np.linspace(0.25, 12.0, 48)
    point = secular_spectrum(2, 0, EL)[0]
    intruder = EigenPair(point=point,
                         polynomial=Polynomial((1.0, 0.0, 0.0, 1.0)),
                         residual=0.0)
    out = gauge_rotated_action(intruder, grid)
    # only the rho^3 component survives i_2, with weight 3!
    want = (np.exp(-0.25 * grid ** 2) * math.factorial(3) * grid ** 3)
    assert np.allclose(out, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("grid", [[-1.0, 0.5], [1.0, 0.5], [0.0, math.nan]])
def test_dressed_action_validates_its_grid(grid):
    pair = eigenfunction(3, 1, secular_spectrum(3, 1, EL)[0])
    with pytest.raises(ValueError, match="ascending and nonnegative"):
        gauge_rotated_action(pair, np.array(grid))


def test_dressed_action_is_zero_where_the_gaussian_underflows():
    # a degree n + 1 polynomial survives i_n, and far out r^|s| overflows
    # where the Gaussian is already 0: the product is 0, not 0 * inf
    point = secular_spectrum(2, 2, EL)[0]
    intruder = EigenPair(point=point,
                         polynomial=Polynomial((1.0, 0.0, 0.0, 1.0)),
                         residual=0.0)
    grid = np.array([0.0, 1.0, 60.0, 1e200, 1e300])
    with np.errstate(invalid="raise"):
        out = gauge_rotated_action(intruder, grid)
    assert out[1] == math.exp(-0.25) * 1.0 * 6.0
    assert list(out[2:]) == [0.0, 0.0, 0.0]
