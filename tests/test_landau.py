"""CM Landau sector: Laguerre recurrence, level laws, exact identity."""

import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from magpair.landau import (
    LAGUERRE_ARGUMENT_NOTE,
    CMState,
    casimir_identity_check,
    cm_energy,
    cm_wavefunction,
    laguerre,
    pseudomomentum_sq,
)
from magpair.polyops import Polynomial
from magpair.system import ChargePair, derive
from sturm import count_positive_roots

DYADIC = derive(ChargePair(2.0, 2.0, 2.0, 2.0, 2.0))  # q=4, M=4, omega_c=2
NEGATIVE = derive(ChargePair(-2.0, -2.0, 2.0, 2.0, 2.0))  # its charge conjugate


def test_laguerre_matches_scipy():
    x = np.linspace(0.0, 20.0, 41)
    for N in range(9):
        for alpha in (0.0, 1.0, 2.0, 3.5):
            mine = laguerre(N, alpha, x)
            ref = eval_genlaguerre(N, alpha, x)
            assert np.allclose(mine, ref, rtol=1e-11, atol=1e-11), (N, alpha)


def test_laguerre_exact_values():
    assert laguerre(0, 7.0, 3.3) == 1.0
    assert laguerre(1, 2.0, 0.0) == 3.0
    assert laguerre(1, 2.0, 5.0) == -2.0
    assert laguerre(2, 0.0, 2.0) == -1.0
    arr = laguerre(1, 2.0, np.array([0.0, 1.0]))
    assert isinstance(arr, np.ndarray) and arr.tolist() == [3.0, 2.0]
    assert isinstance(laguerre(3, 0.0, 1.0), float)
    with pytest.raises(ValueError):
        laguerre(-1, 0.0, 1.0)
    with pytest.raises(ValueError):
        laguerre(1.5, 0.0, 1.0)


def test_level_energy():
    assert cm_energy(CMState(1, -2), DYADIC) == 7.0
    assert cm_energy(CMState(0, 0), DYADIC) == 1.0
    # spectrum collapses for S >= 0 and climbs linearly below
    for N in range(4):
        base = cm_energy(CMState(N, 0), DYADIC)
        for S in range(0, 8):
            assert cm_energy(CMState(N, S), DYADIC) == base
        for S in range(-5, 0):
            assert cm_energy(CMState(N, S), DYADIC) == base - DYADIC.omega_c * S


def test_pseudomomentum():
    assert pseudomomentum_sq(CMState(0, 0), 1.0, 1.0) == 1.0
    assert pseudomomentum_sq(CMState(2, 1), 3.0, 1.0) == 21.0
    for N in range(4):
        base = pseudomomentum_sq(CMState(N, 0), *(DYADIC.q, DYADIC.B))
        for S in range(-7, 1):
            assert pseudomomentum_sq(CMState(N, S), DYADIC.q, DYADIC.B) == base


def test_casimir_identity_exact_on_dyadic_params():
    for dp in (DYADIC, NEGATIVE):
        for N in range(11):
            for S in range(-10, 11):
                assert casimir_identity_check(CMState(N, S), dp) == 0.0


def test_casimir_identity_generic_params():
    dp = derive(ChargePair(1.0, 2.0, 1.0, 3.0, 0.7))
    for N in (0, 3, 9):
        for S in (-6, 0, 6):
            state = CMState(N, S)
            res = casimir_identity_check(state, dp)
            scale = abs(pseudomomentum_sq(state, dp.q, dp.B))
            assert abs(res) <= 1e-12 * max(1.0, scale)


def test_state_validation():
    with pytest.raises(ValueError):
        CMState(-1, 0)
    with pytest.raises(ValueError):
        CMState(0.5, 0)
    with pytest.raises(ValueError):
        CMState(0, 0.5)
    CMState(0, -5)  # negative S is a valid label


def test_ground_orbital_is_pure_gaussian():
    grid = np.linspace(0.0, 4.0, 33)
    chi = cm_wavefunction(CMState(0, 0), DYADIC, grid)
    want = np.exp(-0.25 * DYADIC.M * DYADIC.omega_c * grid ** 2)
    assert np.array_equal(chi, want)
    assert "2 R^2 / (M omega_c)" in LAGUERRE_ARGUMENT_NOTE


@pytest.mark.parametrize("N", [0, 3])
def test_orbital_is_zero_where_the_gaussian_underflows(N):
    # far out R^|S| overflows to inf where exp(...) underflows to 0
    dp = derive(ChargePair(1.0, 1.0, 1.0, 1.0, 1.0))  # M = 2, omega_c = 1
    grid = np.array([0.0, 1.0, 60.0, 1e200, 1e300])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        chi = cm_wavefunction(CMState(N, 2), dp, grid)
    assert np.all(np.isfinite(chi))
    assert chi[1] != 0.0 and chi[2:].tolist() == [0.0, 0.0, 0.0]
    # live points keep the product order power x Gaussian x Laguerre
    r = grid[:2]
    want = (np.power(r, 2) * np.exp(-0.25 * dp.M * dp.omega_c * r * r)
            * laguerre(N, 2.0, 2.0 * r * r / (dp.M * dp.omega_c)))
    assert chi[:2].tobytes() == want.tobytes()


def test_orbital_node_count_and_origin():
    N, S = 3, 1
    dp = derive(ChargePair(1.0, 1.0, 1.0, 1.0, 1.0))  # M = 2, omega_c = 1
    grid = np.linspace(0.0, 6.0, 601)
    chi = cm_wavefunction(CMState(N, S), dp, grid)
    assert chi[0] == 0.0  # R^|S| kills the origin for S != 0
    body = chi[1:]
    signs = np.sign(body[np.abs(body) > 1e-12 * np.max(np.abs(body))])
    assert int(np.sum(signs[1:] != signs[:-1])) == N
    # same count from the explicit Laguerre coefficients, exactly
    coeffs = tuple((-1.0) ** k * math.comb(N + S, N - k) / math.factorial(k)
                   for k in range(N + 1))
    assert count_positive_roots(Polynomial(coeffs)) == N


def test_orbital_rejects_neutral_pair():
    dp = derive(ChargePair(1.0, -1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        cm_wavefunction(CMState(0, 0), dp, np.linspace(0.0, 1.0, 17))


def test_orbital_grid_validation():
    # NaN is neither nonnegative nor ascending
    for bad in (np.array([1.0, 0.5]), np.array([-1.0, 0.5]),
                np.zeros((2, 2)), np.array([]),
                np.array([0.0, math.nan, 2.0]), np.array([math.nan])):
        with pytest.raises(ValueError):
            cm_wavefunction(CMState(0, 0), DYADIC, bad)


def test_negative_pair_has_positive_energy_and_pseudomomentum():
    for N in range(4):
        for S in range(-5, 6):
            state = CMState(N, S)
            assert cm_energy(state, NEGATIVE) > 0.0
            assert pseudomomentum_sq(state, NEGATIVE.q, NEGATIVE.B) > 0.0
            # levels of the charge conjugate with S mirrored
            mirror = CMState(N, -S)
            assert cm_energy(state, NEGATIVE) == cm_energy(mirror, DYADIC)
            assert pseudomomentum_sq(state, NEGATIVE.q, NEGATIVE.B) == \
                pseudomomentum_sq(mirror, DYADIC.q, DYADIC.B)


def test_negative_pair_energy_is_degenerate_in_nonpositive_S():
    for N in range(4):
        base = cm_energy(CMState(N, 0), NEGATIVE)
        for S in range(-7, 1):
            assert cm_energy(CMState(N, S), NEGATIVE) == base
        for S in range(1, 6):
            assert cm_energy(CMState(N, S), NEGATIVE) == \
                base + abs(NEGATIVE.omega_c) * S


@pytest.mark.parametrize("N", [0, 3])
def test_negative_pair_orbital_is_its_charge_conjugates(N):
    grid = np.array([0.0, 1.0, 10.0, 60.0])
    neg = derive(ChargePair(-1.0, -1.0, 1.0, 1.0, 1.0))
    pos = derive(ChargePair(1.0, 1.0, 1.0, 1.0, 1.0))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        chi = cm_wavefunction(CMState(N, 2), neg, grid)
    want = cm_wavefunction(CMState(N, 2), pos, grid)
    assert chi.tobytes() == want.tobytes()
    assert chi[1] != 0.0 and chi[-1] == 0.0
