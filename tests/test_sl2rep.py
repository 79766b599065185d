"""Generator matrices against an independent differential-operator route."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from magpair.sl2rep import (
    build_T_algebraic,
    build_T_direct,
    commutator_check,
    jminus,
    jplus,
    jzero,
)

# numpy.polynomial gives an independent realization of the same operators:
# differentiate and multiply coefficient arrays instead of filling matrices.


def pad(c, dim):
    out = np.zeros(dim)
    out[:min(dim, len(c))] = c[:dim]
    return out


def jplus_analytic(n, c, dim):
    # rho^2 p' - n rho p
    return pad(P.polysub(P.polymul((0, 0, 1), P.polyder(c)),
                         P.polymul((0, n), c)), dim)


def jzero_analytic(n, c, dim):
    # rho p' - (n/2) p
    return pad(P.polysub(P.polymul((0, 1), P.polyder(c)),
                         P.polymul((n / 2.0,), c)), dim)


def jminus_analytic(c, dim):
    return pad(P.polyder(c), dim)


def t_analytic(n, a, c, dim):
    # rho^2 p' - n rho p - rho p'' - (1 + 2a) p'
    d1, d2 = P.polyder(c), P.polyder(c, 2)
    out = P.polysub(P.polymul((0, 0, 1), d1), P.polymul((0, n), c))
    out = P.polysub(out, P.polymul((0, 1), d2))
    out = P.polysub(out, P.polymul((1.0 + 2.0 * a,), d1))
    return pad(out, dim)


coeff_vecs = st.lists(st.integers(min_value=-9, max_value=9),
                      min_size=1, max_size=7)


@settings(max_examples=40)
@given(coeff_vecs, st.integers(min_value=0, max_value=6))
def test_generators_match_polynomial_calculus(coeffs, n):
    # the image of p under each generator, both routes, on a space large
    # enough that nothing truncates
    dim = len(coeffs) + 2
    c = pad(np.array(coeffs, dtype=float), dim)
    N = dim - 1
    assert np.array_equal((jplus(n, N) @ c)[:dim - 1],
                          jplus_analytic(n, coeffs, dim)[:dim - 1])
    assert np.array_equal(jzero(n, N) @ c, jzero_analytic(n, coeffs, dim))
    assert np.array_equal(jminus(N) @ c, jminus_analytic(coeffs, dim))


@settings(max_examples=40)
@given(coeff_vecs, st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=4))
def test_T_matches_polynomial_calculus(coeffs, n, a):
    dim = len(coeffs) + 2
    c = pad(np.array(coeffs, dtype=float), dim)
    got = build_T_direct(n, a, dim=dim).astype(float) @ c
    want = t_analytic(n, a, coeffs, dim)
    # the raising part of the top monomial leaves the space; ignore it
    assert np.array_equal(got[:dim - 1], want[:dim - 1])


def test_jplus_annihilates_top_monomial():
    n = 5
    top = np.zeros(n + 3)
    top[n] = 1.0
    assert not np.any(jplus(n, n + 2) @ top)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 16])
def test_commutators_exact(n):
    for N in (n + 2, n + 4):
        devs = commutator_check(n, N)
        assert devs == {"[J0,J+] - J+": 0.0, "[J0,J-] + J-": 0.0,
                        "[J+,J-] + 2J0": 0.0}


def test_commutator_check_needs_headroom():
    with pytest.raises(ValueError):
        commutator_check(4, 5)


def test_dual_route_T_identical():
    for n in range(17):
        for a in range(9):
            d = build_T_direct(n, a)
            g = build_T_algebraic(n, a)
            assert d.dtype == g.dtype == np.int64
            assert np.array_equal(d, g), (n, a)


def test_T_frozen_entries():
    want = np.array([
        [0, -5, 0, 0],
        [-3, 0, -12, 0],
        [0, -2, 0, -21],
        [0, 0, -1, 0],
    ], dtype=np.int64)
    assert np.array_equal(build_T_direct(3, 2), want)
    assert np.array_equal(np.diag(build_T_direct(6, 1)), np.zeros(7))


def test_operator_wrapper():
    # operators are plain arrays: @ composes them and checks lengths
    jm = jminus(3)
    with pytest.raises(ValueError):
        jm @ np.ones(3)
    two = (jm @ jm) @ np.array([0.0, 0.0, 0.0, 1.0])
    assert list(two) == [0.0, 6.0, 0.0, 0.0]  # d^2/drho^2 rho^3 = 6 rho


def test_validation():
    with pytest.raises(ValueError):
        jplus(-1, 3)
    with pytest.raises(ValueError):
        build_T_direct(2, -1)
    with pytest.raises(ValueError):
        build_T_direct(2, 0, dim=0)


@pytest.mark.parametrize("n", [1, 3, 64])
def test_coupling_builders_refuse_s_abs_beyond_exact_entries(n):
    # the largest s_abs with n (n + 2 s_abs + 1) < 2**52: both routes are
    # exact there and agree with the integer formula -k (k + 2 s_abs)
    most = ((2**52 - 1) // n - n - 1) // 2
    assert n * (n + 2 * most + 1) < 2**52 <= n * (n + 2 * most + 3)
    d, g = build_T_direct(n, most), build_T_algebraic(n, most)
    assert np.array_equal(d, g)
    assert int(d[n - 1, n]) == -n * (n + 2 * most)
    # one beyond, the algebraic route rounds (odd n) and int64 later
    # overflows, so both refuse, and so do far larger values
    for build in (build_T_direct, build_T_algebraic):
        for s_abs in (most + 1, 2**62, 10**20):
            with pytest.raises(ValueError, match="s_abs must be at most"):
                build(n, s_abs)
