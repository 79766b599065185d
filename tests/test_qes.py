"""Secular solver: quantized couplings, eigenfunctions, fields, profiles."""

import copy
import dataclasses
import math
import pickle
import time

import numpy as np
import pytest

from magpair import qes
from magpair.oracle import fd_kappa_spectrum, oracle_match
from magpair.polyops import evaluate, parity_flip
from magpair.qes import (
    MAX_DEGREE,
    SpectralPoint,
    ZeroCouplingError,
    assemble_wavefunction,
    dimensionless_energy,
    eigenfunction,
    field_quantization,
    secular_spectrum,
)
from magpair.system import CaseTag, ChargePair, derive
from sturm import count_positive_roots

EL = CaseTag.EQUAL_LARMOR
NU = CaseTag.NEUTRAL


def physical(n, s, case=EL):
    return [p for p in secular_spectrum(n, s, case) if p.physical]


# ------------------------------------------------------ sector eigensolve

def test_dense_solve_matches_lapack_tridiagonal_bitwise():
    from scipy.linalg import eigh_tridiagonal
    for n in range(1, MAX_DEGREE + 1):
        for a in range(8):
            d, e, _ = qes._symmetrized(n, a)
            assert np.array_equal(
                qes.eigh_tridiagonal(d, e, eigvals_only=True),
                eigh_tridiagonal(d, e, eigvals_only=True)), (n, a)


@pytest.mark.parametrize("n", [8, 32, 64])
def test_pair_coefficients_match_lapack_vectors(n):
    from scipy.linalg import eigh_tridiagonal
    built = 0
    for a in (0, 1, 5):
        d, e, scale = qes._symmetrized(n, a)
        mu, w = eigh_tridiagonal(d, e)
        for p in secular_spectrum(n, a, EL):
            try:
                coeffs = eigenfunction(n, a, p).polynomial.coeffs
            except qes.IllConditionedError:
                continue  # refused at n = 64 (ROADMAP item 6)
            v = scale * w[:, int(np.argmin(np.abs(mu + p.kappa)))]
            assert list(coeffs) == list(v / v[0]), (n, a, p.kappa)
            built += 1
    assert built >= 3 * (n + 1) // 2


def test_rank_column_equals_the_nearest_coupling_column():
    # the eigenvector of the branch with k nodes is column k of the solve;
    # the reference finds it by the nearest eigenvalue instead
    for n in range(MAX_DEGREE + 1):
        for a in (0, 1, 5, 16, 64):
            d, e, _ = qes._symmetrized(n, a)
            mu, _ = qes.eigh_tridiagonal(d, e)
            for case in (EL, NU):
                for p in secular_spectrum(n, a, case):
                    i = int(np.argmin(np.abs(mu + p.kappa)))
                    assert i == p.nodes, (n, a, case, p.kappa)


@pytest.mark.parametrize("n", [0, 1, 6])
def test_pair_refuses_a_rank_outside_the_sector(n):
    p = secular_spectrum(n, 1, EL)[0]
    for nodes in (-1, n + 1):
        with pytest.raises(ValueError, match="rank"):
            eigenfunction(n, 1, dataclasses.replace(p, nodes=nodes))
    if n:
        # a rank inside 0..n whose coupling is not the point's kappa
        with pytest.raises(ValueError, match="rank"):
            eigenfunction(n, 1, dataclasses.replace(p, nodes=n - p.nodes))
    # the point and the check read the same cached couplings, so one ulp
    # off is already a different coupling
    with pytest.raises(ValueError, match="rank"):
        eigenfunction(n, 1, dataclasses.replace(
            p, kappa=float(np.nextafter(p.kappa, np.inf))))


def test_degree_zero_solves_without_special_cases():
    assert qes._sector_couplings(0, 3).tolist() == [0.0]
    [p] = secular_spectrum(0, 3, EL)
    assert repr(p.kappa) == "0.0" and p.nodes == 0 and p.b is None
    pair = eigenfunction(0, 3, p)
    assert pair.polynomial.coeffs == (1.0,) and pair.residual == 0.0


def test_couplings_are_solved_once_per_sector(monkeypatch):
    calls, real = [], qes.eigh_tridiagonal
    monkeypatch.setattr(qes, "eigh_tridiagonal", lambda d, e, **kw: calls.append(
        (len(d), kw.get("eigvals_only", False))) or real(d, e, **kw))
    qes._sector_couplings.cache_clear()
    qes._unit_points.cache_clear()
    sweep = [(n, s, case) for n in (1, 8, 64) for s in (-3, 3)
             for case in (EL, NU)]
    first = [secular_spectrum(*key) for key in sweep]
    assert calls == [(2, True), (9, True), (65, True)]
    assert [secular_spectrum(*key) for key in sweep] == first
    assert len(calls) == 3
    cached = qes._sector_couplings(8, 3)
    assert not cached.flags.writeable
    with pytest.raises(ValueError):
        cached[0] = 1.0


def test_points_without_dp_are_built_once_per_checked_key():
    qes._unit_points.cache_clear()
    first = secular_spectrum(5, -2, NU)
    # a caller's edit of its list reaches no later call
    first.reverse()
    first.append(None)
    again = secular_spectrum(5, -2, NU)
    assert again == list(qes._unit_points.__wrapped__(5, -2, NU))
    assert again == _sorted_spectrum(5, -2, NU)
    # the same points from one key, whatever integral types named it
    for n, s in ((np.int64(5), -2), (5.0, np.int64(-2)), (5, -2.0)):
        assert all(p is q for p, q in zip(secular_spectrum(n, s, NU), again))
    assert qes._unit_points.cache_info().currsize == 1
    # a refused input raises on every call and never becomes a key
    for args in ((True, 0, EL), (2, 0.5, EL), (2, 0, CaseTag.GENERIC),
                 (2, 0, []), (2, 0, "EqualLarmor")):
        for _ in range(2):
            with pytest.raises(ValueError):
                secular_spectrum(*args)
    assert qes._unit_points.cache_info().currsize == 1


def test_points_with_dp_are_built_on_every_call():
    dp = derive(ChargePair(1.0, 1.0, 1.0, 1.0, 2.0))
    qes._unit_points.cache_clear()
    first, again = secular_spectrum(3, 1, EL, dp), secular_spectrum(3, 1, EL, dp)
    assert first == again and not any(p is q for p, q in zip(first, again))
    assert qes._unit_points.cache_info().currsize == 0
    assert first != secular_spectrum(3, 1, EL)


# ------------------------------------------------------------ closed kappas

@pytest.mark.parametrize("a", [0, 1, 2, 5])
def test_n1_kappa_closed_form(a):
    pts = secular_spectrum(1, a, EL)
    want = math.sqrt(1.0 + 2.0 * a)
    kappas = sorted(p.kappa for p in pts)
    assert kappas == pytest.approx([-want, want], rel=1e-14)
    assert [p.j for p in pts if p.physical] == [1]


@pytest.mark.parametrize("a", [0, 1, 3])
def test_n2_kappa_closed_form(a):
    pts = secular_spectrum(2, a, EL)
    want = math.sqrt(6.0 + 8.0 * a)
    assert sorted(p.kappa for p in pts) == pytest.approx([-want, 0.0, want],
                                                         rel=1e-14, abs=1e-15)
    zero = [p for p in pts if p.kappa == 0.0]
    assert len(zero) == 1 and zero[0].b is None and not zero[0].physical


def test_recurrence_rebuilds_eigenvector_coefficients():
    # c_{m+1} = [kappa c_m + (m - 1 - n) c_{m-1}] / ((m+1)(m+1+2a)), c_0 = 1
    for n in range(11):
        for s in (0, 1, 3):
            a = s
            for p in secular_spectrum(n, s, EL):
                c = eigenfunction(n, s, p).polynomial.coeffs
                want = [1.0, p.kappa / (1.0 + 2.0 * a)][:n + 1]
                for m in range(1, n):
                    want.append((p.kappa * want[m]
                                 + (m - 1 - n) * want[m - 1])
                                / ((m + 1.0) * (m + 1.0 + 2.0 * a)))
                assert np.allclose(c, want, rtol=1e-10, atol=1e-12), (n, s, p.j)


def test_eigenpairs_basic_shape():
    for n in range(9):
        pts = secular_spectrum(n, 1, EL)
        assert len(pts) == n + 1
        js = [p.j for p in pts if p.physical]
        assert js == list(range(1, (n + 1) // 2 + 1))
        lams = [p.lam for p in pts]
        assert lams == sorted(lams, reverse=True)
        for p in pts:
            pair = eigenfunction(n, 1, p)
            c = pair.polynomial.coeffs
            assert len(c) == n + 1 and c[n] != 0.0
            assert pair.polynomial.coeffs[0] == 1.0
            assert pair.residual <= 1e-12


def test_sector_serves_both_signs_and_cases(monkeypatch):
    # (3, 2) and (3, -2) in both cases: 16 pairs from one vector solve
    calls, real = [], qes.eigh_tridiagonal
    monkeypatch.setattr(qes, "eigh_tridiagonal", lambda d, e, **kw: calls.append(
        kw.get("eigvals_only", False)) or real(d, e, **kw))
    qes._sector_couplings.cache_clear()
    qes._sector_vectors.cache_clear()
    coeffs = {}
    for s in (2, -2):
        for case in (EL, NU):
            for p in secular_spectrum(3, s, case):
                pair = eigenfunction(3, s, p)
                assert pair.point is p and pair.residual <= 1e-12
                coeffs.setdefault(p.kappa, set()).add(pair.polynomial)
    assert calls == [True, False]
    # the polynomial depends on kappa alone, not on the sign of s or the case
    assert len(coeffs) == 4 and all(len(c) == 1 for c in coeffs.values())
    vectors, t = qes._sector_vectors(3, 2)
    assert not vectors.flags.writeable and not t.flags.writeable
    with pytest.raises(ValueError):
        eigenfunction(3, 2, physical(3, 1)[0])
    with pytest.raises(ValueError, match="different"):
        eigenfunction(3, -2, physical(3, 2)[0])


def test_spot_values_s0():
    assert physical(1, 0)[0].lam == pytest.approx(1.0, abs=1e-12)
    assert physical(2, 0)[0].lam == pytest.approx(6.0, abs=1e-12)
    lams3 = sorted(p.lam for p in physical(3, 0))
    assert lams3 == pytest.approx([10.0 - math.sqrt(73.0),
                                   10.0 + math.sqrt(73.0)], rel=1e-13)
    lams4 = sorted(p.lam for p in physical(4, 0))
    assert lams4 == pytest.approx([25.0 - 3.0 * math.sqrt(33.0),
                                   25.0 + 3.0 * math.sqrt(33.0)], rel=1e-13)


def test_every_physical_field_is_at_most_one():
    # the paper's b <= 1 over the whole supported range, with equality only
    # at (n, |s|) = (1, 0), where kappa = +/-1 exactly; every other b stays
    # below 0.7 (the next smallest |kappa| is 1.2066 at (3, 0)), so a float
    # comparison cannot be tipped by rounding.  The sign of s does not enter
    # the couplings.
    top, rest = [], 0.0
    for n in range(MAX_DEGREE + 1):
        for s in range(MAX_DEGREE + 1):
            for case in (EL, NU):
                for p in physical(n, s, case):
                    if (n, s) == (1, 0):
                        top.append(p.b)
                    else:
                        rest = max(rest, p.b)
    assert top == [1.0, 1.0]
    assert 0.68 < rest < 0.7


def test_neutral_branch_is_parity_mirror():
    for n in (1, 4, 7):
        for s in (0, 2):
            el = physical(n, s, EL)
            nu = {p.j: p for p in physical(n, s, NU)}
            for pe in el:
                pn = nu[pe.j]
                assert pn.kappa == -pe.kappa
                assert pn.lam == pe.lam and pn.b == pe.b
                ce = eigenfunction(n, s, pe).polynomial
                cn = eigenfunction(n, s, pn).polynomial
                flip = parity_flip(ce)
                assert np.allclose(flip.coeffs, cn.coeffs, rtol=0, atol=1e-10)


def test_neutral_n1_explicit_polynomial():
    p = physical(1, 0, NU)[0]
    assert p.kappa == pytest.approx(-1.0, abs=1e-14)
    pair = eigenfunction(1, 0, p)
    assert pair.polynomial.coeffs == pytest.approx((1.0, -1.0), abs=1e-14)
    assert p.nodes == 1  # the neutral mirror has its node at rho = +1


# ------------------------------------------------------------------ energies

def test_energy_independent_of_positive_s():
    for n in range(6):
        e0 = dimensionless_energy(n, 0, EL)
        assert e0 == 0.5 * (n + 1)
        for s in range(6):
            assert dimensionless_energy(n, s, EL) == e0
        assert dimensionless_energy(n, -2, EL) == e0 + 2.0


def test_energy_dimensionful_and_neutral():
    dp = derive(ChargePair(1.0, 1.0, 1.0, 1.0, 1.0))
    assert dimensionless_energy(2, 0, EL, dp) == 1.5  # omega_c = 1 here
    dpn = derive(ChargePair(1.0, -1.0, 1.0, 3.0, 2.0))
    # Omega_q = 4/3, omega_q = 4/3: E = Omega (n+1+|s|) - omega s / 2
    want = (4.0 / 3.0) * 4.0 - (4.0 / 3.0) * 1.0 / 2.0
    assert dimensionless_energy(2, 1, NU, dpn) == pytest.approx(want)
    with pytest.raises(ValueError):
        dimensionless_energy(1, 0, CaseTag.GENERIC)


@pytest.mark.parametrize("m1, m2", [(3.0, 1.0), (1.0, 3.0), (2.0, 2.0)])
def test_neutral_energy_of_the_charge_conjugate_mirrors_s(m1, m2):
    # charge conjugation swaps which mass the positive charge carries and
    # reverses L_z, so the two pairs share their levels with s mirrored
    pair = derive(ChargePair(1.0, -1.0, m1, m2, 1.5))
    conjugate = derive(ChargePair(-1.0, 1.0, m1, m2, 1.5))
    for n in range(4):
        for s in range(-3, 4):
            assert dimensionless_energy(n, s, NU, pair) == pytest.approx(
                dimensionless_energy(n, -s, NU, conjugate), rel=1e-14)


def test_spectrum_validations():
    with pytest.raises(ValueError):
        secular_spectrum(-1, 0, EL)
    # bools and non-finite values are no quantum numbers
    for n, s in ((math.inf, 0), (math.nan, 0), (-math.inf, 0), (2, math.inf),
                 (2, math.nan), (True, 0), (2, False), (np.True_, 0)):
        with pytest.raises(ValueError):
            secular_spectrum(n, s, EL)
    with pytest.raises(ValueError):
        secular_spectrum(MAX_DEGREE + 1, 0, EL)
    with pytest.raises(ValueError):
        secular_spectrum(2, 0, CaseTag.GENERIC)
    dp_neutral = derive(ChargePair(1.0, -1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        secular_spectrum(2, 0, EL, dp_neutral)
    with pytest.raises(ValueError):
        eigenfunction(3, 0, physical(2, 0)[0])
    bogus = SpectralPoint(n=2, s=0, j=1, kappa=17.0, lam=289.0, b=1 / 289.0,
                          energy=1.5, case=EL, physical=True, nodes=0)
    with pytest.raises(ValueError):
        eigenfunction(2, 0, bogus)


def test_integral_n_and_s_of_any_type_give_python_ints(monkeypatch):
    # numpy integers and integral floats are accepted as n and s, and the
    # points carry plain ints
    for n, s in ((np.int64(3), 1), (3, np.int64(-1)), (2.0, 0), (3, 1.0)):
        pts = secular_spectrum(n, s, EL)
        assert pts == secular_spectrum(int(n), int(s), EL)
        assert repr(pts) == repr(secular_spectrum(int(n), int(s), EL))
        for p in pts:
            assert type(p.n) is int and type(p.nodes) is int
            assert type(p.s) is int and type(p.j) is int
    # ... and by eigenfunction, whose cached solve is keyed by plain ints
    keys, real = [], qes.build_T_direct
    monkeypatch.setattr(qes, "build_T_direct", lambda n, a: keys.append(
        (type(n), type(a))) or real(n, a))
    qes._sector_vectors.cache_clear()
    for n, s in ((2.0, 0), (np.int64(2), np.int64(-1)), (np.int64(3), 1.0)):
        p = physical(int(n), int(s))[0]
        pair = eigenfunction(n, s, p)
        assert pair.residual <= 1e-12
        assert pair == eigenfunction(int(n), int(s), p)
    assert keys == [(int, int)] * 3
    for n in (2.5, np.float64(1.5)):
        with pytest.raises(ValueError):
            secular_spectrum(n, 0, EL)
        with pytest.raises(ValueError):
            eigenfunction(n, 0, physical(2, 0)[0])


def _sorted_spectrum(n, s, case, dp=None):
    """Reference branch order: an explicit sort by (-lambda, kappa) and a
    keyword constructor per point."""
    energy = dimensionless_energy(n, s, case, dp)
    raw = [(k * k, k) for k in qes._sector_couplings(n, abs(s)).tolist()]
    order = sorted(range(len(raw)), key=lambda i: (-raw[i][0], raw[i][1]))
    points, j = [], 0
    for i in order:
        lam, kap = raw[i]
        phys = kap > 0.0 if case is EL else kap < 0.0
        j += phys
        points.append(SpectralPoint(
            n=n, s=s, j=j if phys else 0, kappa=kap, lam=lam,
            b=(1.0 / lam) if lam > 0.0 else None, energy=energy,
            case=case, physical=phys, nodes=n - i))
    return points


def test_branch_order_equals_the_sorted_reference():
    # the mirror-structure order of _branch_order reproduces the sort by
    # descending lambda, ties ascending kappa, over the whole n range; repr
    # (which also tells -0.0 from 0.0 and int from numpy ints) is compared
    # for s >= 0 without dp, since the sign of s and dp change only the
    # values of s and the energy
    dps = {EL: derive(ChargePair(1.0, 2.0, 1.0, 2.0, 0.7)),
           NU: derive(ChargePair(1.0, -1.0, 1.0, 3.0, 0.7))}
    mags = list(range(9)) + [16, 32, 48, 64]
    svals = sorted({sign * m for m in mags for sign in (1, -1)})
    for n in range(MAX_DEGREE + 1):
        for s in svals:
            for case, dp_case in dps.items():
                for dp in (None, dp_case):
                    got = secular_spectrum(n, s, case, dp)
                    want = _sorted_spectrum(n, s, case, dp)
                    assert got == want, (n, s, case, dp)
                    assert list(map(hash, got)) == list(map(hash, want))
                    if dp is None and s >= 0:
                        assert repr(got) == repr(want), (n, s, case)


@pytest.mark.parametrize("n", [0, 1, 8, 64])
def test_built_points_keep_the_frozen_record_protocol(n):
    # _build_points fills each point's instance dict instead of calling the
    # generated __init__; a point from either path (cached without dp,
    # built per call with dp) must behave as a constructor-built one
    assert not hasattr(SpectralPoint, "__post_init__")  # would be skipped
    assert not hasattr(SpectralPoint, "__slots__")  # no dict to fill
    dps = {EL: derive(ChargePair(1.0, 2.0, 1.0, 2.0, 0.7)),
           NU: derive(ChargePair(1.0, -1.0, 1.0, 3.0, 0.7))}
    for s in (0, 7, -7):
        for case, dp_case in dps.items():
            for dp in (None, dp_case):
                got = secular_spectrum(n, s, case, dp)
                want = _sorted_spectrum(n, s, case, dp)
                for p, q in zip(got, want, strict=True):
                    assert pickle.dumps(p) == pickle.dumps(q)
                    for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p),
                                 copy.deepcopy(p)):
                        assert type(twin) is SpectralPoint
                        assert twin == p and hash(twin) == hash(p)
                    assert (dataclasses.replace(p, j=99)
                            == dataclasses.replace(q, j=99))
                    assert dataclasses.asdict(p) == dataclasses.asdict(q)
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        p.kappa = 0.0
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        del p.nodes
                    assert p == q


# ------------------------------------------------------------ quantization

def test_field_quantization_values():
    dp = derive(ChargePair(1.0, 1.0, 1.0, 1.0, 1.0))
    b, B = field_quantization(physical(2, 0)[0], dp)
    assert b == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert B == pytest.approx(2.0 / 6.0, rel=1e-13)  # B0 = 2 for this pair


def test_field_quantization_zero_branch():
    dp = derive(ChargePair(1.0, 1.0, 1.0, 1.0, 1.0))
    zero = [p for p in secular_spectrum(2, 0, EL) if p.lam == 0.0][0]
    with pytest.raises(ZeroCouplingError):
        field_quantization(zero, dp)
    dpn = derive(ChargePair(1.0, -1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        field_quantization(physical(2, 0)[0], dpn)


# ----------------------------------------------------------------- profiles

def test_wavefunction_profile_matches_formula():
    pair = eigenfunction(2, 1, physical(2, 1)[0])
    grid = np.linspace(0.0, 6.0, 13)
    zeta = assemble_wavefunction(pair, grid)
    want = (np.exp(-grid ** 2 / 4.0) * grid
            * evaluate(pair.polynomial, grid))
    assert zeta.shape == grid.shape
    assert np.allclose(zeta, want, rtol=1e-14, atol=1e-300)


def test_wavefunction_at_origin_s0():
    pair = eigenfunction(1, 0, physical(1, 0)[0])
    zeta = assemble_wavefunction(pair, np.array([0.0, 1.0]))
    assert zeta[0] == 1.0  # p(0) = 1 and the gauge factor is 1


def test_wavefunction_grid_validation():
    pair = eigenfunction(1, 0, physical(1, 0)[0])
    with pytest.raises(ValueError):
        assemble_wavefunction(pair, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        assemble_wavefunction(pair, np.array([-1.0, 0.5]))
    with pytest.raises(ValueError):
        assemble_wavefunction(pair, np.zeros((2, 2)))


@pytest.mark.parametrize("grid", [[0.0, math.nan, 2.0], [math.nan]])
def test_wavefunction_grid_rejects_nan(grid):
    # NaN is neither nonnegative nor ascending; it used to slip through
    # both checks and come back as zeta = 0
    pair = eigenfunction(1, 0, physical(1, 0)[0])
    with pytest.raises(ValueError, match="nonnegative"):
        assemble_wavefunction(pair, np.array(grid))


def test_wavefunction_is_zero_where_the_gaussian_underflows():
    pair = eigenfunction(6, 3, physical(6, 3)[-1])
    grid = np.array([0.0, 1.0, 60.0, 1e200, 1e300])
    with np.errstate(invalid="raise"):
        zeta = assemble_wavefunction(pair, grid)
    assert zeta[1] != 0.0 and list(zeta[2:]) == [0.0, 0.0, 0.0]
    near = assemble_wavefunction(pair, grid[:2])
    assert list(near) == list(zeta[:2])


def test_residual_interface_guards():
    # the residual depends on n, |s| and kappa only, not on the sign of s
    pos = eigenfunction(2, 1, physical(2, 1)[0])
    neg = eigenfunction(2, -1, physical(2, -1)[0])
    assert pos.residual == neg.residual
    # witness from the documented bands of T, without building T:
    # T rho^k = (k - n) rho^(k+1) - k (k + 2|s|) rho^(k-1)
    n, a = 2, 1
    c = np.asarray(pos.polynomial.coeffs)
    k = np.arange(n + 1)
    tc = np.zeros(n + 1)
    tc[1:] += (k[:-1] - n) * c[:-1]
    tc[:-1] -= k[1:] * (k[1:] + 2 * a) * c[1:]
    witness = np.max(np.abs(tc + pos.point.kappa * c)) / np.max(np.abs(c))
    # the two roundings may differ in the last bits; a wrong band is O(1)
    assert pos.residual == pytest.approx(witness, rel=0.0, abs=1e-14)


@pytest.mark.parametrize("n", [16, 20])
@pytest.mark.parametrize("a", [0, 1, 5])
def test_node_laws_beyond_n12(n, a):
    # up to n = 20 the float64 coefficients are accurate enough for an
    # exact root count of the stored polynomial to witness the rank
    for p in secular_spectrum(n, a, EL):
        assert count_positive_roots(eigenfunction(n, a, p).polynomial) \
            == p.nodes, p


@pytest.mark.parametrize("a", [0, 5])
def test_rank_matches_finite_difference_nodes_at_max_degree(a):
    # the oracle's eigenvectors never touch the polynomial machinery; its
    # n + 1 branches come in ascending kappa, like the sorted spectrum
    fd = fd_kappa_spectrum(MAX_DEGREE, a)
    pts = sorted(secular_spectrum(MAX_DEGREE, a, EL), key=lambda p: p.kappa)
    assert list(fd.node_counts) == [p.nodes for p in pts]
    # the match reads couplings and ranks only, so no eigenvector of the
    # sector is built and none can be refused
    rep = oracle_match(pts, fd, tol=float("inf"))
    assert len(rep.rows) == MAX_DEGREE // 2 and rep.nodes_all_match


def test_node_ladder_and_mirror_sum_for_every_sector():
    t0 = time.perf_counter()
    for n in range(MAX_DEGREE + 1):
        for a in range(6):
            pts = secular_spectrum(n, a, NU)
            nodes = {p.kappa: p.nodes for p in pts}
            assert sorted(nodes.values()) == list(range(n + 1))
            assert all(k + nodes[-kap] == n for kap, k in nodes.items())
            assert sorted(p.nodes for p in pts if p.kappa > 0.0) \
                == list(range((n - 1) // 2 + 1))
    assert time.perf_counter() - t0 < 1.0


def test_largest_supported_degree_spectrum():
    # the spectrum stays exactly mirrored at the largest degree (the tests
    # above check its node counts); the eigenpolynomial is checked where
    # its coefficients are accurate (ROADMAP item 6)
    pts = secular_spectrum(MAX_DEGREE, 0, EL)
    assert len(pts) == MAX_DEGREE + 1
    kappas = sorted(p.kappa for p in pts)
    for lo, hi in zip(kappas, reversed(kappas)):
        assert lo == -hi
    pair = eigenfunction(16, 0, physical(16, 0)[0])
    assert pair.residual <= 1e-12 and pair.point.nodes == 0
