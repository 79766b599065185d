"""Polynomial helpers: Horner evaluation, parity, exact root counting."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magpair.polyops import (
    DegenerateRootError,
    Polynomial,
    ZERO_GUARD,
    count_positive_roots,
    evaluate,
    parity_flip,
)

coeff_lists = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=1, max_size=9)


def naive_value(coeffs, x):
    return sum(c * x ** k for k, c in enumerate(coeffs))


@given(coeff_lists, st.floats(min_value=-4.0, max_value=4.0))
def test_horner_matches_naive_sum(coeffs, x):
    p = Polynomial(tuple(coeffs))
    assert evaluate(p, x) == pytest.approx(naive_value(coeffs, x),
                                           rel=1e-9, abs=1e-6)


def test_evaluate_vectorized_and_callable():
    p = Polynomial((1.0, -2.0, 0.5))
    xs = np.linspace(-2.0, 2.0, 7)
    vals = evaluate(p, xs)
    assert vals.shape == xs.shape
    assert vals[3] == p(0.0) == 1.0
    assert isinstance(p(1.0), float)


def test_constructor_and_degree():
    with pytest.raises(ValueError):
        Polynomial(())
    assert Polynomial((0.0,)).degree == 0
    assert Polynomial((1.0, 0.0)).degree == 0  # trailing zero does not count
    assert Polynomial((1.0, 0.0, 3.0)).degree == 2
    assert Polynomial((1, 2)).coeffs == (1.0, 2.0)  # coerced to float


@given(coeff_lists)
def test_parity_flip_is_an_involution(coeffs):
    p = Polynomial(tuple(coeffs))
    assert parity_flip(parity_flip(p)) == p


@given(coeff_lists, st.floats(min_value=-3.0, max_value=3.0))
def test_parity_flip_evaluates_at_minus_x(coeffs, x):
    p = Polynomial(tuple(coeffs))
    assert evaluate(parity_flip(p), x) == pytest.approx(
        evaluate(p, -x), rel=1e-9, abs=1e-6)


# ----------------------------------------------------------- root counting

def poly_from_roots(roots):
    """Exact expansion of prod (rho - r) over the rationals."""
    coeffs = [Fraction(1)]
    for r in roots:
        shifted = [Fraction(0)] + coeffs           # rho * p
        scaled = [-Fraction(r) * c for c in coeffs] + [Fraction(0)]
        coeffs = [a + b for a, b in zip(shifted, scaled)]
    return Polynomial(tuple(float(c) for c in coeffs))


def test_known_cubic():
    # (rho - 1)(rho - 2)(rho + 3) = rho^3 - 7 rho + 6
    assert count_positive_roots(Polynomial((6.0, -7.0, 0.0, 1.0))) == 2


def test_repeated_roots_count_once():
    # (rho - 1)^2 (rho + 2)
    p = poly_from_roots([1, 1, -2])
    assert count_positive_roots(p) == 1


def test_no_positive_roots():
    assert count_positive_roots(Polynomial((1.0, 0.0, 1.0))) == 0


def test_close_pair_resolved_exactly():
    # roots 1 and 1 + 1e-6 stay two distinct counts in exact arithmetic
    # (the separation survives the one float64 rounding of the coefficients)
    p = poly_from_roots([Fraction(1), Fraction(1) + Fraction(1, 10 ** 6)])
    assert count_positive_roots(p) == 2


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=-6, max_value=6).filter(lambda r: r != 0),
                min_size=1, max_size=6))
def test_count_matches_constructed_roots(roots):
    assert count_positive_roots(poly_from_roots(roots)) \
        == len({r for r in roots if r > 0})


def test_root_exactly_at_zero_is_degenerate():
    with pytest.raises(DegenerateRootError):
        count_positive_roots(Polynomial((0.0, 1.0)))


def test_root_inside_guard_band_is_degenerate():
    # (rho - 1e-12)(rho - 1): root well inside the 1e-10 guard
    p = poly_from_roots([Fraction(1, 10 ** 12), 1])
    with pytest.raises(DegenerateRootError):
        count_positive_roots(p)


def test_root_just_outside_guard_band_counts():
    # float64 1e-10 is slightly above the exact rational guard 1/10^10,
    # so the root of rho - 1e-10 lands outside the band and must count
    assert float(ZERO_GUARD) == pytest.approx(1e-10)
    assert count_positive_roots(Polynomial((-1e-10, 1.0))) == 1


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        count_positive_roots(Polynomial((0.0, 0.0)))


def test_high_degree_factored_case():
    # rho^2 (handled as degenerate: root at 0) versus shifted variant
    with pytest.raises(DegenerateRootError):
        count_positive_roots(Polynomial((0.0, 0.0, 1.0)))
    # (rho^2 - 2)(rho^2 - 3)(rho + 5): positive roots sqrt(2), sqrt(3)
    p = poly_from_roots([-5])
    q = (6.0, 0.0, -5.0, 0.0, 1.0)  # (x^2 - 2)(x^2 - 3)
    coeffs = np.convolve(q, p.coeffs)
    assert count_positive_roots(Polynomial(tuple(coeffs))) == 2


# ------------------------------------------- differential test vs rationals

def _ref_trim(f: list[Fraction]) -> list[Fraction]:
    out = list(f)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _ref_derivative(f: list[Fraction]) -> list[Fraction]:
    if len(f) == 1:
        return [Fraction(0)]
    return [k * f[k] for k in range(1, len(f))]


def _ref_divmod_exact(a: list[Fraction], b: list[Fraction]):
    """Exact quotient and remainder of dense rational polynomials."""
    b = _ref_trim(b)
    if b == [Fraction(0)]:
        raise ZeroDivisionError("division by the zero polynomial")
    r = _ref_trim(a)
    db = len(b) - 1
    if r == [Fraction(0)] or len(r) - 1 < db:
        return [Fraction(0)], r
    q = [Fraction(0)] * (len(r) - db)
    while r != [Fraction(0)] and len(r) - 1 >= db:
        dr = len(r) - 1
        c = r[dr] / b[db]
        q[dr - db] = c
        for i in range(db + 1):
            r[dr - db + i] -= c * b[i]
        r = _ref_trim(r)  # the lead term cancels exactly over Q
    return q, r


def _ref_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _ref_trim(a), _ref_trim(b)
    while b != [Fraction(0)]:
        _, r = _ref_divmod_exact(a, b)
        a, b = b, _ref_trim(r)
    return a


def _ref_eval_exact(f: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _ref_sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _ref_sign_at_plus_inf(f: list[Fraction]) -> int:
    return _ref_sign(f[-1])


def _ref_variations(signs) -> int:
    prev, count = 0, 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def _ref_sturm_chain(f: list[Fraction]) -> list[list[Fraction]]:
    """Sturm chain of a square-free polynomial."""
    chain = [f, _ref_trim(_ref_derivative(f))]
    while len(chain[-1]) > 1:
        _, r = _ref_divmod_exact(chain[-2], chain[-1])
        r = _ref_trim(r)
        if r == [Fraction(0)]:
            break
        chain.append([-c for c in r])
    return chain


def reference_count(p: Polynomial) -> int:
    """The rational Sturm count on the square-free part: the slow reference.

    This is the counter magpair used before it moved to integer Sturm
    sequences, kept as it was apart from the names.
    """
    f = _ref_trim([Fraction(c) for c in p.coeffs])
    if f == [Fraction(0)]:
        raise ValueError("the zero polynomial has no root count")
    if f[0] == 0:
        raise DegenerateRootError("root exactly at rho = 0")
    g = _ref_gcd(f, _ref_trim(_ref_derivative(f)))
    sqfree, rem = _ref_divmod_exact(f, g)
    if _ref_trim(rem) != [Fraction(0)]:
        raise AssertionError("square-free reduction left a remainder")
    sqfree = _ref_trim(sqfree)
    chain = _ref_sturm_chain(sqfree)

    lo, hi = -ZERO_GUARD, ZERO_GUARD
    if _ref_eval_exact(sqfree, lo) == 0 or _ref_eval_exact(sqfree, hi) == 0:
        raise DegenerateRootError("root on the guard-band edge near rho = 0")
    v_lo = _ref_variations([_ref_sign(_ref_eval_exact(q, lo)) for q in chain])
    v_hi = _ref_variations([_ref_sign(_ref_eval_exact(q, hi)) for q in chain])
    if v_lo - v_hi:
        raise DegenerateRootError("root within 1e-10 of rho = 0")

    v0 = _ref_variations([_ref_sign(_ref_eval_exact(q, Fraction(0)))
                          for q in chain])
    v_inf = _ref_variations([_ref_sign_at_plus_inf(q) for q in chain])
    return v0 - v_inf


mixed_coeffs = st.one_of(
    st.just(0.0),
    st.integers(min_value=-4, max_value=4).map(float),
    st.floats(min_value=5e2, max_value=2e3),
    st.floats(min_value=-2e3, max_value=-5e2),
    st.floats(min_value=5e-12, max_value=2e-11),    # roots near the guard
    st.floats(min_value=-2e-11, max_value=-5e-12),
)


@st.composite
def mixed_polynomials(draw):
    coeffs = draw(st.lists(mixed_coeffs, min_size=1, max_size=7))
    if draw(st.booleans()):
        # times the square of a small integer factor: repeated roots
        factor = draw(st.lists(st.integers(min_value=-3, max_value=3),
                               min_size=2, max_size=3))
        coeffs = np.convolve(np.convolve(coeffs, factor), factor)
    return Polynomial(tuple(coeffs))


def _outcome(count, p):
    try:
        return count(p)
    except ValueError as exc:  # DegenerateRootError is a ValueError
        return type(exc)


def test_reference_agrees_on_known_cases():
    assert reference_count(Polynomial((6.0, -7.0, 0.0, 1.0))) == 2
    assert reference_count(poly_from_roots([1, 1, -2])) == 1
    with pytest.raises(DegenerateRootError):
        reference_count(poly_from_roots([Fraction(1, 10 ** 12), 1]))


@settings(max_examples=300, deadline=None)
@given(mixed_polynomials())
def test_integer_count_matches_rational_reference(p):
    assert _outcome(count_positive_roots, p) == _outcome(reference_count, p)
