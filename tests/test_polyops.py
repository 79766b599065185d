"""Polynomial helpers (Horner, parity) and the test-only root counter."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magpair.polyops import Polynomial, evaluate, parity_flip
from sturm import count_positive_roots

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


def test_evaluate_vectorized_and_scalar():
    p = Polynomial((1.0, -2.0, 0.5))
    xs = np.linspace(-2.0, 2.0, 7)
    vals = evaluate(p, xs)
    assert vals.shape == xs.shape
    assert vals[3] == evaluate(p, 0.0) == 1.0
    assert isinstance(evaluate(p, 1.0), float)


def test_constructor():
    with pytest.raises(ValueError):
        Polynomial(())
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


# ------------------------------------------ root counting (tests/sturm.py)

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
    with pytest.raises(ValueError):
        count_positive_roots(Polynomial((0.0, 1.0)))


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        count_positive_roots(Polynomial((0.0, 0.0)))


def test_high_degree_factored_case():
    # rho^2 (handled as degenerate: root at 0) versus shifted variant
    with pytest.raises(ValueError):
        count_positive_roots(Polynomial((0.0, 0.0, 1.0)))
    # (rho^2 - 2)(rho^2 - 3)(rho + 5): positive roots sqrt(2), sqrt(3)
    p = poly_from_roots([-5])
    q = (6.0, 0.0, -5.0, 0.0, 1.0)  # (x^2 - 2)(x^2 - 3)
    coeffs = np.convolve(q, p.coeffs)
    assert count_positive_roots(Polynomial(tuple(coeffs))) == 2
