"""Polynomial helpers: Horner evaluation, parity, exact positive-root counts.

Coefficients are stored densely by ascending power, coeffs[k] multiplying
rho**k.  Root counting runs an integer Sturm sequence (float64 coefficients
scale to integers without rounding), so node counts cannot be corrupted by
cancellation near a close pair of roots.  They are exact for the stored
float64 coefficients; how far those coefficients are from the true
eigenpolynomial is ROADMAP item 3, which is why counts above n ~ 20 are
not certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "DegenerateRootError",
    "Polynomial",
    "ZERO_GUARD",
    "count_positive_roots",
    "evaluate",
    "parity_flip",
]

#: Half-width of the guard band around rho = 0.  A root this close to the
#: origin makes the positive/negative split of the root count ill defined.
ZERO_GUARD = Fraction(1, 10**10)


class DegenerateRootError(ValueError):
    """A root lies inside the guard band around rho = 0."""


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial in rho, ascending powers."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        cs = tuple(float(c) for c in self.coeffs)
        if not cs:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        """Largest k with a nonzero coefficient (0 for the zero polynomial)."""
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k] != 0.0:
                return k
        return 0

    def __call__(self, x):
        return evaluate(self, x)


def evaluate(p: Polynomial, x):
    """Horner-scheme value of p at x (scalar or ndarray)."""
    xs = np.asarray(x, dtype=float)
    acc = np.zeros_like(xs)
    for c in reversed(p.coeffs):
        acc = acc * xs + c
    return float(acc) if acc.ndim == 0 else acc


def parity_flip(p: Polynomial) -> Polynomial:
    """Return p(-rho): odd coefficients change sign."""
    return Polynomial(tuple(-c if k & 1 else c for k, c in enumerate(p.coeffs)))


# ---------------------------------------------------------------------------
# integer Sturm machinery (dense lists of int, ascending powers, no trailing
# zeros; the zero polynomial is the empty list)

def _integer_coeffs(coeffs) -> list[int]:
    """Primitive integer polynomial, a positive multiple of the float one.

    float64 values are dyadic, so scaling by their largest denominator (a
    power of two) gives integers without rounding.
    """
    ratios = [c.as_integer_ratio() for c in coeffs]
    den = max(d for _, d in ratios)
    f = [num * (den // d) for num, d in ratios]
    while f and f[-1] == 0:
        f.pop()
    return _primitive(f)


def _primitive(f: list[int]) -> list[int]:
    g = math.gcd(*f)
    return [c // g for c in f] if g > 1 else f


def _derivative(f: list[int]) -> list[int]:
    return [k * f[k] for k in range(1, len(f))]


def _next_sturm(a: list[int], b: list[int]) -> list[int]:
    """Negated pseudo-remainder of a by b.

    Each reduction step first scales the running remainder by |lc(b)| > 0,
    so the result is a positive multiple of -(a mod b) over the rationals
    and every sign in the chain matches the rational Sturm chain.
    """
    lead, db = b[-1], len(b) - 1
    scale, sign = abs(lead), _sign(lead)
    r = list(a)
    while len(r) > db:
        c = r.pop() * sign  # the lead term cancels exactly
        shift = len(r) - db
        r = [scale * x for x in r]
        for i in range(db):
            r[shift + i] -= c * b[i]
        while r and r[-1] == 0:
            r.pop()
    return [-x for x in r]


def _sign_at(f: list[int], p: int, q: int) -> int:
    """Sign of f(p/q) for q > 0, read off the integer q**deg * f(p/q)."""
    acc, pk = 0, 1
    for c in f:
        acc = acc * q + c * pk
        pk *= p
    return _sign(acc)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _variations(signs) -> int:
    prev, count = 0, 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def count_positive_roots(p: Polynomial) -> int:
    """Number of distinct real roots of p in (0, +inf), counted exactly.

    The count is exact for the stored float64 coefficients (not for the
    polynomial they approximate; see ROADMAP item 3).  The coefficients
    are scaled to a primitive integer polynomial f, and the integer Sturm
    sequence f, f', -prem(f, f'), ... (primitive pseudo-remainders) gives
    the count as V(0) - V(+inf).  The sequence ends at gcd(f, f') rather
    than at a constant, which still counts distinct roots between points
    where f does not vanish.  Raises DegenerateRootError when f has a root
    within ZERO_GUARD of the origin (including a root exactly at 0), where
    "positive root" stops being meaningful.
    """
    f = _integer_coeffs(p.coeffs)
    if not f:
        raise ValueError("the zero polynomial has no root count")
    if f[0] == 0:
        raise DegenerateRootError("root exactly at rho = 0")
    chain, nxt = [f], _derivative(f)
    while nxt:
        chain.append(_primitive(nxt))
        nxt = _next_sturm(chain[-2], chain[-1])

    num, den = ZERO_GUARD.numerator, ZERO_GUARD.denominator
    lo = [_sign_at(q, -num, den) for q in chain]
    hi = [_sign_at(q, num, den) for q in chain]
    if lo[0] == 0 or hi[0] == 0:
        raise DegenerateRootError("root on the guard-band edge near rho = 0")
    if _variations(lo) != _variations(hi):
        raise DegenerateRootError("root within 1e-10 of rho = 0")
    return (_variations([_sign(q[0]) for q in chain])
            - _variations([_sign(q[-1]) for q in chain]))
