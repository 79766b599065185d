"""Positive-root counting by an integer Sturm sequence, for tests only.

magpair reads node counts off the sorted spectrum (oscillation theorem,
see magpair.qes).  This counter recounts them from the float64
coefficients, so tests can witness that rank where the coefficients are
accurate (n <= 20) and count roots of other explicit polynomials.
Polynomials here are dense lists of int, ascending powers, no trailing
zeros; the zero polynomial is the empty list.
"""

import math

from magpair.polyops import Polynomial


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

    Exact for the stored float64 coefficients.  The coefficients are
    scaled to a primitive integer polynomial f, and the integer Sturm
    sequence f, f', -prem(f, f'), ... (primitive pseudo-remainders) gives
    the count as V(0) - V(+inf).  The sequence ends at gcd(f, f') rather
    than at a constant, which still counts distinct roots between points
    where f does not vanish; so a root at rho = 0 raises ValueError.
    """
    f = _integer_coeffs(p.coeffs)
    if not f:
        raise ValueError("the zero polynomial has no root count")
    if f[0] == 0:
        raise ValueError("root exactly at rho = 0")
    chain, nxt = [f], _derivative(f)
    while nxt:
        chain.append(_primitive(nxt))
        nxt = _next_sturm(chain[-2], chain[-1])
    return (_variations([_sign(q[0]) for q in chain])
            - _variations([_sign(q[-1]) for q in chain]))
