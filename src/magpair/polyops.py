"""Polynomial helpers: Horner evaluation and the parity flip.

Coefficients are stored densely by ascending power, coeffs[k] multiplying
rho**k.  Node counts of eigenpolynomials are not recounted here: the
oscillation theorem fixes them from the sorted spectrum (see magpair.qes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Polynomial", "evaluate", "parity_flip"]


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial in rho, ascending powers."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        cs = tuple(float(c) for c in self.coeffs)
        if not cs:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", cs)


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
