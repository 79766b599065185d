#!/usr/bin/env python3
"""Polynomial eigenfunctions and their node ladders.

Every physical branch at degree n comes with an explicit polynomial
factor p(rho), normalized to p(0) = 1.  By the oscillation theorem the
number of positive roots of p is the number of couplings of the sector
above kappa, so across the physical branches of one n the node counts
fill 0, 1, ..., floor((n-1)/2).
"""

import numpy as np

from magpair import (
    CaseTag,
    assemble_wavefunction,
    eigenfunction,
    secular_spectrum,
)

CASE = CaseTag.EQUAL_LARMOR


def poly_text(coeffs):
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0.0:
            continue
        term = "1" if k == 0 else ("rho" if k == 1 else f"rho^{k}")
        parts.append(f"{c:+.6g} {term}" if k else f"{c:.6g}")
    return " ".join(parts)


def main():
    for n in range(1, 7):
        print(f"n = {n}, s = 0")
        for p in secular_spectrum(n, 0, CASE):
            if not p.physical:
                continue
            pair = eigenfunction(n, 0, p)
            print(f"  j = {p.j}  lambda = {p.lam:12.8f}  nodes = {p.nodes}"
                  f"  residual = {pair.residual:.1e}")
            print(f"      p(rho) = {poly_text(pair.polynomial.coeffs)}")
        print()

    # sample the nodeless and the one-node branch of n = 5 on a short grid
    grid = np.linspace(0.0, 8.0, 9)
    pts = [p for p in secular_spectrum(5, 0, CASE) if p.physical]
    print("zeta(rho) on", grid.tolist())
    for p in pts[:2]:
        z = assemble_wavefunction(eigenfunction(5, 0, p), grid).zeta
        print(f"  j = {p.j}:", " ".join(f"{v:9.2e}" for v in z))


if __name__ == "__main__":
    main()
