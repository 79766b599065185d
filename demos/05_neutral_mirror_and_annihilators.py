#!/usr/bin/env python3
"""Two exact structures behind the solver output.

First the parity mirror: the neutral case selects kappa < 0 where the
equal-Larmor case selects kappa > 0, and the eigenpolynomials map into
each other under rho -> -rho.  Both cases therefore quantize to exactly
the same fields b.

Second the annihilators: the Euler-operator product
i_n = prod_j (rho d/drho - j), j = 0..n, kills every polynomial of degree
<= n and commutes with the coupling operator T on that space, in exact
integer arithmetic.  Dressing i_n with the gauge factor turns that into
an identity for the sampled wavefunctions themselves.
"""

import numpy as np

from magpair import (
    CaseTag,
    annihilation_check,
    commutator_particular_check,
    eigenfunction,
    gauge_rotated_action,
    parity_flip,
    secular_spectrum,
)


def mirror(n, s):
    el = {p.j: p for p in secular_spectrum(n, s, CaseTag.EQUAL_LARMOR)
          if p.physical}
    nu = {p.j: p for p in secular_spectrum(n, s, CaseTag.NEUTRAL)
          if p.physical}
    for j in sorted(el):
        pe, pn = el[j], nu[j]
        ce = eigenfunction(n, s, pe).polynomial
        cn = eigenfunction(n, s, pn).polynomial
        dev = max(abs(x - y) for x, y in zip(parity_flip(ce).coeffs, cn.coeffs))
        print(f"  n={n} j={j}: kappa {pe.kappa:+.6f} / {pn.kappa:+.6f}  "
              f"b equal: {pe.b == pn.b}  flip dev {dev:.1e}")


def main():
    print("neutral branch as the parity mirror of the equal-Larmor branch")
    for n in (1, 3, 6):
        mirror(n, 0)
    print()

    print("annihilation of P_n (exact integers, 0 means identically zero)")
    for n in (0, 1, 4, 8):
        rep = annihilation_check(n)
        com = commutator_particular_check(n, 1)
        print(f"  n={n}: |i_n^- P_n| = {rep.max_abs_minus}, "
              f"|i_n^+ P_n| = {rep.max_abs_plus}, "
              f"|[T, i_n]| on P_n = {com.max_abs_on_pn}, "
              f"beyond P_n = {com.max_abs_beyond}")
    print()

    grid = np.linspace(0.5, 10.0, 5)
    pair = eigenfunction(3, 1, [p for p in
                                secular_spectrum(3, 1, CaseTag.EQUAL_LARMOR)
                                if p.j == 1][0])
    dressed = gauge_rotated_action(pair, grid)
    print("gauge-dressed annihilator on an eigenstate:", dressed.tolist())


if __name__ == "__main__":
    main()
