#!/usr/bin/env python3
"""Center-of-mass Landau levels of a charged pair.

The CM coordinate of a pair with total charge q moves like one charged
particle: Landau levels E_R = (omega_c/2)(2N + 1 + |S| - S) and squared
pseudomomentum K^2 = q B (2N + 1 + |S| + S).  The operator identity
K^2 = 2 q B S + 2 M E_R closes without any rounding when the parameters
are dyadic, which the residual column makes visible.
"""

import numpy as np

from magpair import (
    LAGUERRE_ARGUMENT_NOTE,
    ChargePair,
    CMState,
    casimir_identity_check,
    cm_energy,
    cm_wavefunction,
    derive,
    pseudomomentum_sq,
)


def main():
    dp = derive(ChargePair(1.0, 1.0, 1.0, 1.0, 1.0))
    print(f"pair: q = {dp.q:g}, M = {dp.M:g}, omega_c = {dp.omega_c:g}\n")

    print(" N   S    E_R      K^2   identity residual")
    for N in range(3):
        for S in range(-2, 3):
            st = CMState(N, S)
            print(f"{N:2d} {S:3d} {cm_energy(st, dp):7.3f} "
                  f"{pseudomomentum_sq(st, dp.q, dp.B):7.3f}   "
                  f"{casimir_identity_check(st, dp):.1f}")
    print()
    print("E_R ignores S on the S >= 0 side; K^2 ignores it on S <= 0.")

    # radial orbital of the N = 2, S = 1 level; N sign changes
    grid = np.linspace(0.0, 5.0, 11)
    chi = cm_wavefunction(CMState(2, 1), dp, grid)
    print("\nchi(R), N = 2, S = 1:", " ".join(f"{v:8.1e}" for v in chi))
    print("convention:", LAGUERRE_ARGUMENT_NOTE)


if __name__ == "__main__":
    main()
