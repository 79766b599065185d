"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark's host is a small VM on a shared machine.  Its speed drifts
with the load of other tenants: the same magpair code ran 20 to 40 % slower
for minutes at a time, on every workload at once.  A run therefore times this
kernel between its ops and scales its times by ``REF_S`` over the mean
kernel time (see run.py), which reports them at a host speed where the
kernel takes ``REF_S``.

The kernel calls no magpair code, so a change to magpair cannot move it.
It does the two kinds of work the workloads spend their time on: small
symmetric tridiagonal eigensolves with Python-level sorting and object
building around them (like ``qes.secular_spectrum``), and a Sturm chain
over exact rationals (like ``polyops.count_positive_roots``).
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np
from scipy.linalg import eigh_tridiagonal

#: Kernel seconds at the reference host speed: about the mean pass time on
#: the 2-vCPU VM the baseline was measured on (12 to 17 ms per run).  At it
#: a `spectrum_table` stratum takes about 5.6 s, so `--seconds 22` holds 4
#: strata with room either way (see the stop rule in run.closed_loop).
REF_S = 0.0143

_rng = np.random.default_rng(0)
_MATRICES = [(np.zeros(k + 1), -np.sqrt(_rng.uniform(1.0, 50.0, k)))
             for k in range(1, 65)]
_POLY = [Fraction(float(x)) for x in _rng.standard_normal(12)]


def _spectra() -> None:
    for d, e in _MATRICES:
        w = np.sort(-eigh_tridiagonal(d, e, eigvals_only=True))
        raw = [(float(x) * float(x), float(x)) for x in w]
        order = sorted(range(len(raw)), key=lambda i: (-raw[i][0], raw[i][1]))
        [dict(kappa=raw[i][1], lam=raw[i][0], j=j) for j, i in enumerate(order)]


def _remainder(f: list, g: list) -> list:
    f = list(f)
    while len(f) >= len(g):
        q = f[-1] / g[-1]
        for i, c in enumerate(g):
            f[len(f) - len(g) + i] -= q * c
        f.pop()
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def _sturm() -> None:
    f, g = _POLY, [k * c for k, c in enumerate(_POLY)][1:]
    while len(g) > 1:
        f, g = g, [-c for c in _remainder(f, g)]


def seconds() -> float:
    """Wall time of one pass of the kernel."""
    t0 = perf_counter()
    _spectra()
    _sturm()
    return perf_counter() - t0
