"""The input rules every module shares, the witnesses included.

No physics and only the standard library, so a witness such as
magpair.oracle applies the rules of the machinery it checks without
importing any of that machinery.
"""

from __future__ import annotations

import math
import numbers
import sys


def _integer(x, name: str, least: int | None = None,
             most: int | None = None) -> int:
    """x as a Python int, the one rule for integer inputs: ints, numpy
    integers and integral finite floats pass; a bool, anything else, and
    a value outside least..most raise ValueError."""
    if type(x) is int:
        ok = True
    elif isinstance(x, numbers.Integral):
        ok = not isinstance(x, bool)
    else:
        ok = isinstance(x, numbers.Real) and math.isfinite(x) and int(x) == x
    if not ok or (least is not None and x < least):
        kind = {None: "an integer", 0: "a nonnegative integer",
                1: "a positive integer"}[least]
        raise ValueError(f"{name} must be {kind}")
    if most is not None and x > most:
        raise ValueError(f"{name} must be at most {most}")
    return int(x)


def _in_range(x: float, what: str, nonzero: bool = False) -> float:
    """x, computed from finite inputs, when it is finite and, with nonzero,
    a normal double; else ValueError.  The one range rule for derive's
    scales and the energy formulas: inf or NaN is an overflow, and 0 or a
    subnormal where no valid input gives 0 is an underflow."""
    if not math.isfinite(x):
        fault = "overflows"
    elif not nonzero or abs(x) >= sys.float_info.min:
        return x
    else:
        fault = "underflows to 0" if x == 0.0 else "underflows to a subnormal"
    raise ValueError(f"{what} {fault} in double precision")
