"""One rule for the library's integer inputs.

Every public entry point that takes a quantum number or a matrix size
(n, s, s_abs, N, S, j, dim) applies magpair._rules._integer: ints, numpy
integers and integral finite floats pass and give the plain-int result; a
bool, a non-integral value, NaN, an infinity and a value below the bound
raise ValueError.  The entry points are discovered, not listed, so a new one
cannot land unchecked.
"""

import dataclasses
import inspect
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import magpair
from magpair import oracle
from magpair._rules import _integer

EL = magpair.CaseTag.EQUAL_LARMOR
GRID = magpair.default_grid(2, 1, 401)

#: Entry point -> (its plain-int keyword arguments, the lower bound of each
#: integer argument, None where any sign is valid).
TABLE = {
    "CMState": (dict(N=1, S=-2), {"N": 0, "S": None}),
    "annihilation_check": (dict(n=3), {"n": 0}),
    "build_T_algebraic": (dict(n=3, s_abs=2), {"n": 0, "s_abs": 0}),
    "build_T_direct": (dict(n=3, s_abs=2, dim=5),
                       {"n": 0, "s_abs": 0, "dim": 1}),
    "build_annihilator": (dict(n=2, dim=4), {"n": 0, "dim": 1}),
    "catalog_polynomial": (dict(n=5, s=-1, j=2), {"n": 0, "s": None, "j": 1}),
    "closed_form_lambdas": (dict(n=5, s=-1), {"n": 0, "s": None}),
    "commutator_check": (dict(n=1, N=3), {"n": 0, "N": 0}),
    "commutator_particular_check": (dict(n=2, s=-1), {"n": 0, "s": None}),
    "compare_catalog_with_solver": (dict(n=3, s=-1), {"n": 0, "s": None}),
    "convergence_order": (dict(n=2, s=-1, grid=GRID), {"n": 0, "s": None}),
    "default_grid": (dict(n=2, s=-1), {"n": 0, "s": None}),
    "dimensionless_energy": (dict(n=2, s=-1, case=EL), {"n": 0, "s": None}),
    "eigenfunction": (
        dict(n=2, s=-1, point=magpair.secular_spectrum(2, -1, EL)[0]),
        {"n": 0, "s": None}),
    "fd_kappa_spectrum": (dict(n=2, s=-1, grid=GRID), {"n": 0, "s": None}),
    "jminus": (dict(N=3), {"N": 0}),
    "jplus": (dict(n=2, N=3), {"n": 0, "N": 0}),
    "jzero": (dict(n=2, N=3), {"n": 0, "N": 0}),
    "laguerre": (dict(N=2, alpha=0.5, x=1.5), {"N": 0}),
    "secular_spectrum": (dict(n=2, s=-1, case=EL), {"n": 0, "s": None}),
}

#: Result records: the library builds them from inputs it has already
#: checked, and a check on construction would sit on the solver's hot path.
RECORDS = {"BranchComparison", "CatalogComparison", "MatchRow",
           "OracleResult", "SpectralPoint"}

PARAMETERS = {"n", "s", "s_abs", "N", "S", "j", "dim"}

CASES = [(name, p) for name, (_, bounds) in TABLE.items() for p in bounds]

#: None is missing: it is the default of jplus's N and build_T_direct's dim.
NON_INTEGERS = [True, False, np.True_, 2.5, Fraction(1, 2), math.nan,
                math.inf, -math.inf, "2"]


def _call(name, **changes):
    kwargs, _ = TABLE[name]
    return getattr(magpair, name)(**{**kwargs, **changes})


def _same(a, b):
    """a and b are equal, with equal types, down to the array bytes."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and \
            a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def test_every_entry_point_with_an_integer_input_is_in_the_table():
    found = set()
    for name in magpair.__all__:
        obj = getattr(magpair, name)
        if not callable(obj):
            continue
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if PARAMETERS & set(parameters):
            found.add(name)
    assert found == set(TABLE) | RECORDS
    for name, (kwargs, bounds) in TABLE.items():
        parameters = inspect.signature(getattr(magpair, name)).parameters
        assert set(bounds) == PARAMETERS & set(parameters), name
        assert set(kwargs) <= set(parameters), name


@pytest.mark.parametrize("name, parameter", CASES)
def test_a_non_integer_or_out_of_range_input_is_a_value_error(name, parameter):
    least = TABLE[name][1][parameter]
    bad = NON_INTEGERS + ([] if least is None else [least - 1, least - 3])
    for value in bad:
        with pytest.raises(ValueError, match=f"^{parameter} must be"):
            _call(name, **{parameter: value})


@pytest.mark.parametrize("name, parameter", CASES)
def test_integer_like_inputs_give_the_plain_int_result(name, parameter):
    plain = TABLE[name][0][parameter]
    expected = _call(name)
    for value in (np.int64(plain), np.int32(plain), float(plain),
                  np.float64(plain), Fraction(plain)):
        assert _same(_call(name, **{parameter: value}), expected), value



RULE_INPUTS = [0, 3, -2, 2 ** 70, np.int64(5), np.int32(-1), np.uint8(7),
               2.0, -3.0, np.float64(4.0), 1e300, Fraction(4), 2.5,
               Fraction(1, 2), np.float64(0.5), math.nan, math.inf, -math.inf,
               True, False, np.True_, np.False_, "2", None, complex(2, 0)]


@pytest.mark.parametrize("value", RULE_INPUTS, ids=repr)
def test_the_oracle_copy_of_the_integer_rule_agrees(value):
    """The oracle keeps no copy of the integer rule: its n and s refuse
    exactly what magpair._rules._integer refuses, with the same message,
    and an accepted value gives the grid of its plain int."""
    for name, least, call in (("n", 0, lambda v: oracle.default_grid(v, 0)),
                              ("s", None, lambda v: oracle.default_grid(0, v))):
        try:
            plain = _integer(value, name, least)
        except ValueError as refusal:
            with pytest.raises(ValueError, match=f"^{re.escape(str(refusal))}$"):
                call(value)
        else:
            assert type(plain) is int and plain == value
            assert call(value) == call(plain)
