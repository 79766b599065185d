"""One case rule for derived parameters, one charged-pair rule for Landau.

Every public callable that takes derived parameters (dp), a case, or a pair
charge (q) is in one table here.  Those that pair a case with dp refuse a
mismatch through magpair.system._require_case, with the one message
"parameters classify as X, not Y"; the Landau functions refuse a neutral
pair through magpair.landau._charged.  Matching inputs return the pinned
outputs, bit for bit.  The callables are discovered from magpair.__all__,
so a new one cannot land unchecked.
"""

import dataclasses
import hashlib
import inspect
import re

import numpy as np
import pytest

import magpair
from magpair import CaseTag, ChargePair, CMState, derive

EL, NU, GE = CaseTag.EQUAL_LARMOR, CaseTag.NEUTRAL, CaseTag.GENERIC

#: One pair per case; the neutral one has unequal masses, so omega_q != 0.
PAIRS = {EL: derive(ChargePair(1.0, 2.0, 1.0, 2.0, 0.7)),
         NU: derive(ChargePair(1.0, -1.0, 1.0, 2.0, 0.7)),
         GE: derive(ChargePair(1.0, 2.0, 1.0, 1.0, 0.7))}
STATE = CMState(3, -2)
GRID = np.linspace(0.0, 3.0, 7)


def _physical(case):
    return next(p for p in magpair.secular_spectrum(3, -1, case) if p.physical)


#: Callables that pair a case (a point's case for field_quantization) with
#: dp: name -> call(case, dp).
CASE_FIT = {
    "dimensionless_energy": lambda case, dp: magpair.dimensionless_energy(
        3, -1, case, dp),
    "secular_spectrum": lambda case, dp: magpair.secular_spectrum(
        3, -1, case, dp),
    "field_quantization": lambda case, dp: magpair.field_quantization(
        _physical(case), dp),
}

#: The Landau sector: name -> call(dp).
LANDAU = {
    "cm_energy": lambda dp: magpair.cm_energy(STATE, dp),
    "pseudomomentum_sq": lambda dp: magpair.pseudomomentum_sq(
        STATE, dp.q, dp.B),
    "casimir_identity_check": lambda dp: magpair.casimir_identity_check(
        STATE, dp),
    "cm_wavefunction": lambda dp: magpair.cm_wavefunction(STATE, dp, GRID),
}

#: classify is the case rule itself; the records hold a case or a q that
#: the library set, and check nothing.
EXEMPT = {"classify", "DerivedParams", "SpectralPoint"}

#: Outputs of the matching calls: repr for a float or a tuple of floats
#: (exact, since repr round-trips), else a digest of repr or of the bytes.
PINS = {
    ("dimensionless_energy", EL): "2.0999999999999996",
    ("dimensionless_energy", NU): "2.8",
    ("secular_spectrum", EL): "eb9216fc690d58b8",
    ("secular_spectrum", NU): "bd2d65ab1351422a",
    ("field_quantization", EL): "(0.027564291880742903, 0.29401911339459097)",
    ("field_quantization", NU): "(0.027564291880742903, 0.04900318556576516)",
    ("cm_energy", EL): "3.849999999999999",
    ("cm_energy", GE): "5.774999999999999",
    ("pseudomomentum_sq", EL): "14.699999999999998",
    ("pseudomomentum_sq", GE): "14.699999999999998",
    ("casimir_identity_check", EL): "0.0",
    ("casimir_identity_check", GE): "0.0",
    ("cm_wavefunction", EL): "a88f16b3732bed74",
    ("cm_wavefunction", GE): "a88f16b3732bed74",
}

MISMATCHES = [(name, asked, given) for name in CASE_FIT
              for asked in (EL, NU) for given in (EL, NU, GE)
              if given is not asked]


def _pin(x) -> str:
    if isinstance(x, np.ndarray):
        return hashlib.sha256(x.tobytes()).hexdigest()[:16]
    if isinstance(x, (float, tuple)):
        return repr(x)
    return hashlib.sha256(repr(x).encode()).hexdigest()[:16]


def test_every_callable_with_a_case_or_pair_input_is_in_the_table():
    found = set()
    for name in magpair.__all__:
        obj = getattr(magpair, name)
        if not callable(obj):
            continue
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if {"dp", "case", "q"} & set(parameters):
            found.add(name)
    assert found == set(CASE_FIT) | set(LANDAU) | EXEMPT
    assert {name for name, _ in PINS} == set(CASE_FIT) | set(LANDAU)


@pytest.mark.parametrize("name, asked, given", MISMATCHES)
def test_a_mismatched_case_is_refused_with_the_one_message(name, asked, given):
    want = f"^parameters classify as {given.value}, not {asked.value}$"
    with pytest.raises(ValueError, match=want):
        CASE_FIT[name](asked, PAIRS[given])


@pytest.mark.parametrize("name", LANDAU)
def test_the_landau_sector_refuses_a_neutral_pair(name):
    want = "^" + re.escape("the Landau sector needs a charged pair (q != 0)")
    assert PAIRS[NU].q == 0.0 and PAIRS[NU].omega_c == 0.0
    with pytest.raises(ValueError, match=want):
        LANDAU[name](PAIRS[NU])


@pytest.mark.parametrize("name, case", sorted(PINS, key=str))
def test_matching_inputs_return_the_pinned_outputs(name, case):
    dp = PAIRS[case]
    got = CASE_FIT[name](case, dp) if name in CASE_FIT else LANDAU[name](dp)
    assert _pin(got) == PINS[name, case]


@pytest.mark.parametrize("case, field", [
    (EL, "B0"), (NU, "B0"), (NU, "Omega_q"), (NU, "omega_q")])
def test_hand_built_parameters_without_their_case_fields_are_refused(
        case, field):
    dp = dataclasses.replace(PAIRS[case], **{field: None})
    assert magpair.classify(dp) is case
    for name in CASE_FIT:
        with pytest.raises(ValueError, match=f"^{case.value} parameters lack"):
            CASE_FIT[name](case, dp)


def test_a_generic_case_has_no_branches():
    for dp in (None, PAIRS[GE], PAIRS[EL]):
        with pytest.raises(ValueError, match="only for EqualLarmor and Neutral"):
            magpair.secular_spectrum(3, -1, GE, dp)
        with pytest.raises(ValueError, match="only for EqualLarmor and Neutral"):
            magpair.dimensionless_energy(3, -1, GE, dp)
