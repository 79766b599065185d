"""Derived parameters and solvable-case classification."""

import dataclasses
import math

import pytest

from magpair.system import (
    CaseTag,
    ChargePair,
    DerivedParams,
    TOL_REL,
    classify,
    derive,
)


def test_unit_pair_frozen_values():
    dp = derive(ChargePair(1.0, 1.0, 1.0, 1.0, 1.0))
    assert dp.q == 2.0
    assert dp.M == 2.0
    assert dp.mr == 0.5
    assert dp.mu1 == dp.mu2 == 0.5
    assert dp.ec == 0.0
    assert dp.qw == 0.5
    assert dp.omega_c == 1.0
    assert dp.B0 == 2.0
    assert dp.b == 0.5
    assert dp.Omega_q is None and dp.omega_q is None
    assert classify(dp) is CaseTag.EQUAL_LARMOR


def test_equal_larmor_with_unequal_masses():
    # e1/m1 = e2/m2 = 1 though the charges differ
    dp = derive(ChargePair(2.0, 1.0, 2.0, 1.0, 1.0))
    assert classify(dp) is CaseTag.EQUAL_LARMOR
    assert dp.ec == pytest.approx(0.0, abs=1e-16)
    assert dp.M == 3.0 and dp.mr == pytest.approx(2.0 / 3.0)
    assert dp.B0 == pytest.approx(32.0 / 3.0)
    assert dp.omega_c == 1.0


def test_negative_pair_has_its_conjugates_field():
    pos = derive(ChargePair(2.0, 1.0, 2.0, 1.0, 1.0))
    neg = derive(ChargePair(-2.0, -1.0, 2.0, 1.0, 1.0))
    assert classify(neg) is CaseTag.EQUAL_LARMOR
    assert neg.omega_c == -pos.omega_c < 0.0
    assert (neg.B0, neg.b) == (pos.B0, pos.b) and neg.B0 > 0.0


def test_electron_positron_is_neutral():
    dp = derive(ChargePair(1.0, -1.0, 1.0, 1.0, 1.0))
    assert classify(dp) is CaseTag.NEUTRAL
    assert dp.q == 0.0
    assert dp.Omega_q == 1.0
    assert dp.omega_q == 0.0
    assert dp.B0 == 1.0
    assert dp.b == 1.0
    assert dp.omega_c == 0.0


def test_neutral_label_swap_makes_e1_positive():
    dp = derive(ChargePair(-1.0, 1.0, 1.0, 3.0, 2.0))
    assert dp.e1 == 1.0 and dp.e2 == -1.0
    # masses followed the swap: the positive charge now carries m = 3
    assert dp.mu1 == pytest.approx(0.75)
    assert dp.Omega_q == pytest.approx(4.0 / 3.0)
    # the positive charge is the heavier one: mu2 - mu1 < 0
    assert dp.omega_q == pytest.approx(-4.0 / 3.0)
    assert dp.B0 == pytest.approx(2.25)
    assert dp.b == pytest.approx(8.0 / 9.0)
    assert classify(dp) is CaseTag.NEUTRAL


def test_generic_pair():
    dp = derive(ChargePair(2.0, 2.0, 1.0, 3.0, 1.0))
    assert classify(dp) is CaseTag.GENERIC
    assert dp.ec == pytest.approx(1.0)
    assert dp.B0 is None and dp.b is None
    assert dp.Omega_q is None and dp.omega_q is None


def test_classification_tolerance_boundaries():
    almost = derive(ChargePair(1.0, -(1.0 + 5e-13), 1.0, 1.0, 1.0))
    assert classify(almost) is CaseTag.NEUTRAL
    off = derive(ChargePair(1.0, -(1.0 + 1e-11), 1.0, 1.0, 1.0))
    assert classify(off) is CaseTag.GENERIC


def test_replaced_parameters_classify_afresh():
    dp = derive(ChargePair(1.0, 1.0, 1.0, 1.0, 1.0))
    assert classify(dp) is CaseTag.EQUAL_LARMOR
    generic = dataclasses.replace(dp, ec=0.25)
    assert classify(generic) is CaseTag.GENERIC
    neutral = dataclasses.replace(generic, e2=-1.0, q=0.0)
    assert classify(neutral) is CaseTag.NEUTRAL
    assert classify(dp) is CaseTag.EQUAL_LARMOR
    # the cached tag takes no part in equality
    assert dataclasses.replace(generic, ec=0.0) == dp


def test_hand_built_parameters_classify_as_derived():
    for pair in (ChargePair(2.0, 1.0, 2.0, 1.0, 1.0),
                 ChargePair(-1.0, 1.0, 1.0, 3.0, 2.0),
                 ChargePair(2.0, 2.0, 1.0, 3.0, 1.0)):
        dp = derive(pair)
        built = DerivedParams(**dataclasses.asdict(dp))
        assert classify(built) is classify(dp)
        assert classify(built) is classify(built)


def test_coupling_charge_identity():
    # ec = e1 mu2 - e2 mu1 equals mr (e1/m1 - e2/m2); no label swap here
    # because neither pair is neutral
    for e1, e2, m1, m2 in [(2.0, 3.0, 1.5, 0.5), (1.0, -2.0, 2.0, 3.0)]:
        dp = derive(ChargePair(e1, e2, m1, m2, 1.0))
        assert dp.ec == pytest.approx(dp.mr * (e1 / m1 - e2 / m2))


def test_rejections():
    with pytest.raises(ValueError):
        ChargePair(1.0, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ChargePair(1.0, 1.0, 1.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        ChargePair(1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ChargePair(0.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ChargePair(math.nan, 1.0, 1.0, 1.0, 1.0)


def test_derived_fields_roundtrip():
    dp = derive(ChargePair(1.0, 1.0, 1.0, 1.0, 1.0))
    d = dataclasses.asdict(dp)
    assert DerivedParams(**d) == dp
    assert d["B0"] == 2.0 and d["b"] == 0.5 and d["Omega_q"] is None
    assert list(d) == ["e1", "e2", "B", "M", "mr", "mu1", "mu2", "q", "ec",
                      "qw", "omega_c", "Omega_q", "omega_q", "B0", "b"]


def test_tol_rel_default_exposed():
    assert TOL_REL == 1e-12
    assert isinstance(derive(ChargePair(1, 1, 1, 1, 1)), DerivedParams)
