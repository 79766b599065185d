"""The double range: a pair or level whose numbers leave it is refused.

magpair.system._in_range is the one rule.  derive refuses a derived field
that is not finite, or a scale that no valid pair makes 0 rounded to 0;
the energy formulas refuse a result that is not finite.  Each refusal is
a ValueError, which the CLI reports as one error line with exit code 2,
so no spectrum or landau cell prints inf or nan.
"""

import csv
import dataclasses
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magpair import cli
from magpair.landau import (
    CMState,
    casimir_identity_check,
    cm_energy,
    pseudomomentum_sq,
)
from magpair.qes import dimensionless_energy, secular_spectrum
from magpair.system import CaseTag, ChargePair, derive

EL, NU = CaseTag.EQUAL_LARMOR, CaseTag.NEUTRAL

#: (e1, e2, m1, m2, B) and the refusal derive gives.
OUT_OF_RANGE = [
    ((1e-120, -1e-120, 1.0, 1.0, 1.0), "B0 underflows to 0"),
    ((1e200, -1e200, 1e100, 1e100, 1.0), "B0 overflows"),
    ((1e-160, 1e-160, 1.0, 1.0, 1.0), "B0 underflows to 0"),
    ((1.0, 1.0, 1.0, 1.0, 1e308), "omega_c overflows"),
    ((1e308, 1e308, 1.0, 1.0, 1.0), "q overflows"),
    ((1.0, 1.0, 1e308, 1e308, 1.0), "M overflows"),
    ((1.0, 1.0, 1e-200, 1e-200, 1.0), "mr underflows to 0"),
    ((1.0, -1.0, 5e-324, 1e10, 1.0), "mu1 underflows to 0"),
    ((1.0, -1.0, 0.5, 0.5, 1e308), "Omega_q overflows"),
    ((1e20, 1e20, 1.0, 1.0, 1e-300), "b underflows to 0"),
]

#: CLI invocations that left the double range before the rule existed:
#: tracebacks (exit 1) or inf/nan cells (exit 0).
COMMANDS = [
    ("spectrum", "--case", "q0", "--n", "1", "--e1", "1e-120",
     "--e2", "-1e-120", "--m1", "1", "--m2", "1", "--B", "1"),
    ("spectrum", "--case", "q0", "--n", "1", "--e1", "1e200",
     "--e2", "-1e200", "--m1", "1e100", "--m2", "1e100", "--B", "1"),
    ("landau", "--e1", "1e-160", "--e2", "1e-160", "--m1", "1",
     "--m2", "1", "--B", "1"),
    ("landau", "--n", "0", "--s", "0", "--e1", "1", "--e2", "1",
     "--m1", "1", "--m2", "1", "--B", "1e308"),
    ("spectrum", "--n", "1", "--e1", "1", "--e2", "1", "--m1", "1",
     "--m2", "1", "--B", "1e308"),
    # derive passes, and an energy at the top of the sweep overflows
    ("spectrum", "--n", "64", "--s", "-64", "--e1", "1", "--e2", "1",
     "--m1", "1", "--m2", "1", "--B", "1e307"),
    ("landau", "--n", "64", "--s", "64", "--e1", "1", "--e2", "1",
     "--m1", "1", "--m2", "1", "--B", "1e307"),
]


@pytest.mark.parametrize("params, message", OUT_OF_RANGE)
def test_derive_refuses_a_scale_beyond_the_double_range(params, message):
    pair = ChargePair(*params)
    with pytest.raises(ValueError, match=f"^{message} in double precision$"):
        derive(pair)


def test_derive_keeps_a_pair_near_the_edge():
    dp = derive(ChargePair(1.0, 1.0, 1.0, 1.0, 1e307))
    assert dp.omega_c == 1e307 and dp.B0 == 2.0 and dp.b == 5e306
    # a neutral pair's omega_c is 0 and an equal-mass omega_q is 0
    dp = derive(ChargePair(1.0, -1.0, 1.0, 1.0, 1.0))
    assert dp.omega_c == 0.0 and dp.omega_q == 0.0 and dp.B0 == 1.0


def test_energy_formulas_refuse_a_result_beyond_the_double_range():
    dp = derive(ChargePair(1.0, 1.0, 1.0, 1.0, 1e307))
    assert math.isfinite(dimensionless_energy(1, 0, EL, dp))
    with pytest.raises(ValueError, match="^energy overflows"):
        dimensionless_energy(64, -64, EL, dp)
    with pytest.raises(ValueError, match="^energy overflows"):
        secular_spectrum(64, -64, EL, dp)
    with pytest.raises(ValueError, match="^E_R overflows"):
        cm_energy(CMState(64, 64), dp)
    with pytest.raises(ValueError, match="^K\\^2 overflows"):
        pseudomomentum_sq(CMState(64, 64), dp.q, dp.B)
    with pytest.raises(ValueError, match="overflows"):
        casimir_identity_check(CMState(64, 64), dp)
    with pytest.raises(ValueError, match="^K\\^2 overflows"):
        pseudomomentum_sq(CMState(0, 0), 1e200, 1e200)
    # hand-built parameters: the result is checked, not only derive's fields
    nu = derive(ChargePair(1.0, -1.0, 1.0, 2.0, 1.0))
    with pytest.raises(ValueError, match="^energy overflows"):
        dimensionless_energy(1, 0, NU, dataclasses.replace(nu, Omega_q=1e308))
    with pytest.raises(ValueError, match="^energy overflows"):
        dimensionless_energy(1, 1, NU, dataclasses.replace(nu, omega_q=math.nan))


def test_casimir_residual_beyond_the_double_range_is_refused():
    # K^2 and E_R are finite at S = -64, and 2 q B S is not
    dp = derive(ChargePair(1.0, 1.0, 1.0, 1.0, 2e306))
    level = CMState(0, -64)
    assert math.isfinite(cm_energy(level, dp))
    assert math.isfinite(pseudomomentum_sq(level, dp.q, dp.B))
    with pytest.raises(ValueError, match="^casimir residual overflows"):
        casimir_identity_check(level, dp)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_out_of_range_commands_exit_2_with_one_line(capsys, argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("magpair: error: ") and err.count("\n") == 1
    assert "double precision" in err


def _cells(text):
    for row in list(csv.reader(io.StringIO(text)))[1:]:
        yield from (c for c in row if c not in ("", "true", "false"))


#: decades of e1, m1, m2 and B: about a third of the draws leave the range
DECADES = st.floats(-110.0, 110.0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("ec0", "q0", "landau")), DECADES, DECADES, DECADES,
       DECADES, st.integers(0, 64), st.integers(-64, 64))
def test_every_printed_cell_is_finite(which, le1, lm1, lm2, lB, n, s):
    e1, m1, m2, B = (10.0 ** x for x in (le1, lm1, lm2, lB))
    e2 = -e1 if which == "q0" else e1 * m2 / m1
    params = ["--e1", repr(e1), "--e2", repr(e2), "--m1", repr(m1),
              "--m2", repr(m2), "--B", repr(B), "--n", str(n), "--s", str(s)]
    argv = (["landau"] if which == "landau"
            else ["spectrum", "--case", which]) + params
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdout", out)
        mp.setattr("sys.stderr", err)
        code = cli.main(argv)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
    else:
        assert code == 0 and err.getvalue() == ""
        assert all(math.isfinite(float(c)) for c in _cells(out.getvalue()))
