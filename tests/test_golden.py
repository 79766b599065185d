"""Byte-identity gate: fixed CLI invocations against stored outputs.

Each file under tests/golden/ holds the exact stdout of one invocation;
every invocation exits 0.  A refactor that changes any byte fails here.
To accept an intended change, regenerate the file from `cli.main` and
say why in the change log.
"""

from pathlib import Path

import pytest

from magpair import cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "verify": ["verify"],
    "verify_json": ["verify", "--format", "json"],
    "spectrum_ec0": ["spectrum", "--case", "ec0", "--n", "0..8",
                     "--s", "-2..2"],
    "spectrum_q0_json": ["spectrum", "--case", "q0", "--n", "0..6",
                         "--s", "0..2", "--format", "json"],
    "spectrum_dimensionful": ["spectrum", "--n", "2", "--e1", "1", "--e2",
                              "1", "--m1", "1", "--m2", "1", "--B", "1"],
    "wavefunction_q0": ["wavefunction", "--case", "q0", "--n", "5", "--s",
                        "1", "--j", "2", "--grid-points", "101"],
    "landau": ["landau", "--n", "0..2", "--s", "-2..2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsysbinary):
    code = cli.main(CASES[name])
    out, err = capsysbinary.readouterr()
    assert code == 0 and err == b""
    assert out == (GOLDEN / f"{name}.out").read_bytes()
