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


# One call before each golden call, in reverse order, on the same parser.
# Each sets flags that the golden call after it leaves at their defaults,
# or is rejected by argparse, so any state the shared parser kept would show.
DETOURS = [
    ["landau", "--n", "1", "--s", "0", "--format", "json", "--e1", "2",
     "--e2", "2", "--m1", "1", "--m2", "1", "--B", "3"],
    ["wavefunction", "--case", "ec0", "--n", "3", "--s", "-1",
     "--grid-points", "5", "--r-max", "4", "--format", "json"],
    ["spectrum", "--case", "q0", "--n", "1..2", "--s", "-1..1",
     "--format", "json"],
    ["spectrum", "--n", "1", "--s", "3", "--e1", "2", "--e2", "2", "--m1",
     "1", "--m2", "1", "--B", "2"],
    ["spectrum", "--n", "1", "--case", "bogus"],
    ["verify", "--only", "sl2", "--n", "1", "--s", "0", "--out", "{tmp}"],
    ["verify", "--only", "casimir", "--format", "json"],
]


def test_repeated_calls_share_one_stateless_parser(capsysbinary, tmp_path):
    assert cli._build_parser() is cli._build_parser()
    assert len(DETOURS) == len(CASES)
    for detour, name in zip(DETOURS, reversed(CASES)):
        argv = [a.replace("{tmp}", str(tmp_path / "v.csv")) for a in detour]
        try:
            cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2
        capsysbinary.readouterr()
        code = cli.main(CASES[name])
        out, err = capsysbinary.readouterr()
        assert code == 0 and err == b"", name
        assert out == (GOLDEN / f"{name}.out").read_bytes(), name
    assert (tmp_path / "v.csv").exists()


# Every golden call and detour, help, each kind of argparse refusal, and
# the argv that only the full parser reads: no command, -h, a bad command.
PARSES = [*CASES.values(), *DETOURS,
          ["spectrum", "--help"],
          ["spectrum", "--s", "1"],
          ["spectrum", "--n", "1", "--case", "bogus"],
          ["verify", "--tol", "1"],
          ["wavefunction", "--n", "3", "--r-max", "x"],
          ["landau", "--n", "1", "extra"],
          [], ["-h"], ["bogus"]]


def _outcome(parse, argv, capsysbinary):
    """The namespace parse returns, or its exit code, with what it printed."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = exc.code
    return result, capsysbinary.readouterr()


@pytest.mark.parametrize("argv", PARSES, ids=lambda a: " ".join(a) or "-")
def test_one_parse_equals_the_full_parser(argv, capsysbinary):
    argv = cli._join_negatives(argv)
    full = _outcome(cli._build_parser().parse_args, argv, capsysbinary)
    one = _outcome(cli._parse, argv, capsysbinary)
    assert one == full


def test_a_command_is_parsed_by_its_own_parser_alone(monkeypatch):
    ap = cli._build_parser()
    calls = []
    for name, parser in [("magpair", ap), *cli._COMMANDS.items()]:
        monkeypatch.setattr(parser, "parse_known_args",
                            lambda *a, name=name, real=parser.parse_known_args:
                            calls.append(name) or real(*a))
    for argv in CASES.values():
        cli._parse(cli._join_negatives(argv))
    assert calls == [argv[0] for argv in CASES.values()]
    cli._parse(["verify", "--only", "sl2"])
    with pytest.raises(SystemExit):
        cli._parse(["bogus"])
    assert calls[-2:] == ["verify", "magpair"]
