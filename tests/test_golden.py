"""Byte-identity gate: fixed CLI invocations against stored outputs.

Each file under tests/golden/ holds the exact stdout of one invocation;
every invocation exits 0.  A refactor that changes any byte fails here.
To accept an intended change, regenerate the file from `cli.main` and
say why in the change log.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# Every golden call and detour, help, each kind of argparse refusal, the
# argv that only the full parser reads (no command, -h, a bad command), and
# the edges of a plain command line: an abbreviation, a repeated option, an
# empty or `--` value, a bad choice, float values argparse reads or refuses,
# `--` alone and a value that starts with "-".
PARSES = [*CASES.values(), *DETOURS,
          ["spectrum", "--help"],
          ["wavefunction", "-h"],
          ["spectrum", "--s", "1"],
          ["spectrum", "--n", "1", "--case", "bogus"],
          ["verify", "--only", "bogus"],
          ["verify", "--tol", "1"],
          ["wavefunction", "--n", "3", "--r-max", "x"],
          ["wavefunction", "--n", "3", "--r-max", "nan"],
          ["wavefunction", "--n", "3", "--r-max", "-inf"],
          ["wavefunction", "--n", "3", "--r-max=-inf"],
          ["landau", "--e1", "inf", "--B", " 1_0 "],
          ["landau", "--n", "1", "extra"],
          ["spectrum", "--ca", "q0", "--n", "1"],
          ["spectrum", "--n", "1", "--n", "2..3", "--case", "q0"],
          ["spectrum", "--n=", "--out="],
          ["spectrum", "--n", ""],
          ["spectrum", "--n=--"],
          ["verify", "--n=--"],
          ["wavefunction", "--n", "2", "--r-max=--"],
          ["spectrum", "--n", "1", "--case=--"],
          ["spectrum", "--n", "1", "--out=--"],
          ["spectrum", "--n", "1", "--format=--"],
          ["spectrum", "--n", "1", "--"],
          ["spectrum", "--", "--n", "1"],
          ["spectrum", "--n", "-", "--s", "-x"],
          ["spectrum", "--n"],
          [], ["-h"], ["bogus"]]


def _outcome(parse, argv):
    """What parse makes of argv: the repr of its namespace (nan != nan),
    or its exit code, with what it printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = repr(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _assert_one_parse_equals_the_full_parser(argv):
    argv = cli._join_negatives(argv)
    full = _outcome(cli._build_parser().parse_args, argv)
    assert _outcome(cli._parse, argv) == full


@pytest.mark.parametrize("argv", PARSES, ids=lambda a: " ".join(a) or "-")
def test_one_parse_equals_the_full_parser(argv):
    _assert_one_parse_equals_the_full_parser(argv)


cli._build_parser()
_TABLES = {name: table for name, (table, _, _) in cli._PLAIN.items()}
_TEXTS = ["1", "0..2", "-1", "-2..2", "+3", "", "x", "a=b", "--", "-", "-h",
          "extra"]
_FLOATS = ["1", "-2.5", " 1_0 ", "1e400", "nan", "inf", "-inf", "x", ""]


def _values(action):
    """Values an option may be given: its choices and two it refuses, or
    text its type reads or refuses, some of which argparse takes only
    after "=" (a leading "-")."""
    if action.choices is not None:
        return st.sampled_from([*action.choices, "bogus", ""])
    return st.sampled_from(_FLOATS if action.type is float else _TEXTS)


@st.composite
def _argvs(draw):
    """A command and up to six tokens from its options' vocabulary: an
    exact or cut option string, with a value as the next token or after
    "=", or alone; help, `--` or a stray positional."""
    command = draw(st.sampled_from(sorted(_TABLES)))
    table = _TABLES[command]
    argv = [command]
    for _ in range(draw(st.integers(0, 6))):
        opt = draw(st.sampled_from(sorted(table)))
        value = draw(_values(table[opt]))
        if draw(st.integers(0, 4)) == 0:
            opt = opt[:draw(st.integers(2, len(opt)))]  # an abbreviation
        form = draw(st.sampled_from(("pair", "pair", "eq", "eq", "alone")))
        if form == "pair":
            argv += [opt, value]
        elif form == "eq":
            argv.append(f"{opt}={value}")
        else:
            argv.append(draw(st.sampled_from(
                (opt, "-h", "--help", "--", "extra", "--tol"))))
    return argv


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_one_parse_equals_the_full_parser_on_any_vocabulary(argv):
    _assert_one_parse_equals_the_full_parser(argv)


# Patches every argparse parse before magpair.cli is imported, then parses
# each command line of argv[1] in order, the first in a fresh interpreter.
_NO_PARSE_PROBE = """
import argparse, json, sys
calls = []
real = argparse.ArgumentParser.parse_known_args
argparse.ArgumentParser.parse_known_args = (
    lambda self, *a, **k: calls.append(self.prog) or real(self, *a, **k))
from magpair import cli
for argv in json.loads(sys.argv[1]):
    cli._parse(cli._join_negatives(argv))
    assert calls == [], (argv, calls)
"""


def test_golden_calls_make_no_argparse_parse_call():
    src = str(Path(cli.__file__).resolve().parents[1])
    argvs = json.dumps(list(CASES.values()))
    proc = subprocess.run([sys.executable, "-c", _NO_PARSE_PROBE, argvs],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("argv", [["spectrum", "--ca", "q0", "--n", "1"],
                                  ["verify", "--only", "bogus"], ["bogus"]])
def test_a_declined_line_is_read_by_the_full_parser(monkeypatch, capsys, argv):
    ap = cli._build_parser()
    calls = []
    monkeypatch.setattr(ap, "parse_args", lambda a, real=ap.parse_args:
                        calls.append(a) or real(a))
    with contextlib.suppress(SystemExit):
        cli._parse(argv)
    assert calls == [argv]
