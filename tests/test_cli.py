"""Command line behavior: formats, exit codes, determinism."""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import magpair
from magpair import catalog, cli, qes
from magpair.qes import IllConditionedError

SQ6 = math.sqrt(6.0)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def parse_csv(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return rows[0], rows[1:]


def test_spectrum_csv_structure(capsys):
    code, out, err = run(capsys, "spectrum", "--case", "ec0", "--n", "2")
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["n", "s", "j", "lambda", "kappa", "b", "energy",
                      "nodes", "physical", "lambda_closed_form", "delta"]
    assert len(rows) == 3
    # descending lambda, ties by ascending kappa; only kappa > 0 is physical
    assert [r[header.index("physical")] for r in rows] == \
        ["false", "true", "false"]
    phys = rows[1]
    assert phys[header.index("j")] == "1"
    assert phys[header.index("kappa")] == f"{SQ6:.15g}"
    assert phys[header.index("b")] == f"{1.0 / 6.0:.15g}"
    assert phys[header.index("nodes")] == "0"
    assert phys[header.index("lambda_closed_form")] == "6"
    zero = rows[2]
    assert zero[header.index("b")] == ""  # no field on the lambda = 0 branch
    assert zero[header.index("kappa")] == "0"
    assert out.endswith("\n") and "\r" not in out


def test_spectrum_range_row_count(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "1..3", "--s", "0")
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 2 + 3 + 4
    js = [r[header.index("j")] for r in rows if r[header.index("n")] == "3"]
    assert sorted(js) == ["0", "0", "1", "2"]


def test_spectrum_dimensionful_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--format", "json",
                       "--e1", "1", "--e2", "1", "--m1", "1", "--m2", "1",
                       "--B", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["dimensionful"] is True
    assert doc["meta"]["B0"] == 2.0
    phys = [r for r in doc["rows"] if r["physical"]]
    assert len(phys) == 1
    assert phys[0]["B"] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert phys[0]["kappa"] == float(f"{SQ6:.15g}")  # JSON floats pre-rounded
    assert phys[0]["lambda"] == pytest.approx(6.0, rel=1e-13)


@pytest.mark.parametrize("case, pair", [
    ("ec0", ("1", "1", "1", "1")), ("q0", ("1", "-1", "3", "1"))])
def test_dimensionful_energy_is_at_the_input_field_and_B_at_the_states(
        capsys, case, pair):
    def rows(field):
        argv = ["spectrum", "--case", case, "--n", "2", "--s", "-1..1",
                "--format", "json", "--B", field]
        for flag, value in zip(("--e1", "--e2", "--m1", "--m2"), pair):
            argv += [flag, value]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return json.loads(out)["rows"]

    # B does not depend on the input field; energy is proportional to it
    for row in rows("1"):
        if row["B"] is None:
            continue
        again = [r for r in rows(repr(row["B"]))
                 if (r["s"], r["j"], r["kappa"]) ==
                 (row["s"], row["j"], row["kappa"])]
        assert len(again) == 1 and again[0]["B"] == row["B"]
        assert again[0]["energy"] == pytest.approx(row["energy"] * row["B"],
                                                   rel=1e-13)


def test_spectrum_usage_errors(capsys):
    for argv in (("spectrum", "--n", "3..1"),
                 ("spectrum", "--n", "65"),
                 ("spectrum", "--n", "2", "--e1", "1.0"),
                 ("spectrum", "--case", "q0", "--n", "2", "--e1", "1",
                  "--e2", "1", "--m1", "1", "--m2", "1", "--B", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error" in err


def test_range_bounds_are_checked_before_the_list_is_built(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "--n", "0..1000000000000")
    assert time.perf_counter() - t0 < 0.5
    assert code == 2 and out == ""
    assert err == "magpair: error: --n value 65 is outside [0, 64]\n"
    # the first bad value of a..b is named: a when it is out of range
    for text, bad in (("-3..70", -3), ("70..80", 70), ("64..66", 65)):
        code, _, err = run(capsys, "spectrum", "--n", text)
        assert code == 2 and f"--n value {bad} is outside" in err, text


@pytest.mark.parametrize("argv", [
    ("spectrum", "--n", "1_0"),
    ("spectrum", "--n", "\uff19"),  # a full-width 9
    ("spectrum", "--n", "2", "--s", " -1"),
    ("spectrum", "--n", "2", "--s", "-1.."),
    ("landau", "--n", "0..1_0"),
    ("verify", "--n", "3", "--s", "+-1"),
    ("wavefunction", "--n", "3", "--j", "1_0"),
    ("wavefunction", "--n", "3", "--j", " 1"),
    ("wavefunction", "--n", "3", "--grid-points", "\uff15"),
    ("wavefunction", "--n", "3", "--grid-points", "2e3"),
])
def test_integer_flags_take_a_sign_and_ascii_digits_only(capsys, argv):
    # int() alone takes each of these
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("magpair: error: ") and err.count("\n") == 1


def test_signed_integer_flags_still_parse(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "+3", "--s", "-2..2")
    assert code == 0
    _, rows = parse_csv(out)
    assert {r[0] for r in rows} == {"3"}
    assert sorted({int(r[1]) for r in rows}) == [-2, -1, 0, 1, 2]
    code, out, _ = run(capsys, "wavefunction", "--n", "+3", "--s", "-1",
                       "--j", "+1", "--grid-points", "+3")
    assert code == 0 and len(parse_csv(out)[1]) == 3


def test_dash_leading_values_parse_after_any_option(capsys, monkeypatch,
                                                    tmp_path):
    # every option but --help takes one value, so a dash-digit token after
    # any other option is its value, --out included
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "spectrum", "--n", "1", "--out", "-1.csv")
    assert (code, out, err) == (0, "", "")
    assert (tmp_path / "-1.csv").read_text() == run(capsys, "spectrum",
                                                    "--n", "1")[1]
    # a joined value still meets its flag's own rule
    code, out, err = run(capsys, "wavefunction", "--n", "3", "--r-max", "-1")
    assert code == 2 and out == ""
    assert err == "magpair: error: --r-max must be positive and finite\n"
    # ... and reads as the same value written with "="
    for argv in (("--s", "-2..2"),
                 ("--e1", "-1e-3", "--e2", "-1e-3", "--m1", "1", "--m2", "1",
                  "--B", "1")):
        joined = [f"{k}={v}" for k, v in zip(argv[::2], argv[1::2])]
        code, out, _ = run(capsys, "spectrum", "--n", "1", *argv)
        assert code == 0
        assert out == run(capsys, "spectrum", "--n", "1", *joined)[1]
    # --help takes no value: it still prints help and exits 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--help", "-2"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: magpair spectrum")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["-1.csv"]


def test_missing_required_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("spectrum", "--n=--"),
    ("verify", "--n=--"),
    ("wavefunction", "--n", "2", "--r-max=--"),
    ("spectrum", "--n", "1", "--case=--"),
    ("spectrum", "--n", "1", "--out=--"),
    ("spectrum", "--n", "1", "--format=--"),
])
def test_an_option_given_as_equals_dashdash_has_no_value(capsys, argv):
    # argparse drops an explicit `--` value and stores [], which no
    # command reads; `--` after "=" is refused as after a space
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out, err = capsys.readouterr()
    opt = next(a for a in argv if a.endswith("=--"))[:-3]
    assert exc.value.code == 2 and out == ""
    assert err.endswith(f"error: argument {opt}: expected one argument\n")


def test_wavefunction_csv(capsys):
    code, out, _ = run(capsys, "wavefunction", "--case", "q0", "--n", "1",
                       "--grid-points", "5", "--r-max", "2")
    assert code == 0
    comments = [l for l in out.splitlines() if l.startswith("# ")]
    assert comments == ["# n=1", "# s=0", "# j=1", "# lambda=1",
                        "# case=Neutral"]
    header, rows = parse_csv(out)
    assert header == ["rho", "zeta"] and len(rows) == 5
    assert rows[2] == ["1", "0"]  # the neutral mirror of 1+rho vanishes at 1
    assert float(rows[4][1]) == pytest.approx(-math.exp(-1.0), rel=1e-14)


def test_wavefunction_branch_guard(capsys):
    code, _, err = run(capsys, "wavefunction", "--n", "1", "--j", "2")
    assert code == 2 and "no physical branch" in err
    code, _, err = run(capsys, "wavefunction", "--n", "1", "--j", "0")
    assert code == 2
    code, _, err = run(capsys, "wavefunction", "--n", "1..2")
    assert code == 2 and "single integer" in err
    code, _, err = run(capsys, "wavefunction", "--n", "1", "--grid-points", "1")
    assert code == 2
    code, _, err = run(capsys, "wavefunction", "--n", "1", "--r-max", "0")
    assert code == 2


@given(st.floats())
@example(-0.0)
@example(5e-324)
@example(-2.5e-310)
@example(2.2250738585072014e-308)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(-math.nan)
def test_float_cells_format_like_numpy_scalars(x):
    # a numpy float64 is a float subclass and takes the same path
    assert cli._fmt(x) == cli._fmt(np.float64(x))


def test_negative_zero_cell_prints_as_zero():
    assert cli._fmt(-0.0) == cli._fmt(np.float64(-0.0)) == "0"


@pytest.mark.parametrize("argv", [
    # numpy refuses the 745 GiB grid (MemoryError) before allocating any
    # of it, and 1e20 points (ValueError) as beyond its size limit
    ("--n", "3", "--grid-points", "100000000000"),
    ("--n", "2", "--r-max", "1e300", "--grid-points", str(10 ** 20)),
])
def test_wavefunction_refuses_a_grid_too_large_to_allocate(capsys, argv):
    code, out, err = run(capsys, "wavefunction", *argv)
    assert code == 2 and out == ""
    assert err == (f"magpair: error: --grid-points {argv[-1]} is too large "
                   "to allocate\n")


def test_solver_failure_exit_code(capsys, monkeypatch):
    def boom(n, s, point):
        raise IllConditionedError("synthetic failure")
    monkeypatch.setattr(cli, "eigenfunction", boom)
    code, out, err = run(capsys, "wavefunction", "--n", "2")
    assert code == 3 and out == "" and "solver failure" in err


def test_spectrum_solves_each_sector_once(capsys, monkeypatch):
    # one eigenvalue-only solve; node counts come from the sorted spectrum,
    # so no eigenvector is needed
    calls, real = [], qes.eigh_tridiagonal
    monkeypatch.setattr(qes, "eigh_tridiagonal", lambda *a, **kw: calls.append(
        kw.get("eigvals_only", False)) or real(*a, **kw))
    qes._sector_couplings.cache_clear()
    qes._unit_points.cache_clear()
    qes._sector_vectors.cache_clear()
    code, _, _ = run(capsys, "spectrum", "--n", "6", "--s", "1")
    assert code == 0 and calls == [True]


def test_each_sector_is_solved_for_vectors_once(capsys, monkeypatch):
    solves, built, paired = [], [], set()
    real_solve, real_build = qes.eigh_tridiagonal, qes.build_T_direct
    monkeypatch.setattr(qes, "eigh_tridiagonal", lambda *a, **kw: solves.append(
        kw.get("eigvals_only", False)) or real_solve(*a, **kw))
    monkeypatch.setattr(qes, "build_T_direct", lambda n, a: built.append(
        (n, a)) or real_build(n, a))
    for site in (cli, catalog):
        monkeypatch.setattr(site, "eigenfunction",
                            lambda n, s, p, real=site.eigenfunction:
                            paired.add((n, abs(s))) or real(n, s, p))
    qes._sector_couplings.cache_clear()
    qes._sector_vectors.cache_clear()
    assert all(c.passed for c in cli.run_verification())
    # one solve with vectors, and one integer T, per distinct (n, |s|)
    # paired, however many branches and cases each sector serves
    assert sorted(built) == sorted(paired) and len(paired) == 70
    assert solves.count(False) == 70

    # a repeated sector costs no solve of either kind
    first = run(capsys, "wavefunction", "--n", "12", "--s", "3")
    solves.clear()
    assert run(capsys, "wavefunction", "--n", "12", "--s", "3") == first
    assert first[0] == 0 and solves == []


_IMPORT_PATH_PROBE = """
import sys
import magpair, magpair.cli
for argv in (["spectrum", "--n", "8", "--s", "1"],
             ["wavefunction", "--n", "3", "--s", "1"], ["landau"]):
    assert magpair.cli.main(argv) == 0, argv
assert "scipy" not in sys.modules, "scipy on the CLI import path"
from magpair.oracle import fd_kappa_spectrum
fd_kappa_spectrum(2, 1)
assert "scipy.linalg._flapack" in sys.modules, "the solve loaded no LAPACK"
assert "scipy.linalg" not in sys.modules, "the oracle imported scipy.linalg"
"""


def test_spectrum_wavefunction_and_landau_never_import_scipy():
    # a fresh CLI process spends about 0.03 s starting the interpreter,
    # 0.05 s importing numpy (with OpenBLAS at magpair's one thread; 0.09 s
    # unpinned) and 0.04 s importing the rest of magpair.cli.  The oracle
    # loads only scipy's LAPACK extension, in about 4 ms; the scipy.linalg
    # package would add 0.22 to 0.29 s, and nothing else needs scipy
    src = str(Path(magpair.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PATH_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_spectrum_counts_nodes_up_to_the_largest_degree(capsys):
    code, out, err = run(capsys, "spectrum", "--n", "48", "--s", "5")
    assert code == 0 and err == ""
    code, out, err = run(capsys, "spectrum", "--case", "q0", "--n", "64")
    header, rows = parse_csv(out)
    nodes = [r[header.index("nodes")] for r in rows]
    assert code == 0 and len(rows) == 65 and "" not in nodes
    # the neutral branches j = 1, 2, 3 carry 64, 63, 62 nodes
    phys = [int(r[header.index("nodes")]) for r in rows
            if r[header.index("physical")] == "true"]
    assert phys[:3] == [64, 63, 62]


def test_non_normalizable_eigenvector_is_a_solver_failure(capsys):
    # at n = 64 the rho^0 component of the top branch's eigenvector is below
    # 1e-12 of its largest component, so p(0) = 1 is not imposed: rounding
    # has made the eigenvector ill-conditioned
    code, out, err = run(capsys, "wavefunction", "--n", "64", "--s", "0")
    assert code == 3 and out == "" and "solver failure" in err


def test_non_finite_input_is_rejected(capsys):
    for argv in (("wavefunction", "--n", "2", "--r-max", "inf"),
                 ("wavefunction", "--n", "2", "--r-max", "nan")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "finite" in err, argv


def test_wavefunction_refuses_a_subnormal_grid(capsys):
    # a subnormal --r-max or step would print a grid that is not the input
    tiny = sys.float_info.min
    for r_max, points, what in (
            ("1e-310", "3", "--r-max"),
            (repr(tiny / 2), "2", "--r-max"),
            (repr(tiny), "3", "--r-max / (--grid-points - 1)"),
            ("1e-300", str(10 ** 10), "--r-max / (--grid-points - 1)"),
            ("1", str(10 ** 400), "--r-max / (--grid-points - 1)")):
        code, out, err = run(capsys, "wavefunction", "--n", "2",
                             "--r-max", r_max, "--grid-points", points)
        assert code == 2 and out == "", r_max
        assert err.startswith(f"magpair: error: {what} underflows")
    # the smallest normal step still samples the grid it was asked for
    for r_max, points in (("1e-300", "3"), (repr(tiny), "2"),
                          (repr(2 * tiny), "3")):
        code, out, err = run(capsys, "wavefunction", "--n", "2",
                             "--r-max", r_max, "--grid-points", points)
        assert code == 0 and err == ""
        step = float(r_max) / (int(points) - 1)
        assert [r[0] for r in parse_csv(out)[1]][1:] == [
            f"{k * step:.15g}" for k in range(1, int(points))]


def test_wavefunction_far_grid_is_zero_not_nan(capsys):
    argv = ("wavefunction", "--n", "3", "--s", "2", "--r-max", "1e300",
            "--grid-points", "5")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    rows = json.loads(out)["rows"]
    assert [r["zeta"] for r in rows] == [0.0] * 5
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["rho", "zeta"] and [r[1] for r in rows] == ["0"] * 5


# the synthetic sample puts each special value in both columns
_SPECIAL = np.array([-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                     math.inf, -math.inf, math.nan, -math.nan, 1e-5, 0.1,
                     -1.0 / 3.0, 123456789012345678.0, 1e300])


@pytest.mark.parametrize("argv, synthetic", [
    (("--n", "12", "--s", "3", "--grid-points", "2001"), False),
    (("--case", "q0", "--n", "5", "--s", "1", "--j", "2",
      "--grid-points", "101"), False),
    (("--n", "3", "--s", "2", "--r-max", "1e300", "--grid-points", "5"),
     False),
    (("--n", "2", "--grid-points", str(len(_SPECIAL))), True),
])
def test_wavefunction_csv_is_the_generic_table(capsys, monkeypatch, argv,
                                               synthetic):
    # the one-pass CSV body must equal _render over the same tuple rows
    samples = []
    real = cli.assemble_wavefunction

    def spy(pair, grid):
        zeta = real(pair, grid)
        if synthetic:
            # the CLI prints its own grid as rho, so overwrite it in place
            grid[:] = _SPECIAL
            zeta = _SPECIAL[::-1].copy()
        samples.append((grid, zeta))
        return zeta

    monkeypatch.setattr(cli, "assemble_wavefunction", spy)
    code, out, err = run(capsys, "wavefunction", *argv)
    assert code == 0 and err == ""
    [(rho, zeta)] = samples
    comments = tuple(l[2:] for l in out.splitlines() if l.startswith("# "))
    assert len(comments) == 5
    rows = list(zip(rho, zeta))
    assert out == cli._render("csv", {}, ["rho", "zeta"], rows, comments)


_UNIT_PARAMS = ("--e1", "1", "--e2", "1", "--m1", "1", "--m2", "1",
                "--B", "1")


def _special_spectrum(n, s, case, dp=None):
    """Synthetic points: -0.0 in every float column (lambda -0.0 against
    the closed form 0 at n = 0 also gives delta -0.0), numpy scalars, the
    least subnormal, 1e300, and a missing b."""
    z = -0.0
    f = np.float64
    return [
        qes.SpectralPoint(n, s, 1, z, z, z, z, case, True, 0),
        qes.SpectralPoint(n, s, 2, f(-1.0 / 3.0), f(5e-324), f(5e-324),
                          f(-1e300), case, True, np.int64(1)),
        qes.SpectralPoint(n, s, 3, 1e300, 1e300, None, 1e-5, case, False, 2),
    ]


@pytest.mark.parametrize("argv, synthetic", [
    (("--n", "0..8", "--s", "-2..2"), False),
    # the lambda = 0 row pins no field: its B is blank
    (("--n", "2", "--s", "-1..1") + _UNIT_PARAMS, False),
    # no closed form above n = 8: both closed-form cells are blank
    (("--n", "9..12",), False),
    (("--n", "64", "--s", "-64"), False),
    (("--case", "q0", "--n", "64", "--s", "64"), False),
    (("--n", "0", "--s", "-1..1") + _UNIT_PARAMS, True),
])
def test_spectrum_csv_is_the_generic_table(capsys, monkeypatch, argv,
                                           synthetic):
    # the one-pass CSV body must equal _render over the same tuple rows,
    # the ones the JSON branch receives
    if synthetic:
        monkeypatch.setattr(cli, "secular_spectrum", _special_spectrum)
    tables = []
    real = cli._render

    def spy(fmt, meta, header, rows, *rest):
        tables.append((meta, header, rows))
        return real(fmt, meta, header, rows, *rest)

    monkeypatch.setattr(cli, "_render", spy)
    code, _, err = run(capsys, "spectrum", *argv, "--format", "json")
    assert code == 0 and err == ""
    [(meta, header, rows)] = tables
    assert rows and all(type(r) is tuple and len(r) == len(header)
                        for r in rows)
    code, out, err = run(capsys, "spectrum", *argv)
    assert code == 0 and err == ""
    assert out == real("csv", meta, header, rows)


def test_landau_default_table(capsys):
    code, out, _ = run(capsys, "landau")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["N", "S", "E_R", "K2", "casimir_residual"]
    assert len(rows) == 4 * 7  # N in 0..3, S in -3..3
    assert rows[0] == ["0", "-3", "3.5", "2", "0"]
    assert rows[3] == ["0", "0", "0.5", "2", "0"]
    assert rows[-1] == ["3", "3", "3.5", "26", "0"]


def test_landau_negative_range_token(capsys):
    # `--s -2..2` must survive argparse's option detection
    code, out, _ = run(capsys, "landau", "--n", "0", "--s", "-2..2")
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[1] for r in rows] == ["-2", "-1", "0", "1", "2"]


def test_landau_table_of_a_negative_pair_mirrors_S(capsys):
    # the charge conjugate of the default pair: same levels, S mirrored
    code, out, _ = run(capsys, "landau", "--e1", "-1", "--e2", "-1",
                       "--m1", "1", "--m2", "1", "--B", "1")
    assert code == 0
    _, rows = parse_csv(out)
    _, pos = parse_csv(run(capsys, "landau")[1])
    mirrored = {(r[0], str(-int(r[1]))): r[2:] for r in pos}
    assert rows[3] == ["0", "0", "0.5", "2", "0"]
    assert all(r[2:] == mirrored[(r[0], r[1])] for r in rows)
    assert all(float(r[2]) > 0.0 and float(r[3]) > 0.0 for r in rows)


def test_spectrum_table_of_a_negative_pair_mirrors_s(capsys):
    # the charge conjugate of the positive pair: same couplings and fields,
    # the energy of s at -s
    sweep = ["spectrum", "--case", "ec0", "--n", "0..4", "--s=-3..3",
             "--m1", "1", "--m2", "1", "--B", "1"]
    code, out, _ = run(capsys, *sweep, "--e1", "-1", "--e2", "-1")
    assert code == 0
    header, rows = parse_csv(out)
    _, pos = parse_csv(run(capsys, *sweep, "--e1", "1", "--e2", "1")[1])
    mirrored = {(r[0], str(-int(r[1])), r[2], r[4]): r[3:] for r in pos}
    assert len(rows) == len(pos) == len(mirrored)
    assert all(r[3:] == mirrored[(r[0], r[1], r[2], r[4])] for r in rows)
    energy, field = header.index("energy"), header.index("B")
    assert [r[energy] for r in rows if r[:2] == ["2", "1"]] == ["2.5"] * 3
    fields = [float(r[field]) for r in rows if r[field]]
    assert fields and all(f > 0.0 for f in fields)


def test_neutral_spectrum_with_the_heavier_positive_charge(capsys):
    # -(omega_q / 2) L_z with omega_q = e1 B (mu2 - mu1) / mr < 0 here:
    # the s = +1 level lies above the s = -1 one
    code, out, _ = run(capsys, "spectrum", "--case", "q0", "--n", "1",
                       "--s=-1..1", "--e1", "1", "--e2", "-1", "--m1", "3",
                       "--m2", "1", "--B", "1")
    assert code == 0
    header, rows = parse_csv(out)
    energy = header.index("energy")
    by_s = {int(r[1]): float(r[energy]) for r in rows}
    assert by_s[1] == pytest.approx(7.0 / 3.0, rel=1e-12)
    assert by_s[-1] == pytest.approx(5.0 / 3.0, rel=1e-12)


def test_landau_rejects_uncharged_pair(capsys):
    code, _, err = run(capsys, "landau", "--e1", "1", "--e2", "-1",
                       "--m1", "1", "--m2", "1", "--B", "1")
    assert code == 2 and "classify" in err


def test_verify_section_passes(capsys):
    code, out, _ = run(capsys, "verify", "--only", "sl2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["section", "name", "measured", "tolerance",
                      "direction", "status"]
    assert rows and all(r[-1] == "pass" for r in rows)


def test_verify_reports_failures(capsys, monkeypatch):
    real = cli.compare_catalog_with_solver

    def off(n, s):
        # every lambda 1e-6 off, relative: the two lambda rows fail, while
        # the coefficient rows and the >= canary read other fields
        rep = real(n, s)
        return dataclasses.replace(rep, branches=tuple(
            dataclasses.replace(b, lam_rel_err=1e-6) for b in rep.branches))

    monkeypatch.setattr(cli, "compare_catalog_with_solver", off)
    code, out, _ = run(capsys, "verify", "--only", "catalog")
    assert code == 1
    _, rows = parse_csv(out)
    assert any(r[-1] == "FAIL" for r in rows)
    assert any(r[-1] == "pass" and r[4] == ">=" for r in rows)


def test_flags_that_change_no_result_are_unrecognized(capsys):
    # --tol replaced every declared tolerance by one number, and the
    # wavefunction profile does not depend on the charge pair
    for argv in (("verify", "--only", "sl2", "--tol", "1"),
                 ("wavefunction", "--n", "3", "--e1", "1", "--e2", "1",
                  "--m1", "1", "--m2", "1", "--B", "1")):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "unrecognized arguments" in err, argv
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    settable = {name: sum(1 for a in p._actions if a.dest != "help")
                for name, p in sub.choices.items()}
    assert settable == {"spectrum": 10, "wavefunction": 8, "verify": 5,
                        "landau": 9}


def test_verify_scoping_can_empty_a_section(capsys):
    # a check whose sweep visits no point is omitted, never passed
    for argv, names in (
            (("oracle", "--n", "5..8"), []),
            (("symmetry", "--n", "20"), []),
            (("symmetry", "--n", "10"),
             ["kappa mirror multiset n=10",
              "positive count and zero membership"]),
            (("tmatrix", "--s", "20"), []),
            (("catalog", "--n", "8", "--s", "1"),
             ["lambda rel err n=8", "printed n=8 rho^7 deviation persists"]),
            (("nodes", "--s", "5"), []),
            (("residuals", "--s", "7"), []),
            (("residuals", "--s", "3"), ["closed forms n<=6"]),
            (("casimir", "--n", "20"), []),
            (("annihilator", "--s", "9"),
             ["minus convention kills P_n n<=10",
              "plus convention does not (n>=1)"])):
        code, out, _ = run(capsys, "verify", "--only", *argv)
        _, rows = parse_csv(out)
        assert code == 0 and [r[1] for r in rows] == names, argv


def test_verify_names_state_the_swept_range(capsys):
    code, out, _ = run(capsys, "verify", "--only", "symmetry",
                       "--n", "0..8", "--s", "0..1")
    _, rows = parse_csv(out)
    assert code == 0 and rows[0][1] == "kappa mirror multiset n<=8"
    code, out, _ = run(capsys, "verify", "--only", "tmatrix",
                       "--n", "3..6", "--s", "-2")
    _, rows = parse_csv(out)
    assert code == 0 and rows[0][1] == "direct vs algebraic n=3..6 |s|=2"
    names = [c.name for c in cli.run_verification(
        [4], [0, 1, 3], only="annihilator")]
    assert "[T, i_n] = 0 on P_n n=4 |s|=0,1,3" in names
    names = [c.name for c in cli.run_verification([2, 3], only="casimir")]
    assert names[0] == "K^2 - 2qB S - 2M E_R sweep N=2..3 |S|<=10"


def test_spectrum_block_budget(capsys):
    # node counts are read off the sorted spectrum, so the block needs one
    # eigenvalue-only solve per sector: about 0.02 s in process on a 2-core
    # VM; any per-branch root counting would break the bound
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "spectrum", "--n", "0..16", "--s", "0..2")
    dt = time.perf_counter() - t0
    assert code == 0 and out.count("\n") == 1 + 3 * sum(range(1, 18))
    assert dt < 5.0, f"spectrum --n 0..16 --s 0..2 took {dt:.1f} s"


def test_verify_deterministic_bytes(capsys, tmp_path):
    code1, out1, _ = run(capsys, "verify", "--only", "casimir")
    code2, out2, _ = run(capsys, "verify", "--only", "casimir")
    assert code1 == code2 == 0
    assert out1 == out2
    target = tmp_path / "report.csv"
    code3 = cli.main(["verify", "--only", "casimir", "--out", str(target)])
    capsys.readouterr()
    assert code3 == 0
    data = target.read_bytes()
    assert data.decode("utf-8") == out1
    assert b"\r" not in data


@pytest.mark.parametrize("argv", [("spectrum", "--n", "2"),
                                  ("verify", "--only", "sl2")])
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv, where):
    target = tmp_path if where == "directory" else tmp_path / "no" / "v.csv"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"magpair: error: cannot write --out {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == []


def test_casimir_residual_of_either_sign_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli, "casimir_identity_check", lambda st, dp: -1.0)
    code, out, _ = run(capsys, "verify", "--only", "casimir")
    assert code == 1
    _, rows = parse_csv(out)
    assert rows[0][-1] == "FAIL"


def test_json_verify_shape(capsys):
    code, out, _ = run(capsys, "verify", "--only", "sl2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["command"] == "verify"
    assert doc["meta"]["failed"] == 0
    assert doc["meta"]["checks"] == len(doc["rows"])
    assert all(row["status"] == "pass" for row in doc["rows"])
