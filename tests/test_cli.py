"""Command line behavior: formats, exit codes, determinism."""

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


def test_missing_required_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum"])
    assert exc.value.code == 2
    capsys.readouterr()


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
    # a Python float takes the fast path; a numpy scalar the general one
    assert cli._fmt(x) == cli._fmt(np.float64(x))


def test_negative_zero_cell_prints_as_zero():
    assert cli._fmt(-0.0) == cli._fmt(np.float64(-0.0)) == "0"


def test_wavefunction_refuses_a_grid_too_large_to_allocate(capsys):
    # numpy refuses the 745 GiB grid before allocating any of it
    code, out, err = run(capsys, "wavefunction", "--n", "3",
                         "--grid-points", "100000000000")
    assert code == 2 and out == ""
    assert err.startswith("magpair: error: --grid-points") and err.count("\n") == 1


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
assert "scipy.linalg" in sys.modules, "the oracle solve did not load scipy"
"""


def test_spectrum_wavefunction_and_landau_never_import_scipy():
    # scipy costs more than half a fresh CLI process; only the oracle needs it
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
    # 1e-12 of its largest component, so p(0) = 1 is not imposed
    code, out, err = run(capsys, "wavefunction", "--n", "64", "--s", "0")
    assert code == 3 and out == "" and "solver failure" in err


def test_non_finite_input_is_rejected(capsys):
    for argv in (("wavefunction", "--n", "2", "--r-max", "inf"),
                 ("wavefunction", "--n", "2", "--r-max", "nan"),
                 ("verify", "--only", "sl2", "--tol", "nan"),
                 ("verify", "--only", "sl2", "--tol", "inf")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "finite" in err, argv


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
    # the one-pass CSV body must equal _render over one dict per row
    samples = []
    real = cli.assemble_wavefunction

    def spy(pair, grid):
        sample = real(pair, grid)
        if synthetic:
            sample = dataclasses.replace(sample, rho=_SPECIAL,
                                         zeta=_SPECIAL[::-1].copy())
        samples.append(sample)
        return sample

    monkeypatch.setattr(cli, "assemble_wavefunction", spy)
    code, out, err = run(capsys, "wavefunction", *argv)
    assert code == 0 and err == ""
    [sample] = samples
    comments = tuple(l[2:] for l in out.splitlines() if l.startswith("# "))
    assert len(comments) == 5
    rows = [{"rho": r, "zeta": z} for r, z in zip(sample.rho, sample.zeta)]
    assert out == cli._render("csv", {}, ["rho", "zeta"], rows, comments)


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


def test_verify_reports_failures(capsys):
    code, out, _ = run(capsys, "verify", "--only", "catalog",
                       "--tol", "1e-20")
    assert code == 1
    _, rows = parse_csv(out)
    assert any(r[-1] == "FAIL" for r in rows)
    # the >= canary keeps passing; only the <= checks break under 1e-20
    assert any(r[-1] == "pass" and r[4] == ">=" for r in rows)


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
