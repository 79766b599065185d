"""The verify table: each row declared once, one omission rule, shared work.

`magpair verify` evaluates the rows of cli._verify_table in order.  Each
row declares its default n and |s| sweeps; --n and --s narrow a row's own
sweeps, and a row whose narrowed sweep is empty is omitted.  Rows that
read one result at one sweep point share one call through caches that
live for one run_verification call, and no longer.
"""

import argparse
import collections
import re
import types
from pathlib import Path

import pytest

from magpair import cli

README = Path(__file__).resolve().parents[1] / "README.md"

#: Library calls through cli in one full run_verification(), at most: the
#: counts of the nine hand-written section builders this table replaced.
MOST_CALLS = {
    "secular_spectrum": 184, "eigenfunction": 526,
    "compare_catalog_with_solver": 54, "oracle_match": 42,
    "fd_kappa_spectrum": 42, "default_grid": 27,
    "commutator_particular_check": 66, "annihilation_check": 11,
    "commutator_check": 1, "convergence_order": 1, "derive": 1,
    "casimir_identity_check": 231, "build_T_direct": 195,
    "build_T_algebraic": 153, "cm_energy": 132, "pseudomomentum_sq": 132,
    "parity_flip": 80, "catalog_polynomial": 78,
    "_coefficient_residual": 78, "closed_form_lambdas": 48,
    "gauge_rotated_action": 2, "assemble_wavefunction": 2,
}


@pytest.fixture(scope="module")
def full_run():
    return cli.run_verification()


def _sections(rows):
    return list(dict.fromkeys(r.section for r in rows))


def _outside(sweep):
    """The smallest value the CLI accepts that the sweep does not hold."""
    return next(v for v in range(cli.MAX_DEGREE + 1) if v not in sweep)


def test_full_run_is_the_table_in_order(full_run):
    table = cli._verify_table()
    assert len(table) == len(full_run) == 28
    assert [(c.section, c.tol, c.direction) for c in full_run] == \
        [(r.section, r.tol, r.direction) for r in table]
    for c, r in zip(full_run, table):
        if isinstance(r.name, str) and "{" not in r.name:
            assert c.name == r.name
    assert all(c.passed for c in full_run)


def test_only_choices_are_the_table_sections():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    only = next(a for a in sub.choices["verify"]._actions if a.dest == "only")
    assert list(only.choices) == _sections(cli._verify_table())
    assert _sections(cli._verify_table()) == [
        "sl2", "tmatrix", "catalog", "symmetry", "nodes", "residuals",
        "oracle", "casimir", "annihilator"]


@pytest.mark.parametrize("axis", ["n", "s"])
def test_a_value_outside_a_rows_sweep_omits_that_row(axis):
    table = cli._verify_table()
    for row in table:
        sweep = getattr(row, axis)
        if sweep is None:
            continue
        v = _outside(sweep)
        kept = [r for r in table if r.section == row.section and (
            getattr(r, axis) is None or v in getattr(r, axis))]
        narrowed = {"ns": [v]} if axis == "n" else {"ss": [v]}
        got = cli.run_verification(only=row.section, **narrowed)
        # an omitted row that still printed would add a (tol, direction)
        assert [(c.tol, c.direction) for c in got] == \
            [(r.tol, r.direction) for r in kept], (row.section, axis, v)


def test_a_row_without_a_sweep_ignores_the_flags():
    got = cli.run_verification([cli.MAX_DEGREE], [cli.MAX_DEGREE])
    assert [c.section for c in got] == ["sl2"] * 3
    names = [c.name for c in cli.run_verification(
        [cli.MAX_DEGREE, 3], [cli.MAX_DEGREE], only="casimir")]
    assert names == ["K^2 - 2qB S - 2M E_R sweep N=3 |S|<=10",
                     "E_R degenerate in S>=0", "K^2 degenerate in S<=0"]


def _counting(monkeypatch):
    """Count every call through cli to a function of another module."""
    calls = collections.Counter()
    args = collections.defaultdict(list)
    for attr, obj in list(vars(cli).items()):
        if isinstance(obj, types.FunctionType) \
                and obj.__module__.startswith("magpair.") \
                and obj.__module__ != cli.__name__:
            def counted(*a, _f=obj, _name=attr, **k):
                calls[_name] += 1
                args[_name].append(a[:2])
                return _f(*a, **k)
            monkeypatch.setattr(cli, attr, counted)
    return calls, args


def test_shared_work_runs_once_per_point_and_again_next_run(monkeypatch):
    calls, args = _counting(monkeypatch)
    cli.run_verification()
    first = dict(calls)
    assert first["compare_catalog_with_solver"] == 54
    assert len(set(args["compare_catalog_with_solver"])) == 54
    # nodes on 801-point grids (9 x 3) and oracle on default grids (5 x 3)
    assert first["oracle_match"] == 42
    assert set(first) <= set(MOST_CALLS)
    assert all(first[f] <= MOST_CALLS[f] for f in first), first
    # the caches lived for one run: the next run makes the same calls
    cli.run_verification()
    assert {f: calls[f] - first[f] for f in calls} == first


def _readme_table():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(
        "| section | name | n | \\|s\\| | tolerance | direction |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = re.split(r"(?<!\\)\|", line)[1:-1]
        rows.append(tuple(c.strip().strip("`").replace("\\|", "|")
                          for c in cells))
    return rows


def _sweep_text(sweep):
    if sweep is None:
        return "none"
    v = list(sweep)
    if len(v) == 1:
        return str(v[0])
    if v == list(range(v[0], v[-1] + 1)):
        return f"{v[0]}..{v[-1]}"
    return ",".join(map(str, v))


def test_readme_table_is_the_declared_table(full_run):
    want = [(c.section, c.name, _sweep_text(r.n), _sweep_text(r.s),
             cli._fmt(c.tol), c.direction)
            for c, r in zip(full_run, cli._verify_table())]
    assert _readme_table() == want
