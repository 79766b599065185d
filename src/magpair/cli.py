"""Command line front end: spectrum tables, wavefunction sampling, the
verification suite, and center-of-mass Landau tables.

Output is deterministic: identical invocations produce byte-identical
bytes (floats at 15 significant digits, stable orderings, no timestamps).
Exit codes: 0 success, 1 verification failure, 2 invalid input (including
an `--out` path that cannot be written, a wavefunction grid whose step is
below the smallest normal double, parameters whose numbers leave the
double range, and an option given as `--opt=--`), 3 solver failure
(ill-conditioned eigenvector).

`main` may be called repeatedly in one process; every call shares one set
of argument parsers, built on the first call.  A plain command line is
read from their option table without argparse, and any other by the full
argparse parser (see _parse).  `magpair verify` prints the rows declared
in _verify_table.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ._rules import _in_range
from .catalog import (
    catalog_polynomial,
    closed_form_lambdas,
    compare_catalog_with_solver,
)
from .integrals import (
    annihilation_check,
    commutator_particular_check,
    gauge_rotated_action,
)
from .landau import CMState, casimir_identity_check, cm_energy, pseudomomentum_sq
from .oracle import (
    convergence_order,
    default_grid,
    fd_kappa_spectrum,
    oracle_match,
)
from .polyops import parity_flip
from .qes import (
    MAX_DEGREE,
    IllConditionedError,
    _coefficient_residual,
    assemble_wavefunction,
    eigenfunction,
    secular_spectrum,
)
from .sl2rep import build_T_algebraic, build_T_direct, commutator_check
from .system import CaseTag, ChargePair, _require_case, derive

__all__ = ["main"]

_CASES = {"ec0": CaseTag.EQUAL_LARMOR, "q0": CaseTag.NEUTRAL}

#: All five parameters 1: the landau table without --e1 .. --B, and the
#: casimir checks.
_UNIT_PAIR = ChargePair(1.0, 1.0, 1.0, 1.0, 1.0)


class _UsageError(Exception):
    """Invalid command line input; mapped to exit code 2."""


@contextlib.contextmanager
def _refusals():
    """A library refusal (ValueError) inside is a usage error: the input
    leaves the library's domain, such as a scale or an energy beyond the
    double range."""
    try:
        yield
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


# ---------------------------------------------------------------- formatting

def _fmt(x) -> str:
    """One value as text: floats (numpy float64 too) at 15 significant
    digits, blanks for missing."""
    if isinstance(x, float):
        return f"{x + 0.0:.15g}"  # + 0.0 normalizes -0.0
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _jnum(x):
    """JSON-ready value: a number as _fmt rounds it, as a float."""
    if x is None or isinstance(x, (str, bool, int)):
        return x
    return float(_fmt(float(x)))


def _render(fmt: str, meta: dict, header: list[str], rows: list[tuple],
            comments: tuple[str, ...] = ()) -> str:
    """Serialize rows, each a tuple of cells in header order, as CSV or
    JSON text.  The CSV writer quotes a cell that needs it, such as a
    verify name with commas."""
    if fmt == "json":
        body = [{k: _jnum(v) for k, v in zip(header, r)} for r in rows]
        return json.dumps({"meta": meta, "rows": body}, indent=2) + "\n"
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([_fmt(v) for v in r] for r in rows)
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(
            f"cannot write --out {out}: {exc.strerror or exc}") from None


# ------------------------------------------------------------------- parsing

def _int_text(text: str) -> int:
    """text as an int when it is an optional sign and ASCII digits, the one
    rule for integer flags; else ValueError.  int() alone also takes '1_0',
    non-ASCII digits and surrounding spaces."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)  # ValueError beyond int()'s digit limit


def _int_flag(text: str, flag: str) -> int:
    try:
        return _int_text(text)
    except ValueError:
        raise _UsageError(f"{flag} expects an integer, got {text!r}") from None


def _parse_range(text: str, lo: int, hi: int, flag: str) -> list[int]:
    """An integer or an inclusive a..b range, bounds checked before the
    list is built."""
    parts = text.split("..")
    try:
        if len(parts) > 2:
            raise ValueError
        a, b = _int_text(parts[0]), _int_text(parts[-1])
        if b < a:
            raise ValueError
    except ValueError:
        raise _UsageError(f"{flag} expects an integer or a..b, got {text!r}")
    # the first value of a..b outside [lo, hi]: a itself, else hi + 1
    bad = a if not lo <= a <= hi else hi + 1 if b > hi else None
    if bad is not None:
        raise _UsageError(f"{flag} value {bad} is outside [{lo}, {hi}]")
    return list(range(a, b + 1))


def _single(vals: list[int], flag: str) -> int:
    if len(vals) != 1:
        raise _UsageError(f"{flag} must be a single integer here")
    return vals[0]


def _derived_or_none(args, case: CaseTag):
    given = [x is not None for x in (args.e1, args.e2, args.m1, args.m2, args.B)]
    if not any(given):
        return None
    if not all(given):
        raise _UsageError("--e1 --e2 --m1 --m2 --B must be given together")
    with _refusals():
        dp = derive(ChargePair(args.e1, args.e2, args.m1, args.m2, args.B))
        _require_case(dp, case)
    return dp


# ------------------------------------------------------------------ commands

_SPECTRUM_HEADER = ("n", "s", "j", "lambda", "kappa", "b", "energy", "nodes",
                    "physical", "lambda_closed_form", "delta")


def _cmd_spectrum(args) -> str:
    case = _CASES[args.case]
    ns = _parse_range(args.n, 0, MAX_DEGREE, "--n")
    ss = _parse_range(args.s, -MAX_DEGREE, MAX_DEGREE, "--s")
    dp = _derived_or_none(args, case)

    rows = []
    for n in ns:
        for s in ss:
            cf = closed_form_lambdas(n, s) if n <= 8 else ()
            with _refusals():
                points = secular_spectrum(n, s, case, dp)
            for p in points:
                lam_cf = delta = None
                if cf:
                    best = min(cf, key=lambda v: abs(p.lam - v))
                    if abs(p.lam - best) <= 1e-6 * max(1.0, abs(best)):
                        lam_cf, delta = best, p.lam - best
                row = (n, s, p.j, p.lam, p.kappa, p.b, p.energy, p.nodes,
                       p.physical, lam_cf, delta)
                if dp is not None:
                    row += (None if p.b is None else p.b * dp.B0,)
                rows.append(row)
    header = _SPECTRUM_HEADER if dp is None else _SPECTRUM_HEADER + ("B",)
    if args.format == "json":
        meta = {"command": "spectrum", "case": case.value, "n": ns, "s": ss,
                "dimensionful": dp is not None}
        if dp is not None:
            meta["B0"] = _jnum(dp.B0)
        return _render("json", meta, header, rows)
    # the CSV body in one pass, each cell as _fmt writes it: ints plain,
    # floats at %.15g with + 0.0 normalizing -0.0, None blank
    body = "".join(
        f"{n},{s},{j},{lam + 0.0:.15g},{kappa + 0.0:.15g},{_fmt(b)},"
        f"{energy + 0.0:.15g},{nodes},{'true' if physical else 'false'},"
        f"{_fmt(cf)},{_fmt(delta)}{f',{_fmt(B[0])}' if B else ''}\n"
        for n, s, j, lam, kappa, b, energy, nodes, physical, cf, delta, *B
        in rows)
    # no column name needs quoting, so the header line is a plain join
    return ",".join(header) + "\n" + body


def _cmd_wavefunction(args) -> str:
    case = _CASES[args.case]
    n = _single(_parse_range(args.n, 0, MAX_DEGREE, "--n"), "--n")
    s = _single(_parse_range(args.s, -MAX_DEGREE, MAX_DEGREE, "--s"), "--s")
    j = _int_flag(args.j, "--j")
    points = _int_flag(args.grid_points, "--grid-points")
    if points < 2:
        raise _UsageError("--grid-points must be at least 2")
    if not (math.isfinite(args.r_max) and args.r_max > 0.0):
        raise _UsageError("--r-max must be positive and finite")
    try:
        step = args.r_max / (points - 1)
    except OverflowError:  # points - 1 beyond the double range
        step = 0.0
    # a subnormal grid is not the one asked for: its points lose digits
    with _refusals():
        _in_range(args.r_max, "--r-max", nonzero=True)
        _in_range(step, "--r-max / (--grid-points - 1)", nonzero=True)
    try:
        grid = np.linspace(0.0, args.r_max, points)
    except (MemoryError, ValueError):  # ValueError: beyond numpy's size limit
        raise _UsageError(
            f"--grid-points {points} is too large to allocate") from None

    match = [p for p in secular_spectrum(n, s, case)
             if p.physical and p.j == j]
    if not match:
        raise _UsageError(f"no physical branch j = {j} at n = {n}, s = {s}")
    zeta = assemble_wavefunction(eigenfunction(n, s, match[0]), grid)

    meta = {"command": "wavefunction", "n": n, "s": s, "j": j,
            "lambda": _jnum(match[0].lam), "case": case.value}
    header = ["rho", "zeta"]
    if args.format == "json":
        rows = list(zip(grid.tolist(), zeta.tolist()))
        return _render("json", meta, header, rows)
    comments = tuple(f"{k}={_fmt(v)}" for k, v in meta.items()
                     if k != "command")
    # the numeric body in one % pass: %.15g is _fmt's conversion, and
    # + 0.0 normalizes -0.0 across the array as _fmt does per cell
    t = np.column_stack((grid, zeta)) + 0.0
    body = ("%.15g,%.15g\n" * len(t)) % tuple(t.ravel().tolist())
    return _render("csv", meta, header, [], comments) + body


def _cmd_landau(args) -> str:
    Ns = _parse_range(args.n, 0, MAX_DEGREE, "--n")
    Ss = _parse_range(args.s, -MAX_DEGREE, MAX_DEGREE, "--s")
    dp = _derived_or_none(args, CaseTag.EQUAL_LARMOR) or derive(_UNIT_PAIR)

    header = ["N", "S", "E_R", "K2", "casimir_residual"]
    rows = []
    for N in Ns:
        for S in Ss:
            st = CMState(N, S)
            with _refusals():
                e_r, k2 = cm_energy(st, dp), pseudomomentum_sq(st, dp.q, dp.B)
                residual = casimir_identity_check(st, dp)
            rows.append((N, S, e_r, k2, residual))
    meta = {"command": "landau", "N": Ns, "S": Ss,
            "omega_c": _jnum(dp.omega_c), "q": _jnum(dp.q),
            "B": _jnum(dp.B), "M": _jnum(dp.M)}
    return _render(args.format, meta, header, rows)


# ------------------------------------------------------------- verify engine

@dataclass(frozen=True)
class Check:
    """One verification item: measured value against a tolerance."""

    section: str
    name: str
    measured: float
    tol: float
    direction: str  # "<=" or ">="

    @property
    def passed(self) -> bool:
        if self.direction == "<=":
            return self.measured <= self.tol
        return self.measured >= self.tol


def _span(var: str, vals) -> str:
    """The values a nonempty sweep covered, as a check name states them."""
    vals = sorted(vals)
    lo, hi = vals[0], vals[-1]
    if vals != list(range(lo, hi + 1)):
        return f"{var}=" + ",".join(map(str, vals))
    if lo == hi:
        return f"{var}={lo}"
    return f"{var}<={hi}" if lo == 0 else f"{var}={lo}..{hi}"


@dataclass(frozen=True)
class _Row:
    """One declared verify row.

    n and s are its default sweeps (s by |s|); None sweeps nothing and
    ignores the flag.  name is a template whose {n} and {s} state the
    narrowed sweeps as _span does, or a function of them.  measure maps
    the narrowed sweeps (None for an undeclared one) to the measured value.
    """

    section: str
    name: str | Callable[..., str]
    n: Sequence[int] | None
    s: Sequence[int] | None
    measure: Callable[..., float]
    tol: float
    direction: str = "<="


def _narrow(sweep, chosen):
    return None if sweep is None else [
        v for v in sweep if chosen is None or v in chosen]


def _points(ns, ss):
    """The (n, s) points of a narrowed sweep; s is None where undeclared."""
    return [(n, s) for n in ns for s in ((None,) if ss is None else ss)]


def _verify_table() -> list[_Row]:
    """The verify rows, in output order.

    Rows that read one result at one sweep point share its call through
    the caches below, which live as long as the returned table: one
    run_verification call.  Measures look library functions up in this
    module when they run, so a patched name is the one called.
    """
    EL, NU = CaseTag.EQUAL_LARMOR, CaseTag.NEUTRAL
    sl2 = functools.cache(lambda: commutator_check(16, 18))
    spectrum = functools.cache(
        lambda n, s, case: secular_spectrum(n, s, case))
    branches = functools.cache(
        lambda n, s: compare_catalog_with_solver(n, s).branches)
    annihilated = functools.cache(lambda n: annihilation_check(n))
    particular = functools.cache(
        lambda n, s: commutator_particular_check(n, s))
    unit = functools.cache(lambda: derive(_UNIT_PAIR))

    @functools.cache
    def matched(n, s, points):
        """The branch match against the FD solve on default_grid(n, s,
        points), or on the oracle's own default grid for points None."""
        grid = None if points is None else default_grid(n, s, points)
        return oracle_match(spectrum(n, s, EL),
                            fd_kappa_spectrum(n, s, grid), tol=math.inf)

    def peak(f):
        """Measure: the largest f(n, s) over the sweep, at least 0."""
        return lambda ns, ss: max(
            (f(n, s) for n, s in _points(ns, ss)), default=0.0)

    def least(f):
        """Measure: the smallest f(n, s) over the sweep."""
        return lambda ns, ss: min(f(n, s) for n, s in _points(ns, ss))

    def count(bad):
        """Measure: the number of bad findings over the sweep."""
        return lambda ns, ss: sum(bad(n, s) for n, s in _points(ns, ss))

    def catalog(field):
        return peak(lambda n, s: max(
            (getattr(br, field) for br in branches(n, s)), default=0.0))

    def gap(n, s):
        return int(np.max(np.abs(build_T_direct(n, s)
                                  - build_T_algebraic(n, s))))

    def mirror(n, s):
        kap = np.sort([p.kappa for p in spectrum(n, s, EL)])
        return float(np.max(np.abs(kap + kap[::-1])))

    def structure_bad(n, s):
        pts = spectrum(n, s, EL)
        pos = sum(1 for p in pts if p.kappa > 0.0)
        zero = any(p.kappa == 0.0 for p in pts)
        return pos != (n + 1) // 2 or zero != (n % 2 == 0)

    def partners(n, s):
        """The physical (equal-Larmor, neutral) points of each branch j."""
        nu = {p.j: p for p in spectrum(n, s, NU) if p.physical}
        return [(pe, nu[pe.j]) for pe in spectrum(n, s, EL) if pe.physical]

    def flip(n, s):
        worst = 0.0
        for pe, pn in partners(n, s):
            ce = eigenfunction(n, s, pe).polynomial
            cn = eigenfunction(n, s, pn).polynomial
            worst = max(worst, max(abs(x - y) for x, y in
                                   zip(parity_flip(ce).coeffs, cn.coeffs)))
        return worst

    def shared_b(n, s):
        return max((max(abs(pn.b - pe.b), abs(pn.kappa + pe.kappa))
                    for pe, pn in partners(n, s)), default=0.0)

    # node counts of the finite-difference eigenvectors, so that the
    # section does not rest on the rank it checks
    def ladder_bad(n, s):
        rows = matched(n, s, 801).rows
        counts = [r.nodes_fd for r in rows]
        # n = 0 has no physical branch and an empty ladder
        return sorted(counts) != list(range((n - 1) // 2 + 1)) \
            or any(r.nodes_fd != r.nodes_alg for r in rows)

    def map_bad(n, s):
        # the closed-form branch labels are the printed ones, not descending
        # in lambda; map each label to the nearest solver branch before
        # reading off the node count
        rows = matched(n, s, 801).rows
        lams = closed_form_lambdas(n, s)
        bad = 0
        for want, jc in enumerate((1, 3, 2)):
            near = min(rows, key=lambda r: abs(
                r.kappa_alg * r.kappa_alg - lams[jc - 1]))
            bad += near.nodes_fd != want
        return bad

    def solver_residual(n, s):
        return max((eigenfunction(n, s, p).residual
                    for p in spectrum(n, s, EL)), default=0.0)

    def closed_residual(n, s):
        t = build_T_direct(n, s)
        worst = 0.0
        for j, lam in enumerate(closed_form_lambdas(n, s), start=1):
            c = np.asarray(catalog_polynomial(n, s, j).coeffs)
            r = _coefficient_residual(c, t, float(np.sqrt(lam)))
            worst = max(worst, r)
        return worst

    def identity(N, _):
        dp = unit()
        return max(abs(casimir_identity_check(CMState(N, S), dp))
                   for S in range(-10, 11))

    def degeneracy(level):
        """The largest |level(N, S) - level(N, 0)| at one N, S = 0..10."""
        def at(N, _):
            base = level(N, 0)
            return max(abs(level(N, S) - base) for S in range(11))
        return at

    def gauge(case):
        """The gauge-dressed action of branch j = 1, relative to zeta."""
        def at(n, s):
            grid = np.linspace(0.25, 12.0, 48)
            pts = [p for p in spectrum(n, s, case) if p.j == 1]
            pair = eigenfunction(n, s, pts[0])
            g = gauge_rotated_action(pair, grid)
            z = assemble_wavefunction(pair, grid)
            return float(np.max(np.abs(g)) / np.max(np.abs(z)))
        return at

    return [
        _Row("sl2", "P16 [J0 J+] - J+", None, None,
             lambda ns, ss: sl2()["[J0,J+] - J+"], 0.0),
        _Row("sl2", "P16 [J0 J-] + J-", None, None,
             lambda ns, ss: sl2()["[J0,J-] + J-"], 0.0),
        _Row("sl2", "P16 [J+ J-] + 2J0", None, None,
             lambda ns, ss: sl2()["[J+,J-] + 2J0"], 0.0),
        _Row("tmatrix", "direct vs algebraic {n} {s}", range(17), range(9),
             peak(gap), 0.0),
        _Row("catalog", "lambda rel err {n}", range(7), range(6),
             catalog("lam_rel_err"), 1e-10),
        _Row("catalog", "lambda rel err {n}", range(7, 9), range(6),
             catalog("lam_rel_err"), 1e-8),
        _Row("catalog", "coefficient dev {n}", range(8), range(6),
             catalog("coeff_max_abs_err"), 1e-9),
        # canary for the printed rho^7 slot at n=8: the deviation against the
        # secular eigenvector is a documented property of the stored formulas
        # and must stay visible, not get patched away
        _Row("catalog", "printed n=8 rho^7 deviation persists", (8,),
             range(1, 6), catalog("coeff_max_abs_err"), 1e-3, ">="),
        _Row("symmetry", "kappa mirror multiset {n}", range(13), range(4),
             peak(mirror), 1e-12),
        _Row("symmetry", "positive count and zero membership", range(13),
             range(4), count(structure_bad), 0.0),
        _Row("symmetry", "neutral parity-flip coefficients {n}", range(9),
             range(4), peak(flip), 1e-10),
        _Row("symmetry", "shared field quantization b", range(9), range(4),
             peak(shared_b), 0.0),
        _Row("nodes", "ladder 0..floor((n-1)/2) {n}", range(9), range(3),
             count(ladder_bad), 0.0),
        _Row("nodes", "n=5,6 map j=1,3,2 -> 0,1,2", (5, 6), range(3),
             count(map_bad), 0.0),
        _Row("residuals", "solver eigenpairs {n}", range(13), (0, 1, 2, 5),
             peak(solver_residual), 1e-12),
        # n = 0 has the one closed form lambda = 0, whose residual is exactly 0
        _Row("residuals", "closed forms {n}", range(7), range(6),
             peak(closed_residual), 1e-9),
        _Row("oracle", "kappa vs finite differences {n} {s}", range(5),
             range(3), peak(lambda n, s: matched(n, s, None).max_abs_err),
             1e-4),
        _Row("oracle", "node counts agree", range(5), range(3),
             count(lambda n, s: not matched(n, s, None).nodes_all_match), 0.0),
        _Row("oracle",
             lambda ns, ss: f"grid convergence order at ({ns[-1]},{ss[-1]})",
             range(5), range(3),
             lambda ns, ss: convergence_order(ns[-1], ss[-1]).min_order,
             1.8, ">="),
        _Row("casimir",
             lambda Ns, _: "K^2 - 2qB S - 2M E_R sweep " + (
                 "N,|S|<=10" if Ns == list(range(11))
                 else f"{_span('N', Ns)} |S|<=10"),
             range(11), None, peak(identity), 1e-12),
        _Row("casimir", "E_R degenerate in S>=0", range(11), None,
             peak(degeneracy(lambda N, S: cm_energy(CMState(N, S), unit()))),
             0.0),
        _Row("casimir", "K^2 degenerate in S<=0", range(11), None,
             peak(degeneracy(lambda N, S: pseudomomentum_sq(
                 CMState(N, -S), unit().q, unit().B))), 0.0),
        _Row("annihilator", "minus convention kills P_n {n}", range(11), None,
             peak(lambda n, _: annihilated(n).max_abs_minus), 0.0),
        _Row("annihilator", "plus convention does not (n>=1)", range(1, 11),
             None, least(lambda n, _: annihilated(n).max_abs_plus),
             1.0, ">="),
        _Row("annihilator", "[T, i_n] = 0 on P_n {n} {s}", range(11),
             range(6), peak(lambda n, s: particular(n, s).max_abs_on_pn),
             0.0),
        _Row("annihilator", "[T, i_n] nonzero beyond P_n", range(1, 11),
             range(6), least(lambda n, s: particular(n, s).max_abs_beyond),
             1.0, ">="),
        _Row("annihilator", "gauge-dressed action equal-Larmor", (3,), (1,),
             peak(gauge(EL)), 1e-12),
        _Row("annihilator", "gauge-dressed action neutral", (3,), (1,),
             peak(gauge(NU)), 1e-12),
    ]


def run_verification(ns: list[int] | None = None, ss: list[int] | None = None,
                     only: str | None = None) -> list[Check]:
    """Evaluate the declared rows, in order, each against its own
    tolerance.

    ns and ss narrow each row's own sweeps (ss by |s|), and a row whose
    narrowed sweep visits no point is omitted; only selects a single
    section.
    """
    if ss is not None:
        ss = [abs(v) for v in ss]
    checks = []
    for row in _verify_table():
        if only not in (None, row.section):
            continue
        rn, rs = _narrow(row.n, ns), _narrow(row.s, ss)
        if rn == [] or rs == []:
            continue  # the narrowed sweep visits no point
        name = row.name(rn, rs) if callable(row.name) else row.name.format(
            n=rn and _span("n", rn), s=rs and _span("|s|", rs))
        checks.append(Check(row.section, name, float(row.measure(rn, rs)),
                            row.tol, row.direction))
    return checks


def _cmd_verify(args) -> tuple[str, bool]:
    ns = None if args.n is None else _parse_range(args.n, 0, MAX_DEGREE, "--n")
    ss = None if args.s is None else _parse_range(args.s, -MAX_DEGREE,
                                                  MAX_DEGREE, "--s")
    checks = run_verification(ns, ss, args.only)
    header = ["section", "name", "measured", "tolerance", "direction",
              "status"]
    rows = [(c.section, c.name, c.measured, c.tol, c.direction,
             "pass" if c.passed else "FAIL") for c in checks]
    failed = sum(1 for c in checks if not c.passed)
    meta = {"command": "verify", "checks": len(checks), "failed": failed}
    return _render(args.format, meta, header, rows), failed == 0


# ---------------------------------------------------------------- entry point

def _add_case(p):
    p.add_argument("--case", choices=sorted(_CASES), default="ec0",
                   help="ec0: equal Larmor frequencies; q0: neutral pair")


def _add_params(p):
    for flag in ("--e1", "--e2", "--m1", "--m2", "--B"):
        p.add_argument(flag, type=float, default=None,
                       help="dimensionful parameters (all five or none)")


def _add_output(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="write to file instead of stdout")


#: The plain reader's table by command, filled by _build_parser(): the
#: command's one-value options by exact option string, their defaults,
#: and the dests it requires.  No str default has a type to run it through.
_PLAIN: dict[str, tuple[dict[str, argparse.Action], dict, set[str]]] = {}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="magpair",
        description="Quasi-exactly-solvable spectra of two planar charges "
                    "in a perpendicular magnetic field.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="coupling spectrum table")
    _add_case(sp)
    sp.add_argument("--n", required=True, help="degree, int or a..b")
    sp.add_argument("--s", default="0", help="angular momentum, int or a..b")
    _add_params(sp)
    _add_output(sp)

    wf = sub.add_parser("wavefunction", help="sample one radial profile")
    _add_case(wf)
    wf.add_argument("--n", required=True, help="degree (single integer)")
    wf.add_argument("--s", default="0", help="angular momentum (single integer)")
    wf.add_argument("--j", default="1", help="physical branch index")
    wf.add_argument("--grid-points", default="201")
    wf.add_argument("--r-max", type=float, default=10.0)
    _add_output(wf)

    vf = sub.add_parser("verify", help="run the verification suite")
    vf.add_argument("--n", default=None, help="restrict sweeps, int or a..b")
    vf.add_argument("--s", default=None, help="restrict sweeps, int or a..b")
    vf.add_argument("--only", default=None, choices=list(dict.fromkeys(
        row.section for row in _verify_table())))
    _add_output(vf)

    ld = sub.add_parser("landau", help="center-of-mass Landau table")
    ld.add_argument("--n", default="0..3", help="N range, int or a..b")
    ld.add_argument("--s", default="-3..3", help="S range, int or a..b")
    _add_params(ld)
    _add_output(ld)
    for name, parser in sub.choices.items():
        actions = [a for a in parser._actions if a.nargs is None]
        _PLAIN[name] = ({o: a for a in actions for o in a.option_strings},
                        {a.dest: a.default for a in actions},
                        {a.dest for a in actions if a.required})
    return ap


def _join_negatives(argv: list[str]) -> list[str]:
    """Merge `--s -2..2` into `--s=-2..2` so argparse accepts the value,
    and split `--n=--` into `--n --` so argparse refuses it.

    Every magpair option but --help takes exactly one value, so a
    dash-digit token after any other `--` option is its value, and `--`
    is none: given after "=", argparse would drop it and store [].  `--`
    itself and the abbreviations of --help that argparse expands are left
    alone."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        opt, eq, value = tok.partition("=")
        if tok[:2] != "--" or "--help".startswith(opt):
            out.append(tok)
        elif value == "--":
            out += [opt, "--"]
        elif not eq and i + 1 < len(argv) and argv[i + 1][:1] == "-" \
                and len(argv[i + 1]) > 1 and argv[i + 1][1].isdigit():
            i += 1
            out.append(f"{tok}={argv[i]}")
        else:
            out.append(tok)
        i += 1
    return out


def _read_plain(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of a plain command line, or None to leave it to
    argparse.

    Plain is a command followed by exact option strings, each with one
    value (`--opt value`, the value not starting with "-", or
    `--opt=value`), that its type and choices accept, and every required
    option present; a repeated option keeps its last value.  argparse
    gives such a line the same namespace, so only help and usage errors
    need it.
    """
    if not argv or argv[0] not in _PLAIN:
        return None
    table, defaults, required = _PLAIN[argv[0]]
    values = dict(defaults)
    seen = set()
    i, end = 1, len(argv)
    while i < end:
        opt, eq, value = argv[i].partition("=")
        action = table.get(opt)
        if action is None:
            return None
        if not eq:
            i += 1
            if i == end or argv[i][:1] == "-":
                return None
            value = argv[i]
        i += 1
        if action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        seen.add(action.dest)
    if not required <= seen:
        return None
    return argparse.Namespace(command=argv[0], **values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as _build_parser() parses it.

    A plain command line is read by _read_plain without argparse; any
    other, such as help, an abbreviation or a usage error, by the full
    parser, which prints help and every usage error in its own words.
    """
    ap = _build_parser()  # fills _PLAIN before _read_plain reads it
    args = _read_plain(argv)
    return ap.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse(_join_negatives(sys.argv[1:] if argv is None else list(argv)))
    ok = True
    try:
        if args.command == "spectrum":
            text = _cmd_spectrum(args)
        elif args.command == "wavefunction":
            text = _cmd_wavefunction(args)
        elif args.command == "landau":
            text = _cmd_landau(args)
        else:
            text, ok = _cmd_verify(args)
        _emit(text, args.out)
    except _UsageError as exc:
        print(f"magpair: error: {exc}", file=sys.stderr)
        return 2
    except IllConditionedError as exc:
        print(f"magpair: solver failure: {exc}", file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
