"""Command line front end: spectrum tables, wavefunction sampling, the
verification suite, and center-of-mass Landau tables.

Output is deterministic: identical invocations produce byte-identical
bytes (floats at 15 significant digits, stable orderings, no timestamps).
Exit codes: 0 success, 1 verification failure, 2 invalid input (including
an `--out` path that cannot be written), 3 solver failure (ill-conditioned
or non-normalizable eigenvector).

`main` may be called repeatedly in one process; every call shares one
argument parser, built on the first call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

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
    NonNormalizableError,
    assemble_wavefunction,
    eigenfunction,
    secular_spectrum,
)
from .sl2rep import build_T_algebraic, build_T_direct, commutator_check
from .system import CaseTag, ChargePair, classify, derive

__all__ = ["main"]

_CASES = {"ec0": CaseTag.EQUAL_LARMOR, "q0": CaseTag.NEUTRAL}

#: All five parameters 1: the landau table without --e1 .. --B, and the
#: casimir checks.
_UNIT_PAIR = ChargePair(1.0, 1.0, 1.0, 1.0, 1.0)


class _UsageError(Exception):
    """Invalid command line input; mapped to exit code 2."""


# ---------------------------------------------------------------- formatting

def _fmt(x) -> str:
    """One value as text: 15 significant digits, blanks for missing."""
    if type(x) is float:
        return f"{x + 0.0:.15g}"  # + 0.0 normalizes -0.0
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return f"{v:.15g}"


def _jnum(x):
    """JSON-ready value rounded to 15 significant digits."""
    if x is None or isinstance(x, (str, bool, int)):
        return x
    v = float(x)
    if v == 0.0:
        return 0.0
    return float(f"{v:.15g}")


def _render(fmt: str, meta: dict, header: list[str], rows: list[dict],
            comments: tuple[str, ...] = ()) -> str:
    """Serialize rows (dicts keyed by header) as CSV or JSON text."""
    if fmt == "json":
        body = [{k: _jnum(r[k]) for k in header} for r in rows]
        return json.dumps({"meta": meta, "rows": body}, indent=2) + "\n"
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for r in rows:
        w.writerow([_fmt(r[k]) for k in header])
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

def _parse_range(text: str, lo: int, hi: int, flag: str) -> list[int]:
    """An integer or an inclusive a..b range, bounds checked before the
    list is built."""
    parts = text.split("..")
    try:
        if len(parts) > 2:
            raise ValueError
        a, b = int(parts[0]), int(parts[-1])
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
    try:
        dp = derive(ChargePair(args.e1, args.e2, args.m1, args.m2, args.B))
    except ValueError as exc:
        raise _UsageError(str(exc))
    got = classify(dp)
    if got is not case:
        raise _UsageError(
            f"parameters classify as {got.value}, not {case.value}")
    return dp


# ------------------------------------------------------------------ commands

def _cmd_spectrum(args) -> str:
    case = _CASES[args.case]
    ns = _parse_range(args.n, 0, MAX_DEGREE, "--n")
    ss = _parse_range(args.s, -MAX_DEGREE, MAX_DEGREE, "--s")
    dp = _derived_or_none(args, case)

    header = ["n", "s", "j", "lambda", "kappa", "b", "energy", "nodes",
              "physical", "lambda_closed_form", "delta"]
    if dp is not None:
        header.append("B")
    rows = []
    for n in ns:
        for s in ss:
            cf = closed_form_lambdas(n, s) if n <= 8 else ()
            for p in secular_spectrum(n, s, case, dp):
                lam_cf = delta = None
                if cf:
                    best = min(cf, key=lambda v: abs(p.lam - v))
                    if abs(p.lam - best) <= 1e-6 * max(1.0, abs(best)):
                        lam_cf, delta = best, p.lam - best
                row = {"n": n, "s": s, "j": p.j, "lambda": p.lam,
                       "kappa": p.kappa, "b": p.b, "energy": p.energy,
                       "nodes": p.nodes, "physical": p.physical,
                       "lambda_closed_form": lam_cf, "delta": delta}
                if dp is not None:
                    row["B"] = None if p.b is None else p.b * dp.B0
                rows.append(row)
    meta = {"command": "spectrum", "case": case.value, "n": ns, "s": ss,
            "dimensionful": dp is not None}
    if dp is not None:
        meta["B0"] = _jnum(dp.B0)
    return _render(args.format, meta, header, rows)


def _cmd_wavefunction(args) -> str:
    case = _CASES[args.case]
    n = _single(_parse_range(args.n, 0, MAX_DEGREE, "--n"), "--n")
    s = _single(_parse_range(args.s, -MAX_DEGREE, MAX_DEGREE, "--s"), "--s")
    _derived_or_none(args, case)  # validated only: the profile is scaled
    if args.grid_points < 2:
        raise _UsageError("--grid-points must be at least 2")
    if not (math.isfinite(args.r_max) and args.r_max > 0.0):
        raise _UsageError("--r-max must be positive and finite")
    try:
        grid = np.linspace(0.0, args.r_max, args.grid_points)
    except MemoryError:
        raise _UsageError(
            f"--grid-points {args.grid_points} is too large to allocate") from None

    match = [p for p in secular_spectrum(n, s, case)
             if p.physical and p.j == args.j]
    if not match:
        raise _UsageError(
            f"no physical branch j = {args.j} at n = {n}, s = {s}")
    pair = eigenfunction(n, s, match[0])
    sample = assemble_wavefunction(pair, grid)

    meta = {"command": "wavefunction", "n": n, "s": s, "j": args.j,
            "lambda": _jnum(match[0].lam), "case": case.value}
    header = ["rho", "zeta"]
    if args.format == "json":
        rows = [{"rho": r, "zeta": z}
                for r, z in zip(sample.rho.tolist(), sample.zeta.tolist())]
        return _render("json", meta, header, rows)
    comments = tuple(f"{k}={_fmt(v)}" for k, v in meta.items()
                     if k != "command")
    # the numeric body in one % pass: %.15g is _fmt's conversion, and
    # + 0.0 normalizes -0.0 across the array as _fmt does per cell
    t = np.column_stack((sample.rho, sample.zeta)) + 0.0
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
            rows.append({"N": N, "S": S,
                         "E_R": cm_energy(st, dp),
                         "K2": pseudomomentum_sq(st, dp.q, dp.B),
                         "casimir_residual": casimir_identity_check(st, dp)})
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


def _scope(defaults, chosen) -> list[int]:
    return [v for v in defaults if chosen is None or v in chosen]


def _span(var: str, vals) -> str:
    """The values a nonempty sweep covered, as a check name states them."""
    vals = sorted(vals)
    lo, hi = vals[0], vals[-1]
    if vals != list(range(lo, hi + 1)):
        return f"{var}=" + ",".join(map(str, vals))
    if lo == hi:
        return f"{var}={lo}"
    return f"{var}<={hi}" if lo == 0 else f"{var}={lo}..{hi}"


def _checks_sl2(ns, ss) -> list[Check]:
    rep = commutator_check(16, 18)
    return [Check("sl2", f"P16 {name.replace(',', ' ')}", float(dev), 0.0, "<=")
            for name, dev in rep.deviations.items()]


def _checks_tmatrix(ns, ss) -> list[Check]:
    ns, ss = _scope(range(17), ns), _scope(range(9), ss)
    if not ns or not ss:
        return []
    worst = 0
    for n in ns:
        for a in ss:
            d = build_T_direct(n, a)
            g = build_T_algebraic(n, a)
            worst = max(worst, int(np.max(np.abs(d - g))))
    return [Check("tmatrix", f"direct vs algebraic {_span('n', ns)} "
                  f"{_span('|s|', ss)}", float(worst), 0.0, "<=")]


def _checks_catalog(ns, ss) -> list[Check]:
    ns, ss = _scope(range(9), ns), _scope(range(6), ss)
    if not ss:
        return []
    lam_low = lam_high = coeff_low = canary = 0.0
    have_8 = False
    for n in ns:
        for s in ss:
            rep = compare_catalog_with_solver(n, s)
            for br in rep.branches:
                if n <= 6:
                    lam_low = max(lam_low, br.lam_rel_err)
                    coeff_low = max(coeff_low, br.coeff_max_abs_err)
                else:
                    lam_high = max(lam_high, br.lam_rel_err)
                    if n == 7:
                        coeff_low = max(coeff_low, br.coeff_max_abs_err)
                    elif s >= 1:
                        have_8 = True
                        canary = max(canary, br.coeff_max_abs_err)
    low = [n for n in ns if n <= 6]
    high = [n for n in ns if n >= 7]
    coeff = [n for n in ns if n <= 7]
    out = []
    if low:
        out.append(Check("catalog", f"lambda rel err {_span('n', low)}",
                         lam_low, 1e-10, "<="))
    if high:
        out.append(Check("catalog", f"lambda rel err {_span('n', high)}",
                         lam_high, 1e-8, "<="))
    if coeff:
        out.append(Check("catalog", f"coefficient dev {_span('n', coeff)}",
                         coeff_low, 1e-9, "<="))
    if have_8:
        # canary for the printed rho^7 slot at n=8: the deviation against the
        # secular eigenvector is a documented property of the stored formulas
        # and must stay visible, not get patched away
        out.append(Check("catalog", "printed n=8 rho^7 deviation persists",
                         canary, 1e-3, ">="))
    return out


def _checks_symmetry(ns, ss) -> list[Check]:
    ns, ss = _scope(range(13), ns), _scope(range(4), ss)
    if not ns or not ss:
        return []
    mirror = structure = coeff = bshare = 0.0
    for n in ns:
        for s in ss:
            pts = secular_spectrum(n, s, CaseTag.EQUAL_LARMOR)
            kap = np.sort([p.kappa for p in pts])
            mirror = max(mirror, float(np.max(np.abs(kap + kap[::-1]))))
            pos = sum(1 for p in pts if p.kappa > 0.0)
            zero = any(p.kappa == 0.0 for p in pts)
            if pos != (n + 1) // 2 or zero != (n % 2 == 0):
                structure += 1.0
            if n > 8:
                continue
            nu = {p.j: p for p in secular_spectrum(n, s, CaseTag.NEUTRAL)
                  if p.physical}
            for pe in pts:
                if not pe.physical:
                    continue
                pn = nu[pe.j]
                bshare = max(bshare, abs(pn.b - pe.b), abs(pn.kappa + pe.kappa))
                ce = eigenfunction(n, s, pe).polynomial
                cn = eigenfunction(n, s, pn).polynomial
                coeff = max(coeff, max(abs(x - y) for x, y in
                                       zip(parity_flip(ce).coeffs, cn.coeffs)))
    out = [
        Check("symmetry", f"kappa mirror multiset {_span('n', ns)}", mirror,
              1e-12, "<="),
        Check("symmetry", "positive count and zero membership", structure,
              0.0, "<="),
    ]
    low = [n for n in ns if n <= 8]
    if low:
        out += [
            Check("symmetry", "neutral parity-flip coefficients "
                  f"{_span('n', low)}", coeff, 1e-10, "<="),
            Check("symmetry", "shared field quantization b", bshare, 0.0,
                  "<="),
        ]
    return out


def _checks_nodes(ns, ss) -> list[Check]:
    ns, ss = _scope(range(9), ns), _scope(range(3), ss)
    if not ns or not ss:
        return []
    bad_ladder = bad_map = 0.0
    saw56 = False
    for n in ns:
        for s in ss:
            # node counts of the finite-difference eigenvectors, so that the
            # section does not rest on the rank it checks
            fd = fd_kappa_spectrum(n, s, default_grid(n, s, 801))
            rows = oracle_match(secular_spectrum(n, s, CaseTag.EQUAL_LARMOR),
                                fd, tol=float("inf")).rows
            counts = [r.nodes_fd for r in rows]
            # n = 0 has no physical branch and an empty ladder
            if sorted(counts) != list(range((n - 1) // 2 + 1)) \
                    or any(r.nodes_fd != r.nodes_alg for r in rows):
                bad_ladder += 1.0
            if n in (5, 6):
                # the closed-form branch labels are the printed ones, not
                # descending in lambda; map each label to the nearest
                # solver branch before reading off the node count
                saw56 = True
                lams = closed_form_lambdas(n, s)
                for want, jc in enumerate((1, 3, 2)):
                    near = min(rows, key=lambda r: abs(
                        r.kappa_alg * r.kappa_alg - lams[jc - 1]))
                    if near.nodes_fd != want:
                        bad_map += 1.0
    out = [Check("nodes", f"ladder 0..floor((n-1)/2) {_span('n', ns)}",
                 bad_ladder, 0.0, "<=")]
    if saw56:
        out.append(Check("nodes", "n=5,6 map j=1,3,2 -> 0,1,2", bad_map,
                         0.0, "<="))
    return out


def _checks_residuals(ns, ss) -> list[Check]:
    solver = catalog = 0.0
    # n = 0 has the one closed form lambda = 0, whose residual is exactly 0
    ns_solver, ns_closed = _scope(range(13), ns), _scope(range(7), ns)
    ss_solver, ss_closed = _scope((0, 1, 2, 5), ss), _scope(range(6), ss)
    for n in ns_solver:
        for s in ss_solver:
            for p in secular_spectrum(n, s, CaseTag.EQUAL_LARMOR):
                solver = max(solver, eigenfunction(n, s, p).residual)
    for n in ns_closed:
        for s in ss_closed:
            t = build_T_direct(n, s)
            for j, lam in enumerate(closed_form_lambdas(n, s), start=1):
                c = np.asarray(catalog_polynomial(n, s, j).coeffs)
                kap = float(np.sqrt(lam))
                r = np.max(np.abs(t @ c + kap * c)) / np.max(np.abs(c))
                catalog = max(catalog, float(r))
    out = []
    if ns_solver and ss_solver:
        out.append(Check("residuals",
                         f"solver eigenpairs {_span('n', ns_solver)}",
                         solver, 1e-12, "<="))
    if ns_closed and ss_closed:
        out.append(Check("residuals", f"closed forms {_span('n', ns_closed)}",
                         catalog, 1e-9, "<="))
    return out


def _checks_oracle(ns, ss) -> list[Check]:
    ns = _scope(range(5), ns)
    ss = _scope(range(3), ss)
    if not ns or not ss:
        return []
    err = nodes_bad = 0.0
    for n in ns:
        for s in ss:
            res = fd_kappa_spectrum(n, s)
            pts = secular_spectrum(n, s, CaseTag.EQUAL_LARMOR)
            rep = oracle_match(pts, res, tol=float("inf"))
            err = max(err, rep.max_abs_err)
            if not rep.nodes_all_match:
                nodes_bad += 1.0
    order = convergence_order(ns[-1], ss[-1]).min_order
    return [
        Check("oracle", "kappa vs finite differences "
              f"{_span('n', ns)} {_span('|s|', ss)}", err, 1e-4, "<="),
        Check("oracle", "node counts agree", nodes_bad, 0.0, "<="),
        Check("oracle", f"grid convergence order at ({ns[-1]},{ss[-1]})",
              order, 1.8, ">="),
    ]


def _checks_casimir(ns, ss) -> list[Check]:
    dp = derive(_UNIT_PAIR)
    Ns = _scope(range(11), ns)
    if not Ns:
        return []
    worst = deg_e = deg_k = 0.0
    for N in Ns:
        for S in range(-10, 11):
            worst = max(worst, abs(casimir_identity_check(CMState(N, S), dp)))
        e0 = cm_energy(CMState(N, 0), dp)
        k0 = pseudomomentum_sq(CMState(N, 0), dp.q, dp.B)
        for S in range(11):
            deg_e = max(deg_e, abs(cm_energy(CMState(N, S), dp) - e0))
            deg_k = max(deg_k, abs(
                pseudomomentum_sq(CMState(N, -S), dp.q, dp.B) - k0))
    sweep = ("N,|S|<=10" if Ns == list(range(11))
             else f"{_span('N', Ns)} |S|<=10")
    return [
        Check("casimir", f"K^2 - 2qB S - 2M E_R sweep {sweep}", worst,
              1e-12, "<="),
        Check("casimir", "E_R degenerate in S>=0", deg_e, 0.0, "<="),
        Check("casimir", "K^2 degenerate in S<=0", deg_k, 0.0, "<="),
    ]


def _checks_annihilator(ns, ss) -> list[Check]:
    ns, ss = _scope(range(11), ns), _scope(range(6), ss)
    if not ns:
        return []
    minus = comm = 0.0
    plus = beyond = float("inf")
    for n in ns:
        rep = annihilation_check(n)
        minus = max(minus, float(rep.max_abs_minus))
        if n >= 1:
            plus = min(plus, float(rep.max_abs_plus))
        for s in ss:
            pr = commutator_particular_check(n, s)
            comm = max(comm, float(pr.max_abs_on_pn))
            if n >= 1:
                beyond = min(beyond, float(pr.max_abs_beyond))
    above = any(n >= 1 for n in ns)
    out = [Check("annihilator", f"minus convention kills P_n {_span('n', ns)}",
                 minus, 0.0, "<=")]
    if above:
        out.append(Check("annihilator", "plus convention does not (n>=1)",
                         plus, 1.0, ">="))
    if ss:
        out.append(Check("annihilator", "[T, i_n] = 0 on P_n "
                         f"{_span('n', ns)} {_span('|s|', ss)}", comm, 0.0,
                         "<="))
    if above and ss:
        out.append(Check("annihilator", "[T, i_n] nonzero beyond P_n",
                         beyond, 1.0, ">="))
    if 3 in ns and 1 in ss:
        grid = np.linspace(0.25, 12.0, 48)
        for case, label in ((CaseTag.EQUAL_LARMOR, "equal-Larmor"),
                            (CaseTag.NEUTRAL, "neutral")):
            pts = [p for p in secular_spectrum(3, 1, case) if p.j == 1]
            pair = eigenfunction(3, 1, pts[0])
            g = gauge_rotated_action(pair, grid)
            z = assemble_wavefunction(pair, grid).zeta
            rel = float(np.max(np.abs(g)) / np.max(np.abs(z)))
            out.append(Check("annihilator", f"gauge-dressed action {label}",
                             rel, 1e-12, "<="))
    return out


_CHECK_BUILDERS = {
    "sl2": _checks_sl2,
    "tmatrix": _checks_tmatrix,
    "catalog": _checks_catalog,
    "symmetry": _checks_symmetry,
    "nodes": _checks_nodes,
    "residuals": _checks_residuals,
    "oracle": _checks_oracle,
    "casimir": _checks_casimir,
    "annihilator": _checks_annihilator,
}


def run_verification(ns: list[int] | None = None, ss: list[int] | None = None,
                     only: str | None = None,
                     tol: float | None = None) -> list[Check]:
    """Build and evaluate the ordered check list.

    ns and ss restrict the sweeps of the sections they apply to (ss by
    |s|); only selects a single section; tol, when given, replaces every
    check's tolerance (direction semantics unchanged).
    """
    if ss is not None:
        ss = [abs(v) for v in ss]
    checks = [c for section, build in _CHECK_BUILDERS.items()
              if only in (None, section) for c in build(ns, ss)]
    if tol is not None:
        checks = [replace(c, tol=tol) for c in checks]
    return checks


def _cmd_verify(args) -> tuple[str, bool]:
    ns = None if args.n is None else _parse_range(args.n, 0, MAX_DEGREE, "--n")
    ss = None if args.s is None else _parse_range(args.s, -MAX_DEGREE,
                                                  MAX_DEGREE, "--s")
    if args.tol is not None and not math.isfinite(args.tol):
        raise _UsageError("--tol must be finite")
    checks = run_verification(ns, ss, args.only, args.tol)
    header = ["section", "name", "measured", "tolerance", "direction",
              "status"]
    rows = [{"section": c.section, "name": c.name, "measured": c.measured,
             "tolerance": c.tol, "direction": c.direction,
             "status": "pass" if c.passed else "FAIL"} for c in checks]
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
    wf.add_argument("--j", type=int, default=1, help="physical branch index")
    wf.add_argument("--grid-points", type=int, default=201)
    wf.add_argument("--r-max", type=float, default=10.0)
    _add_params(wf)
    _add_output(wf)

    vf = sub.add_parser("verify", help="run the verification suite")
    vf.add_argument("--n", default=None, help="restrict sweeps, int or a..b")
    vf.add_argument("--s", default=None, help="restrict sweeps, int or a..b")
    vf.add_argument("--only", choices=list(_CHECK_BUILDERS), default=None)
    vf.add_argument("--tol", type=float, default=None,
                    help="override every tolerance")
    _add_output(vf)

    ld = sub.add_parser("landau", help="center-of-mass Landau table")
    ld.add_argument("--n", default="0..3", help="N range, int or a..b")
    ld.add_argument("--s", default="-3..3", help="S range, int or a..b")
    _add_params(ld)
    _add_output(ld)
    return ap


_VALUE_FLAGS = {"--n", "--s", "--j", "--e1", "--e2", "--m1", "--m2", "--B",
                "--tol", "--r-max"}


def _join_negatives(argv: list[str]) -> list[str]:
    """Merge `--s -2..2` into `--s=-2..2` so argparse accepts the value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) \
                and argv[i + 1][:1] == "-" and len(argv[i + 1]) > 1 \
                and argv[i + 1][1].isdigit():
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_join_negatives(argv))
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
    except (IllConditionedError, NonNormalizableError) as exc:
        print(f"magpair: solver failure: {exc}", file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
