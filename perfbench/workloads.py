"""Workload generators, op runners and per-op output checks.

Every workload is a deterministic stream of op specs drawn from
``random.Random(f"{workload}:{seed}")``; the program only ever sees the
values in a spec.  An op runner executes one spec and returns what the
check needs; the check runs outside the timed region and raises
``CheckFailed`` on any violation.  Checks compare against independent
witnesses (a direct recurrence on the documented operator T, the
documented identities) and call no magpair function, so they add no spans
to a traced run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("verify", "spectrum_table", "field_scan", "oracle_crosscheck")

SPECTRUM_N = range(13)        # n = 0..12
SPECTRUM_ABS_S = range(8)     # |s| = 0..7
SCAN_N = range(65)            # n = 0..MAX_DEGREE
SCAN_ABS_S = range(8)
ORACLE_N = range(7)
ORACLE_S = range(-4, 5)
#: 1001 points is left out: at n = 5, 6 its O(h^2) truncation error
#: (1.1e-4 .. 2.6e-4) exceeds the 1e-4 match tolerance at every |s|.
ORACLE_GRIDS = (2001, 3001, 12001)
ORACLE_TOL = 1e-4
FOUR_EPS = 4.0 * sys.float_info.epsilon
VERIFY_CHECKS = 28
#: Ops after which a generator has dealt its whole mix: 3 rounds of the 13
#: values of n give every n two `spectrum` and one `wavefunction` op; 63
#: ops visit every oracle sector once and every grid size 21 times.  Runs
#: end on a multiple, so short runs do not skew the mix.  `verify` runs in
#: pairs so that no run rests on a single process.
STRATUM = {"verify": 2, "spectrum_table": 39, "oracle_crosscheck": 63}


class CheckFailed(Exception):
    """An op's output violated its check."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _cycle(rng: random.Random, items):
    """Endless concatenation of fresh seeded permutations of items."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


# ------------------------------------------------------------------ generators

def spectrum_sectors(rng: random.Random):
    """(n, |s|) stream over the 104 sectors, each cycle a permutation.

    A cycle is 8 rounds and each round visits every n once (in random
    order) with an |s| chosen so that every (n, |s|) occurs once per cycle.
    Cost grows about 100x from n = 0 to n = 12, so a plain permutation
    would let a short run's cost depend on which n it happened to reach;
    rounds keep any window of ops close to the cycle's mean cost.
    """
    ns = list(SPECTRUM_N)
    while True:
        cols = {n: rng.sample(list(SPECTRUM_ABS_S), len(SPECTRUM_ABS_S))
                for n in ns}
        for r in range(len(SPECTRUM_ABS_S)):
            rng.shuffle(ns)
            for n in ns:
                yield n, cols[n][r]


def spectrum_table_ops(seed: int):
    """Two thirds `spectrum` on one sector, one third `wavefunction`.

    Kinds are dealt per n from shuffled (spectrum, spectrum, wavefunction)
    triples, so each n gets the 2:1 split however short the run; n = 0 has
    no physical branch and is always `spectrum`.
    """
    rng = random.Random(f"spectrum_table:{seed}")
    kinds = {n: _cycle(rng, ("spectrum", "spectrum", "wavefunction"))
             for n in SPECTRUM_N}
    for n, a in spectrum_sectors(rng):
        kind = "spectrum" if n == 0 else next(kinds[n])
        case = rng.choice(("ec0", "q0"))
        s = a if a == 0 or rng.random() < 0.5 else -a
        argv = [kind, "--case", case, "--n", str(n), "--s", str(s)]
        if kind == "wavefunction":
            argv += ["--j", str(rng.randint(1, (n + 1) // 2)),
                     "--grid-points", str(rng.randint(201, 2001))]
        yield argv


@dataclass(frozen=True)
class ScanOp:
    case: str           # "EqualLarmor" or "Neutral"
    e1: float
    e2: float
    m1: float
    m2: float
    B: float
    n: int
    s: int


def field_scan_ops(seed: int):
    """Seeded charge pairs: EqualLarmor m_i = e_i / r, or Neutral e2 = -e1."""
    rng = random.Random(f"field_scan:{seed}")
    u = lambda: rng.uniform(0.5, 2.0)  # noqa: E731
    while True:
        n = rng.choice(SCAN_N)
        a = rng.choice(SCAN_ABS_S)
        s = a if rng.random() < 0.5 else -a
        if rng.random() < 0.5:
            e1, e2, r = u(), u(), u()
            yield ScanOp("EqualLarmor", e1, e2, e1 / r, e2 / r, u(), n, s)
        else:
            e1 = u() if rng.random() < 0.5 else -u()
            yield ScanOp("Neutral", e1, -e1, u(), u(), u(), n, s)


def oracle_ops(seed: int):
    """(n, s, grid points): sectors and grid sizes each cycle permutations."""
    rng = random.Random(f"oracle_crosscheck:{seed}")
    sectors = _cycle(rng, [(n, s) for n in ORACLE_N for s in ORACLE_S])
    grids = _cycle(rng, ORACLE_GRIDS)
    while True:
        n, s = next(sectors)
        yield n, s, next(grids)


def verify_ops(seed: int):
    """`magpair verify` takes no input; every op is the same command."""
    while True:
        yield ["verify"]


GENERATORS = {
    "verify": verify_ops,
    "spectrum_table": spectrum_table_ops,
    "field_scan": field_scan_ops,
    "oracle_crosscheck": oracle_ops,
}


# ---------------------------------------------------------------- independent
# witnesses

def coupling_kappas(n: int, a: int) -> np.ndarray:
    """Eigenvalues kappa of T p = -kappa p from the documented action

        T rho^k = (k - n) rho^(k+1) - k (k + 2|s|) rho^(k-1),

    by a dense numpy solve (independent of magpair's symmetrized solve)."""
    t = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        if k + 1 <= n:
            t[k + 1, k] = k - n
        if k >= 1:
            t[k - 1, k] = -k * (k + 2 * a)
    return np.sort(-np.linalg.eigvals(t).real)


def eigen_coefficients(n: int, a: int, kappa: float) -> np.ndarray:
    """Monomial coefficients of the eigenpolynomial with c_0 = 1.

    Row k of T c = -kappa c gives the forward recurrence
    c_{k+1} = (kappa c_k + (k - 1 - n) c_{k-1}) / ((k + 1)(k + 1 + 2|s|)).
    """
    c = np.zeros(n + 1)
    c[0] = 1.0
    for k in range(n):
        prev = c[k - 1] if k >= 1 else 0.0
        c[k + 1] = (kappa * c[k] + (k - 1 - n) * prev) \
            / ((k + 1) * (k + 1 + 2 * a))
    return c


# ----------------------------------------------------------------------- ops

@dataclass
class OpResult:
    """What an op hands to its check, plus the bytes it printed."""

    data: object
    output_bytes: int = 0


def run_cli_inprocess(cli_module, argv) -> OpResult:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_module.main(argv)
    text = buf.getvalue()
    return OpResult((code, text), len(text.encode()))


def run_verify_process(root: str, env: dict, spans_path: str | None) -> OpResult:
    """One `magpair verify` in a fresh interpreter; stderr joins stdout.

    Returns (exit code, stdout bytes, peak RSS in KiB of that child).  With
    spans_path the child runs the traced entry point in spans.py, not the
    plain module entry point.
    """
    if spans_path is None:
        cmd = [sys.executable, "-m", "magpair.cli", "verify"]
    else:
        cmd = [sys.executable, os.path.join(root, "perfbench", "spans.py"),
               spans_path, "verify"]
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return OpResult((proc.returncode, out, usage.ru_maxrss), len(out))


def run_field_scan(mp, op: ScanOp) -> OpResult:
    system, qes = mp.system, mp.qes
    dp = system.derive(system.ChargePair(op.e1, op.e2, op.m1, op.m2, op.B))
    case = system.classify(dp)
    pts = qes.secular_spectrum(op.n, op.s, case, dp)
    fields = [(p, qes.field_quantization(p, dp)) for p in pts if p.physical]
    return OpResult((op, case.value, dp.B0, fields))


def run_oracle(mp, op) -> OpResult:
    oracle, qes = mp.oracle, mp.qes
    n, s, points = op
    fd = oracle.fd_kappa_spectrum(n, s, oracle.default_grid(n, s, points))
    pts = qes.secular_spectrum(n, s, mp.system.CaseTag.EQUAL_LARMOR)
    rep = oracle.oracle_match(pts, fd, tol=ORACLE_TOL)
    order = oracle.convergence_order(n, s)
    return OpResult((op, rep, order.min_order))


# -------------------------------------------------------------------- checks

def check_verify(result: OpResult, reference: bytes | None) -> bytes:
    """Exit 0, 28 rows all `pass`, and the run's first stdout byte for byte.

    Returns the bytes to compare later ops against.
    """
    code, out, _ = result.data
    _require(code == 0, f"verify exit code {code}")
    rows = list(csv.DictReader(io.StringIO(out.decode())))
    _require(len(rows) == VERIFY_CHECKS,
             f"verify printed {len(rows)} checks, not {VERIFY_CHECKS}")
    bad = [r["name"] for r in rows if r["status"] != "pass"]
    _require(not bad, f"verify checks failed: {bad}")
    _require(reference is None or out == reference,
             "verify stdout differs from the run's first op")
    return out


def _physical(case: str, kappa: float) -> bool:
    return kappa > 0.0 if case == "ec0" else kappa < 0.0


def check_spectrum(argv, n: int, s: int, text: str) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    _require(len(rows) == n + 1, f"{len(rows)} rows for n = {n}")
    case = argv[argv.index("--case") + 1]
    kappa = np.sort([float(r["kappa"]) for r in rows])
    _require(bool(np.all(kappa + kappa[::-1] == 0.0)),
             "kappa multiset is not mirror symmetric")
    want = coupling_kappas(n, abs(s))
    _require(bool(np.allclose(kappa, want, rtol=1e-9, atol=1e-9)),
             "kappa differs from the dense solve of T")
    nodes = {}
    for r in rows:
        _require(r["nodes"] != "", f"no node count for kappa = {r['kappa']}")
        lam = float(r["lambda"])
        if n <= 8 and lam != 0.0:
            _require(r["lambda_closed_form"] != "",
                     f"lambda = {lam} has no closed-form partner")
            cf = float(r["lambda_closed_form"])
            _require(abs(lam - cf) <= 1e-6 * max(1.0, abs(cf)),
                     f"lambda = {lam} vs closed form {cf}")
        _require((r["physical"] == "true") == _physical(case, float(r["kappa"])),
                 f"kappa = {r['kappa']} has the wrong physical flag for {case}")
        nodes[float(r["kappa"])] = int(r["nodes"])
    # The kappa > 0 branches (physical for ec0) carry the node ladder; the
    # kappa < 0 branches (physical for q0) are their parity flips p(-rho),
    # so with all n roots real each mirror pair's counts add up to n.
    up = sorted(nodes[k] for k in nodes if k > 0.0)
    _require(up == list(range((n - 1) // 2 + 1)) if n >= 1 else not up,
             f"kappa > 0 node counts {up}")
    bad = [k for k in nodes if k > 0.0 and nodes[k] + nodes[-k] != n]
    _require(not bad, f"mirror node counts do not add up to n at {bad}")


def check_wavefunction(argv, n: int, s: int, text: str) -> None:
    """zeta = rho^|s| exp(-rho^2/4) p(rho), p(0) = 1, for branch j."""
    lines = text.splitlines()
    meta = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
    table = np.array([[float(x) for x in ln.split(",")]
                      for ln in lines[len(meta) + 1:]])
    points = int(argv[argv.index("--grid-points") + 1])
    j = int(argv[argv.index("--j") + 1])
    case = argv[argv.index("--case") + 1]
    _require(table.shape == (points, 2), f"table shape {table.shape}")
    rho, zeta = table[:, 0], table[:, 1]
    _require(bool(np.allclose(rho, np.linspace(0.0, 10.0, points),
                              rtol=0, atol=1e-13)), "rho grid")
    a = abs(s)
    phys = [k for k in coupling_kappas(n, a) if _physical(case, k)]
    kappa = sorted(phys, key=lambda k: -k * k)[j - 1]
    lam = float(meta["lambda"])
    _require(abs(lam - kappa * kappa) <= 1e-9 * kappa * kappa,
             f"lambda = {lam} is not branch j = {j}")
    c = eigen_coefficients(n, a, kappa)
    gauss = np.power(rho, a) * np.exp(-0.25 * rho * rho)
    want = gauss * np.polynomial.polynomial.polyval(rho, c)
    # p(rho) cancels heavily where its coefficients alternate in sign, so
    # the error scale is the profile built from |c_k|, not |zeta| itself
    scale = gauss * np.polynomial.polynomial.polyval(rho, np.abs(c))
    _require(bool(np.all(np.abs(zeta - want) <= 1e-10 * np.max(scale))),
             "zeta differs from rho^|s| exp(-rho^2/4) p(rho)")


def check_cli(result: OpResult, argv) -> None:
    code, text = result.data
    _require(code == 0, f"exit code {code} for {argv}")
    n = int(argv[argv.index("--n") + 1])
    s = int(argv[argv.index("--s") + 1])
    if argv[0] == "spectrum":
        check_spectrum(argv, n, s, text)
    else:
        check_wavefunction(argv, n, s, text)


def check_field_scan(result: OpResult) -> None:
    op, case, B0, fields = result.data
    _require(case == op.case, f"pair classified {case}, drawn as {op.case}")
    _require(len(fields) == (op.n + 1) // 2,
             f"{len(fields)} physical branches at n = {op.n}")
    # plain comparisons: this runs on every branch of ~10^5 ops per run
    for p, (b, B) in fields:
        if abs(b * p.lam - 1.0) > FOUR_EPS:
            raise CheckFailed(f"b * lambda = {b * p.lam}")
        if B != b * B0:
            raise CheckFailed(f"B = {B} is not b * B0")


def check_oracle(result: OpResult) -> None:
    (n, s, _), rep, _ = result.data
    _require(len(rep.rows) == (n + 1) // 2, f"{len(rep.rows)} matched rows")
    _require(rep.max_abs_err <= ORACLE_TOL,
             f"kappa error {rep.max_abs_err:.3e} vs finite differences")
    _require(rep.nodes_all_match, "node counts disagree with the oracle")
