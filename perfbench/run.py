#!/usr/bin/env python3
"""magpair benchmark: one client in a closed loop, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from a checkout of the repository; magpair is imported from its
``src/``.  The workloads are described in perfbench/README.md.

--trace 0 measures the end-to-end metrics with nothing wrapped; the
in-process workloads run their op stream in this process after untimed
warm-up ops (`verify` starts a fresh process per op).  Between ops the run
times a fixed reference kernel (perfbench/reference.py) and reports op
times at the reference host speed; it prints the unscaled ones too.
--trace 1 wraps every layer function (perfbench/spans.py), runs ops for
half the budget, replays the same ops unwrapped to measure the tracing
overhead, prints per-layer metrics and saves the spans under
perfbench/out/.
``--workload all`` runs every workload untraced, each in its own process,
and prints one table.  Every op's output is checked outside the timed
region; the process exits 1 if any op failed.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 5
WARMUP_S = 1.0
REF_EVERY_S = 0.5
MAX_STRETCH = 1.5
SETUP_CODE = (
    "import magpair.cli\n"
    "from magpair.qes import secular_spectrum\n"
    "from magpair.system import CaseTag\n"
    "print(secular_spectrum(0, 0, CaseTag.EQUAL_LARMOR)[0].kappa, flush=True)\n"
)
TAIL_BEYOND = 10
TAIL_MAX_PCT = 99.0

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("polyops.count_positive_roots.calls", "calls/op"),
    ("polyops.count_positive_roots.busy_s", "s/op"),
    ("polyops.count_positive_roots.refused", "calls/op"),
    ("polyops.count_positive_roots.share", "ratio"),
    ("polyops.evaluate.busy_s", "s/op"),
    ("qes.secular_spectrum.calls", "calls/op"),
    ("qes.secular_spectrum.busy_s", "s/op"),
    ("qes.eigenfunction.calls", "calls/op"),
    ("qes.eigenfunction.self_s", "s/op"),
    ("qes.eigenfunction.refused", "calls/op"),
    ("qes.eigh_tridiagonal.calls", "calls/op"),
    ("qes.eigh_tridiagonal.busy_s", "s/op"),
    ("qes.solves_per_sector", "ratio"),
    ("qes.sector_repeat_share", "ratio"),
    ("qes.field_quantization.busy_s", "s/op"),
    ("sl2rep.build_T_direct.calls", "calls/op"),
    ("sl2rep.build_T_direct.busy_s", "s/op"),
    ("catalog.compare_catalog_with_solver.calls", "calls/op"),
    ("catalog.compare_catalog_with_solver.self_s", "s/op"),
    ("catalog.closed_form_lambdas.busy_s", "s/op"),
    ("oracle.fd_kappa_spectrum.calls", "calls/op"),
    ("oracle.fd_kappa_spectrum.busy_s", "s/op"),
    ("oracle.unknowns_per_s", "1/s"),
    ("oracle.oracle_match.self_s", "s/op"),
    ("oracle.convergence_order.self_s", "s/op"),
    ("oracle.min_order", "order"),
    ("system.derive.busy_s", "s/op"),
    ("landau.busy_s", "s/op"),
    ("integrals.busy_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("cli.output_bytes", "B/op"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.ops", "count"),
)


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def bootstrap() -> types.SimpleNamespace:
    """Import magpair from this checkout's src/, or exit 2."""
    if not (SRC / "magpair" / "__init__.py").is_file():
        _fail(f"no magpair sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import magpair
    from magpair import cli, oracle, qes, system
    if Path(magpair.__file__).resolve().parent != SRC / "magpair":
        _fail(f"imported magpair from {magpair.__file__}, not {SRC}")
    return types.SimpleNamespace(cli=cli, oracle=oracle, qes=qes,
                                 system=system)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def environment() -> str:
    import numpy
    import scipy
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, nproc {os.cpu_count()}; "
            "no CPU pinning or machine tuning")


# --------------------------------------------------------------------- stats

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) at the highest percentile, at most
    TAIL_MAX_PCT, that leaves at least TAIL_BEYOND ops beyond it.

    The cap keeps a run of tens of thousands of short ops from reporting
    its few slowest ops, which measure host preemption rather than
    magpair.  A run with too few ops has no such percentile; it reports
    its slowest op as percentile 100 with 0 ops beyond.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    i = min(n - TAIL_BEYOND - 1, math.floor(n * TAIL_MAX_PCT / 100.0) - 1)
    return xs[i], 100.0 * (i + 1) / n, n - i - 1


def measure_setup(env: dict, loop: Loop, reps: int = SETUP_REPS) -> float:
    """Median seconds from spawning a fresh interpreter to its first result.

    Each probe follows a pass of the reference kernel, recorded in loop.
    """
    times = []
    for _ in range(reps):
        loop.gauge_host()
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            first = proc.stdout.readline()
            times.append(perf_counter() - t0)
            _, err = proc.communicate()
        if proc.returncode != 0 or first.strip() != b"0.0":
            _fail(f"set-up probe failed: {first!r} {err.decode()[-500:]}")
    return statistics.median(times)


# ----------------------------------------------------------------- workloads

class Runner:
    """Executes and checks the ops of one workload."""

    def __init__(self, workload: str, seed: int, mp, env: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.mp = mp
        self.env = env
        self.in_process = workload != "verify"
        self.verify_reference: bytes | None = None
        self.child_rss_kib = 0
        self.spans_files: list[str] = []

    def specs(self):
        return wl.GENERATORS[self.workload](self.seed)

    def run(self, spec, traced: bool = False):
        mp = self.mp
        if self.workload == "verify":
            path = None
            if traced:
                path = str(OUT / f"tmp-verify-{self.seed}-{len(self.spans_files)}.npz")
                self.spans_files.append(path)
            return wl.run_verify_process(str(ROOT), self.env, path)
        if self.workload == "spectrum_table":
            return wl.run_cli_inprocess(mp.cli, spec)
        if self.workload == "field_scan":
            return wl.run_field_scan(mp, spec)
        return wl.run_oracle(mp, spec)

    def check(self, spec, result) -> None:
        if self.workload == "verify":
            self.child_rss_kib = max(self.child_rss_kib, result.data[2])
            self.verify_reference = wl.check_verify(result,
                                                    self.verify_reference)
        elif self.workload == "spectrum_table":
            wl.check_cli(result, spec)
        elif self.workload == "field_scan":
            wl.check_field_scan(result)
        else:
            wl.check_oracle(result)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process that ran the ops: this one, or the
        largest `verify` child."""
        if self.in_process:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return self.child_rss_kib / 1024.0


class Loop:
    """Outcome of a closed loop: per-op latency, failures, and the times of
    the reference-kernel passes made between ops."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.busy_s = 0.0
        self.ref_s: list[float] = []
        self.ref_total = 0.0
        self.next_ref = 0.0
        self.output_bytes = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def gauge_host(self, passes: int = 1) -> None:
        """Time passes of the reference kernel after one untimed pass.

        The untimed pass absorbs the kernel's first-call set-up and the
        caches this process lost while it waited on a child process.
        """
        reference.seconds()
        for _ in range(passes):
            t = reference.seconds()
            self.ref_s.append(t)
            self.ref_total += t

    def host_factor(self) -> float:
        """reference.REF_S over the mean reference-kernel time so far.

        A time measured in this run, multiplied by it, is the time at the
        host speed where the kernel takes REF_S; see perfbench/reference.py.
        """
        return reference.REF_S * len(self.ref_s) / self.ref_total


def closed_loop(runner: Runner, specs, budget_s: float, loop: Loop,
                traced: bool = False, tracer=None) -> Loop:
    """One client: the next op starts when the previous one has finished.

    Ops run in whole strata of the generator and stop at the stratum
    boundary nearest to budget_s of summed op time at the reference host
    speed (at least one stratum).  The nearest boundary keeps a stratum that
    takes about as long as the budget from making the run length flip
    between one and two strata; the reference speed keeps the number of
    strata from following the host's drift.  A run also stops at a stratum
    boundary once its unscaled op time reaches MAX_STRETCH times budget_s,
    which bounds its wall time on a host much slower than the reference.
    The check of each op, and the passes of the reference kernel, one per
    REF_EVERY_S of op time, run between ops, outside the timed span.
    """
    stratum = wl.STRATUM.get(runner.workload, 1)
    for spec in specs:
        if tracer is not None:
            tracer.op_id = loop.attempted
        t0 = perf_counter()
        try:
            result = runner.run(spec, traced)
            err = None
        except Exception as exc:  # an op that raises is a failed op
            result, err = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
        loop.latencies.append(dt)
        loop.busy_s += dt
        if err is None:
            loop.output_bytes += result.output_bytes
            try:
                runner.check(spec, result)
            except wl.CheckFailed as exc:
                err = f"check failed: {exc}"
        if err is not None:
            loop.failed += 1
            if len(loop.errors) < 5:
                loop.errors.append(f"{spec}: {err}")
        if loop.busy_s >= loop.next_ref:
            # a timed pass per REF_EVERY_S of op time, so that a run of long
            # ops (verify) gauges the host as often as a run of short ones
            loop.gauge_host(1 + int((loop.busy_s - loop.next_ref) / REF_EVERY_S))
            loop.next_ref = loop.busy_s + REF_EVERY_S
        if loop.attempted % stratum == 0:
            busy = loop.busy_s * loop.host_factor()
            per_stratum = busy * stratum / loop.attempted
            if (busy + per_stratum / 2 >= budget_s
                    or loop.busy_s >= MAX_STRETCH * budget_s):
                break
    return loop


def warm_up(runner: Runner) -> None:
    """Untimed ops for WARMUP_S (at least one), so lazy imports inside
    numpy/scipy are done and the interpreter's caches are warm.  An op that
    raises here raises again, and counts, in the timed loop."""
    if not runner.in_process:
        return
    t_end = perf_counter() + WARMUP_S
    for spec in runner.specs():
        with contextlib.suppress(Exception):
            runner.run(spec)
        if perf_counter() >= t_end:
            break


# ------------------------------------------------------------------- metrics

def end_to_end(runner: Runner, loop: Loop, setup_s: float,
               factor: float) -> dict:
    """End-to-end metrics with the op times multiplied by factor.

    setup_s stays wall time: the fresh interpreters it times spend it on
    process start-up and imports, which the reference kernel does not
    track.
    """
    value, _, _ = tail(loop.latencies)
    ok = loop.attempted - loop.failed
    return {
        "setup_s": setup_s,
        "op_ms_p50": factor * 1e3 * statistics.median(loop.latencies),
        "op_ms_tail": factor * 1e3 * value,
        "ops_per_s": ok / (factor * loop.busy_s),
        "peak_rss_mb": runner.peak_rss_mb(),
    }


def layer_metrics(cols: dict, loop: Loop, untraced: Loop,
                  op_is_process: bool) -> dict:
    """Per-layer metrics from the spans of the traced ops.

    Counts and times are per traced op.  busy_s sums the spans of a name
    (or layer) that no span of the same name (layer) encloses; self_s
    subtracts the time child spans cover.
    """
    ops = loop.attempted
    names = [str(x) for x in cols["names"]]
    ids = {nm: i for i, nm in enumerate(names)}
    name, flags, parent = cols["name"], cols["flags"], cols["parent"]
    dur = cols["end"] - cols["start"]
    own = spans.self_times(cols)

    def sel(nm):
        return name == ids.get(nm, -1)

    def layer(lay):
        return np.isin(name, [i for i, nm in enumerate(names)
                              if nm.split(".", 1)[0] == lay])

    def calls(nm):
        return float(np.count_nonzero(sel(nm))) / ops

    def busy(nm):
        return float(dur[sel(nm) & ((flags & spans.OUTER_NAME) != 0)].sum()) / ops

    def self_s(nm):
        return float(own[sel(nm)].sum()) / ops

    def refused(nm):
        return float(np.count_nonzero(sel(nm) & ((flags & spans.RAISED) != 0))) / ops

    def layer_busy(lay):
        return float(dur[layer(lay) & ((flags & spans.OUTER_LAYER) != 0)].sum()) / ops

    solves = np.flatnonzero(sel("qes.eigh_tridiagonal"))
    sectors = cols["value"][parent[solves]]
    procs = cols["op"][solves] if op_is_process else np.zeros(len(solves))
    first: dict = {}
    repeats = 0
    for proc, op, key in zip(procs, cols["op"][solves], sectors):
        repeats += first.setdefault((proc, key), op) != op
    fd = sel("oracle.fd_kappa_spectrum") & ((flags & spans.OUTER_NAME) != 0)
    fd_busy = float(dur[fd].sum())
    orders = cols["value"][sel("oracle.convergence_order")
                           & ((flags & spans.RAISED) == 0)]
    orders = orders[np.isfinite(orders)]

    cpr = "polyops.count_positive_roots"
    return {
        f"{cpr}.calls": calls(cpr),
        f"{cpr}.busy_s": busy(cpr),
        f"{cpr}.refused": refused(cpr),
        f"{cpr}.share": busy(cpr) * ops / loop.busy_s,
        "polyops.evaluate.busy_s": busy("polyops.evaluate"),
        "qes.secular_spectrum.calls": calls("qes.secular_spectrum"),
        "qes.secular_spectrum.busy_s": busy("qes.secular_spectrum"),
        "qes.eigenfunction.calls": calls("qes.eigenfunction"),
        "qes.eigenfunction.self_s": self_s("qes.eigenfunction"),
        "qes.eigenfunction.refused": refused("qes.eigenfunction"),
        "qes.eigh_tridiagonal.calls": calls("qes.eigh_tridiagonal"),
        "qes.eigh_tridiagonal.busy_s": busy("qes.eigh_tridiagonal"),
        "qes.solves_per_sector":
            len(solves) / len(set(zip(procs, sectors))) if len(solves) else 0.0,
        "qes.sector_repeat_share": repeats / len(solves) if len(solves) else 0.0,
        "qes.field_quantization.busy_s": busy("qes.field_quantization"),
        "sl2rep.build_T_direct.calls": calls("sl2rep.build_T_direct"),
        "sl2rep.build_T_direct.busy_s": busy("sl2rep.build_T_direct"),
        "catalog.compare_catalog_with_solver.calls":
            calls("catalog.compare_catalog_with_solver"),
        "catalog.compare_catalog_with_solver.self_s":
            self_s("catalog.compare_catalog_with_solver"),
        "catalog.closed_form_lambdas.busy_s":
            busy("catalog.closed_form_lambdas"),
        "oracle.fd_kappa_spectrum.calls": calls("oracle.fd_kappa_spectrum"),
        "oracle.fd_kappa_spectrum.busy_s": busy("oracle.fd_kappa_spectrum"),
        "oracle.unknowns_per_s":
            float(cols["value"][fd].sum()) / fd_busy if fd_busy else 0.0,
        "oracle.oracle_match.self_s": self_s("oracle.oracle_match"),
        "oracle.convergence_order.self_s": self_s("oracle.convergence_order"),
        "oracle.min_order": float(orders.min()) if len(orders) else 0.0,
        "system.derive.busy_s": layer_busy("system"),
        "landau.busy_s": layer_busy("landau"),
        "integrals.busy_s": layer_busy("integrals"),
        "cli.self_s": float(own[layer("cli")].sum()) / ops,
        "cli.output_bytes": loop.output_bytes / ops,
        "trace.overhead_ratio": loop.busy_s / untraced.busy_s,
        "trace.ops": float(ops),
    }


# ---------------------------------------------------------------------- runs

def run_untraced(runner: Runner, seconds: float) -> tuple[Loop, dict]:
    loop = Loop()
    setup_s = measure_setup(runner.env, loop)
    warm_up(runner)
    closed_loop(runner, runner.specs(), seconds, loop)
    factor = loop.host_factor()
    raw = end_to_end(runner, loop, setup_s, 1.0)
    print(f"host: {len(loop.ref_s)} reference-kernel passes, mean "
          f"{1e3 * statistics.fmean(loop.ref_s):.4f} ms; op times below are "
          f"scaled by {factor:.4f}; unscaled: " + ", ".join(
              f"{k} {raw[k]:.6g}" for k in ("op_ms_p50", "op_ms_tail",
                                            "ops_per_s")))
    return loop, end_to_end(runner, loop, setup_s, factor)


def run_traced(runner: Runner, seconds: float) -> tuple[Loop, dict]:
    OUT.mkdir(exist_ok=True)
    warm_up(runner)
    loop = Loop()
    if runner.in_process:
        tracer = spans.Tracer()
        with tracer.installed():
            closed_loop(runner, runner.specs(), seconds / 2, loop,
                        tracer=tracer)
        cols = tracer.columns()
    else:
        closed_loop(runner, runner.specs(), seconds / 2, loop, traced=True)
        cols = spans.merge([spans.load(p) for p in runner.spans_files
                            if os.path.exists(p)])
        for p in runner.spans_files:
            os.remove(p)
    same_ops = itertools.islice(runner.specs(), loop.attempted)
    untraced = closed_loop(runner, same_ops, math.inf, Loop())
    spans.save(cols, OUT / f"spans-{runner.workload}-seed{runner.seed}.npz")
    metrics = layer_metrics(cols, loop, untraced, not runner.in_process)
    loop.failed += untraced.failed
    loop.errors += untraced.errors
    loop.latencies += untraced.latencies
    loop.busy_s += untraced.busy_s
    return loop, metrics


def report(workload: str, seed: int, loop: Loop, metrics: dict,
           units) -> dict:
    print(f"workload {workload}  seed {seed}  ops {loop.attempted}  "
          f"failed {loop.failed}  ops_failed_frac "
          f"{loop.failed / loop.attempted:.4g}")
    print(f"env: {environment()}")
    if units is END_TO_END:
        _, pct, beyond = tail(loop.latencies)
        print(f"  op_ms_tail is at p{pct:.2f} with "
              f"{beyond} of {loop.attempted} ops beyond; "
              f"setup_s is the median of {SETUP_REPS} fresh interpreters")
    out = {}
    for name, unit in units:
        print(f"  {name:44s} {metrics[name]:>14.6g} {unit}")
        out[name] = {"value": metrics[name], "unit": unit}
    for err in loop.errors:
        print(f"perfbench: failed op {err}", file=sys.stderr)
    return {"correct": loop.failed == 0, "attempted": loop.attempted,
            "failed": loop.failed, "metrics": out}


def run_all(seed: int, seconds: float) -> int:
    rows = []
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            res = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        rows.append((name, proc.returncode, res))
    head = ["workload", "ops", "failed_frac"] + [n for n, _ in END_TO_END]
    print("  ".join(f"{h:>18s}" for h in head))
    for name, _, res in rows:
        m = res["metrics"]
        cells = [name, str(res["attempted"]),
                 f"{res['failed'] / max(res['attempted'], 1):.4g}"]
        cells += [f"{m[n]['value']:.5g} {u}" if n in m else "-"
                  for n, u in END_TO_END]
        print("  ".join(f"{c:>18s}" for c in cells))
    ok = all(code == 0 and res["correct"] for _, code, res in rows)
    summary = {"correct": ok,
               "attempted": sum(r["attempted"] for _, _, r in rows),
               "failed": sum(r["failed"] for _, _, r in rows),
               "metrics": {f"{name}.{k}": v for name, _, r in rows
                           for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    mp = bootstrap()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in wl.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {wl.WORKLOADS}")
    runner = Runner(args.workload, args.seed, mp, child_env())
    if args.trace:
        loop, metrics = run_traced(runner, args.seconds)
        units = PER_LAYER
    else:
        loop, metrics = run_untraced(runner, args.seconds)
        units = END_TO_END
    result = report(args.workload, args.seed, loop, metrics, units)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
