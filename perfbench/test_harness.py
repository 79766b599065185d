"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

import run
import spans
import workloads as wl

MP = run.bootstrap()


def test_tail_leaves_ten_ops_beyond():
    lat = [float(x) for x in range(1, 101)]
    value, pct, beyond = run.tail(lat[::-1])
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert sum(x > value for x in lat) == 10
    value, pct, _ = run.tail(lat[:11])
    assert (value, pct) == (1.0, 100.0 / 11)


def test_tail_stops_at_p99_on_long_runs():
    lat = [float(x) for x in range(1, 5001)]
    assert run.tail(lat) == (4950.0, 99.0, 50)


def test_tail_of_a_short_run_is_its_slowest_op():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail([float(x) for x in range(10)]) == (9.0, 100.0, 0)


def _cols(rows):
    """Span columns from (start, end, parent) rows."""
    start, end, parent = (np.array(c, dtype=float) for c in zip(*rows))
    return {"start": start, "end": end, "parent": parent.astype(np.int32)}


def test_self_time_subtracts_direct_children_only():
    cols = _cols([(0, 10, -1),   # A
                  (1, 4, 0),     # B in A
                  (5, 7, 0),     # C in A
                  (2, 3, 1)])    # D in B
    assert spans.self_times(cols).tolist() == [5.0, 2.0, 2.0, 1.0]


def test_wrapped_calls_record_nesting_ops_and_failures():
    tr = spans.Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    leaf_t = tr.wrap(leaf, "polyops.leaf")

    def outer(k):
        return outer_t(k - 1) if k else leaf_t(k)

    outer_t = tr.wrap(outer, "qes.outer")
    tr.op_id = 7
    outer_t(2)
    tr.op_id = 8
    with pytest.raises(ValueError):
        leaf_t(-1)
    cols = tr.columns()
    names = [tr.names[i] for i in cols["name"]]
    assert names == ["qes.outer"] * 3 + ["polyops.leaf"] * 2
    assert cols["parent"].tolist() == [-1, 0, 1, 2, -1]
    assert cols["op"].tolist() == [7, 7, 7, 7, 8]
    outer_name = (cols["flags"] & spans.OUTER_NAME) != 0
    assert outer_name.tolist() == [True, False, False, True, True]
    raised = (cols["flags"] & spans.RAISED) != 0
    assert raised.tolist() == [False] * 4 + [True]
    assert np.all(spans.self_times(cols) >= 0.0)


def test_install_wraps_every_import_site_and_uninstall_restores():
    from magpair import catalog, cli, oracle, polyops, qes
    before = (qes.count_positive_roots, cli.eigenfunction,
              catalog.eigenfunction, oracle.eigenfunction,
              qes.build_T_direct, qes.eigh_tridiagonal,
              oracle.eigh_tridiagonal, polyops.count_positive_roots)
    tr = spans.Tracer()
    with tr.installed():
        during = (qes.count_positive_roots, cli.eigenfunction,
                  catalog.eigenfunction, oracle.eigenfunction,
                  qes.build_T_direct, qes.eigh_tridiagonal,
                  oracle.eigh_tridiagonal, polyops.count_positive_roots)
        assert all(d.__wrapped__ is b for d, b in zip(during, before))
        assert not hasattr(qes._symmetrized, "__wrapped__")
    after = (qes.count_positive_roots, cli.eigenfunction,
             catalog.eigenfunction, oracle.eigenfunction,
             qes.build_T_direct, qes.eigh_tridiagonal,
             oracle.eigh_tridiagonal, polyops.count_positive_roots)
    assert all(a is b for a, b in zip(after, before))
    assert "qes.eigh_tridiagonal" in tr.names
    assert "sl2rep.build_T_direct" in tr.names


def test_merge_offsets_parents_and_numbers_processes():
    a, b = spans.Tracer(), spans.Tracer()
    f = a.wrap(lambda: a.wrap(lambda: 0, "qes.inner")(), "cli.main")
    f()
    b.wrap(lambda: 0, "qes.inner")()
    cols = spans.merge([a.columns(), b.columns()])
    names = [str(cols["names"][i]) for i in cols["name"]]
    assert names == ["cli.main", "qes.inner", "qes.inner"]
    assert cols["parent"].tolist() == [-1, 0, -1]
    assert cols["op"].tolist() == [0, 0, 1]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_ops(workload):
    gen = wl.GENERATORS[workload]
    first = list(itertools.islice(gen(3), 300))
    assert first == list(itertools.islice(gen(3), 300))
    if workload != "verify":
        assert first != list(itertools.islice(gen(4), 300))


def test_spectrum_table_uses_all_104_sectors_before_repeating():
    ops = list(itertools.islice(wl.spectrum_table_ops(5), 3 * 104))
    for c in range(3):
        cycle = ops[104 * c:104 * (c + 1)]
        sectors = {(int(o[o.index("--n") + 1]), abs(int(o[o.index("--s") + 1])))
                   for o in cycle}
        assert len(sectors) == 104
    kinds = [o[0] for o in ops]
    assert abs(kinds.count("wavefunction") / len(ops) - 1 / 3) < 0.05


def test_witnesses_agree_with_the_solver():
    from magpair.system import CaseTag
    for n, s in ((1, 0), (6, 3), (12, 7)):
        pts = MP.qes.secular_spectrum(n, s, CaseTag.EQUAL_LARMOR)
        kap = np.sort([p.kappa for p in pts])
        assert np.allclose(kap, wl.coupling_kappas(n, s), rtol=1e-10, atol=1e-10)
        top = max(pts, key=lambda p: p.kappa)
        c = MP.qes.eigenfunction(n, s, top).polynomial.coeffs
        assert np.allclose(c, wl.eigen_coefficients(n, s, top.kappa), rtol=1e-9)


def _cli(argv):
    return wl.run_cli_inprocess(MP.cli, argv)


def test_checks_accept_real_output_and_reject_tampered_output():
    argv = ["spectrum", "--case", "q0", "--n", "5", "--s", "-2"]
    res = _cli(argv)
    wl.check_cli(res, argv)
    code, text = res.data
    lines = text.splitlines()
    row = lines[1].split(",")
    row[7] = str(int(row[7]) + 1)           # nodes column
    bad = "\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n"
    with pytest.raises(wl.CheckFailed):
        wl.check_cli(wl.OpResult((code, bad)), argv)

    argv = ["wavefunction", "--case", "ec0", "--n", "7", "--s", "3",
            "--j", "2", "--grid-points", "301"]
    res = _cli(argv)
    wl.check_cli(res, argv)
    text = res.data[1]
    with pytest.raises(wl.CheckFailed):      # output of branch 2, asked for 1
        wl.check_cli(res, argv[:8] + ["1"] + argv[9:])
    last = text.rstrip("\n").rsplit("\n", 1)
    rho, zeta = last[1].split(",")
    bad = f"{last[0]}\n{rho},{float(zeta) + 1e-6}\n"
    with pytest.raises(wl.CheckFailed):
        wl.check_cli(wl.OpResult((0, bad)), argv)


def test_field_scan_and_oracle_ops_pass_their_checks():
    for op in itertools.islice(wl.field_scan_ops(1), 50):
        wl.check_field_scan(wl.run_field_scan(MP, op))
    for op in itertools.islice(wl.oracle_ops(1), 3):
        wl.check_oracle(wl.run_oracle(MP, op))


def test_field_scan_check_rejects_a_field_off_by_one_ulp():
    op = next(o for o in wl.field_scan_ops(1) if o.n >= 3)
    res = wl.run_field_scan(MP, op)
    o, case, B0, fields = res.data
    p, (b, B) = fields[0]
    for bad in ((p, (b * (1 + 8 * wl.FOUR_EPS), B)),
                (p, (b, np.nextafter(B, np.inf)))):
        with pytest.raises(wl.CheckFailed):
            wl.check_field_scan(wl.OpResult((o, case, B0, [bad] + fields[1:])))


def test_field_scan_never_counts_roots():
    tr = spans.Tracer()
    with tr.installed():
        for k, op in enumerate(itertools.islice(wl.field_scan_ops(2), 40)):
            tr.op_id = k
            wl.run_field_scan(MP, op)
    names = [tr.names[i] for i in tr.columns()["name"]]
    assert names.count("qes.secular_spectrum") == 40
    assert "polyops.count_positive_roots" not in names


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_sector_counts_split_repeats_within_and_across_ops():
    tr = spans.Tracer()
    solve = tr.wrap(lambda: None, "qes.eigh_tridiagonal")
    sector = tr.wrap(lambda n, s: solve(), "qes.secular_spectrum")
    for op, calls in enumerate([[(3, 1), (3, -1)], [(3, 1), (4, 0)]]):
        tr.op_id = op
        for n, s in calls:
            sector(n, s)
    loop = run.Loop()
    loop.latencies, loop.busy_s = [1.0, 1.0], 2.0
    m = run.layer_metrics(tr.columns(), loop, loop, op_is_process=False)
    assert m["qes.solves_per_sector"] == 2.0      # 4 solves, 2 sectors
    assert m["qes.sector_repeat_share"] == 0.25   # (3, 1) again in op 1
    assert m["qes.secular_spectrum.calls"] == 2.0
    m = run.layer_metrics(tr.columns(), loop, loop, op_is_process=True)
    assert m["qes.sector_repeat_share"] == 0.0


def test_untraced_ops_run_and_are_checked_in_this_process(monkeypatch):
    monkeypatch.setattr(run, "WARMUP_S", 0.0)
    runner = run.Runner("field_scan", 3, MP, run.child_env())
    run.warm_up(runner)
    loop = run.closed_loop(runner, runner.specs(), 0.0, run.Loop())
    assert (loop.attempted, loop.failed) == (1, 0)
    assert loop.busy_s == sum(loop.latencies) > 0.0
    assert runner.peak_rss_mb() > 0.0


class _ClockRunner:
    """Runner stand-in whose ops take a fixed time on a fake clock."""

    def __init__(self, workload, cost):
        self.workload, self.cost, self.now = workload, cost, 0.0

    def clock(self):
        return self.now

    def run(self, spec, traced=False):
        self.now += self.cost
        return wl.OpResult(None)

    def check(self, spec, result):
        pass


@pytest.mark.parametrize("workload, cost, budget, slowdown, ops", [
    ("field_scan", 1.0, 10.0, 1.0, 10),      # stratum 1: stops at the budget
    ("field_scan", 1.0, 10.0, 1.25, 12),     # 0.8 s each at reference speed
    ("field_scan", 1.0, 10.0, 2.0, 15),      # twice as slow: capped at 1.5x
    ("verify", 12.5, 20.0, 1.0, 2),          # one pair, though 25 s > 20 s
    ("verify", 12.5, 40.0, 1.0, 4),          # two pairs end nearer 40 than three
    ("spectrum_table", 5.5 / 39, 5.0, 1.0, 39),
    ("spectrum_table", 4.0 / 39, 9.0, 1.0, 78),
])
def test_loop_stops_at_the_stratum_boundary_nearest_the_budget(
        monkeypatch, workload, cost, budget, slowdown, ops):
    fake = _ClockRunner(workload, cost)
    monkeypatch.setattr(run, "perf_counter", fake.clock)
    monkeypatch.setattr(run.reference, "seconds",
                        lambda: slowdown * run.reference.REF_S)
    loop = run.closed_loop(fake, itertools.repeat(None), budget, run.Loop())
    assert loop.attempted == ops
    assert loop.host_factor() == pytest.approx(1.0 / slowdown)

