"""Tests of the benchmark itself: span arithmetic, coverage, determinism.

They run small versions of the workloads (a few thousand rows, a few sweep
cells), so they take seconds.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import run
import spans
import workloads as wl

run.load_package()

HERE = Path(__file__).resolve().parent


def span(id, name, start, end, parent=None):
    return spans.Span(id, name, start, end, parent=parent)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        span(1, "a", 0.0, 10.0),
        span(2, "b", 1.0, 4.0, parent=1),
        span(3, "c", 3.0, 6.0, parent=1),    # overlaps b, as pool threads do
        span(4, "d", 8.0, 12.0, parent=1),   # runs past its parent: clipped
        span(5, "e", 2.0, 3.0, parent=2),
        span(6, "b", 20.0, 21.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0, 6: 1.0})
    assert spans.by_name(tree)["b"] == pytest.approx((2, 4.0, 3.0))
    assert [s.id for s in spans.roots(tree)] == [1, 6]
    assert spans.covered([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == pytest.approx(3.0)


def test_each_thread_has_its_own_parent_stack():
    tracer = spans.Tracer()
    with tracer.span("sweep", op="x") as sweep:
        tracer.adopt = sweep

        def work():
            with tracer.span("cell"):
                with tracer.span("inner"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        tracer.adopt = None
    by_id = {s.id: s for s in tracer.spans}
    cells = [s for s in tracer.spans if s.name == "cell"]
    assert len(cells) == 3 and all(c.parent == sweep.id and c.op == "x" for c in cells)
    for s in tracer.spans:
        if s.name == "inner":
            assert by_id[s.parent].name == "cell"


def small_logs():
    return wl.logs_workload(n=4000)


def small_sweep():
    return wl.SweepWorkload(n_schedule=(500, 2000), seeds=2, equilibrium=False)


def one_pass(workload, directory, seed, trace=False):
    directory.mkdir(parents=True, exist_ok=True)
    workload.prepare(directory)
    plain, traced = run.run_passes(workload, directory, seed, 0.0, trace)
    problems, hashes = run.check(workload, directory, plain, traced)
    assert problems == []
    return plain, traced, hashes


def test_traced_pass_covers_wall_and_restores_the_package(tmp_path):
    from auctionmetrics import cli, dist_core, harness, io

    before = (cli.simulate_fp, io.io_write_cdfs, harness._run_cell,
              dist_core.PiecewiseCdf.ppf)
    plain, traced, _ = one_pass(small_logs(), tmp_path, seed=5, trace=True)
    assert before == (cli.simulate_fp, io.io_write_cdfs, harness._run_cell,
                      dist_core.PiecewiseCdf.ppf)
    t = traced[0]
    top = spans.roots(t.tracer.spans)
    assert sorted(s.name for s in top) == ["pipeline.fp", "pipeline.sp", "pipeline.values"]
    assert spans.covered([(s.start, s.end) for s in top], t.start, t.end) >= 0.99 * t.wall
    layers, _ = run.per_layer(plain, traced)
    assert set(layers) == set(run.PER_LAYER)
    assert layers["io.csv_write.rows"] == 8000
    assert layers["trace.coverage"] >= 0.99
    assert layers["cli.calls"] >= 7


def test_sweep_cells_are_children_of_their_sweep(tmp_path):
    plain, traced, _ = one_pass(small_sweep(), tmp_path, seed=2, trace=True)
    t = traced[0].tracer
    sweeps = {s.id for s in t.spans if s.name == "harness.sweep"}
    cells = [s for s in t.spans if s.name == "harness.cell"]
    assert len(cells) == 4 * 4 and all(c.parent in sweeps for c in cells)
    layers, _ = run.per_layer(plain, traced)
    assert layers["harness.cells"] == 16
    assert 0.0 < layers["harness.pool_utilisation"] <= 1.0 + 1e-9


def test_same_seed_gives_same_output_hashes(tmp_path):
    _, _, a = one_pass(small_logs(), tmp_path / "a", seed=11)
    _, _, b = one_pass(small_logs(), tmp_path / "b", seed=11)
    _, _, c = one_pass(small_logs(), tmp_path / "c", seed=12)
    assert a == b
    assert a["p0"]["p0-fp.csv"] != c["p0"]["p0-fp.csv"]


def test_sweep_report_is_identical_with_one_and_two_workers(tmp_path, monkeypatch):
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("AUCTIONMETRICS_THREADS", threads)
        plain, _, hashes = one_pass(small_sweep(), tmp_path / threads, seed=3)
        reports.append((hashes["p0"], [plain[0].outputs[k] for k in sorted(plain[0].outputs)]))
    assert reports[0] == reports[1]


def test_estimation_errors_count_and_other_faults_fail_the_run(tmp_path, monkeypatch):
    from auctionmetrics import harness
    from auctionmetrics.errors import EstimationError

    real = harness._run_cell
    raised = {}

    def flaky(config, n, seed_index):
        try:
            if seed_index == 1:
                raise EstimationError("injected")
            return real(config, n, seed_index)
        except EstimationError:
            raised[config.estimator] = raised.get(config.estimator, 0) + 1
            raise

    monkeypatch.setattr(harness, "_run_cell", flaky)
    workload = small_sweep()
    workload.prepare(tmp_path)
    plain, _ = run.run_passes(workload, tmp_path, 0, 0.0, False)
    assert {leg.name: leg.failures for leg in plain[0].legs} == raised
    assert all(count >= 2 for count in raised.values())   # one per n at least
    assert run.check(workload, tmp_path, plain, [])[0] == []
    _, attempted, failed, _ = run.end_to_end(plain, 0.1, 1.0)
    assert (attempted, failed) == (4 * 4, sum(raised.values()))

    def broken(config, n, seed_index):
        raise KeyError("missing estimator argument")

    monkeypatch.setattr(harness, "_run_cell", broken)
    with pytest.raises(wl.BenchmarkError, match="KeyError"):
        run.run_passes(workload, tmp_path, 0, 0.0, False)


def test_bundle_check_reads_every_item():
    schema = wl.load_schemas()["cdf_bundle"]
    good = {"version": 1, "cdfs": [{"interpolation": "step", "is_full_cdf": True,
                                    "breakpoints": [i / 100 for i in range(100)],
                                    "values": [i / 100 for i in range(100)]}]}
    wl.validate_bundle(good, schema)
    bad = json.loads(json.dumps(good))
    bad["cdfs"][0]["values"][90] = "0.9"
    with pytest.raises(wl.BenchmarkError):
        wl.validate_bundle(bad, schema)
    bad = json.loads(json.dumps(good))
    bad["cdfs"][0]["interpolation"] = "cubic"
    with pytest.raises(wl.BenchmarkError):
        wl.validate_bundle(bad, schema)


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units("probes")
    assert set(run.per_layer_units("logs-1e6")) == set(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "probes", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
