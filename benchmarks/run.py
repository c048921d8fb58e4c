#!/usr/bin/env python3
"""auctionmetrics benchmark: one workload, one run, every metric.

Run from the repository root:

    python3 benchmarks/run.py --workload probes --seed 1 --seconds 25 --trace 0

The run imports the package from ``src/`` of the checkout it sits in, sets up
its input files, then repeats passes of the workload until ``--seconds`` have
passed (at least one pass).  Each pass draws its inputs from ``--seed`` and
the pass index.  After the timed section every output is checked.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` each
pass runs twice on the same inputs, untraced and then traced, and the run
prints the per-layer metrics of the traced passes.  Every metric is printed by
name with its unit, and the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cell.p50_s": "s",
    "cell.p90_s": "s",
    "cells_per_s": "1/s",
    "err.gmean": "1",
    "err.max": "1",
    "ok_share": "1",
    "peak_rss_mb": "MB",
}

# name -> (unit, how it is derived from the traced passes)
PER_LAYER = {
    "io.csv_write.busy_s": ("s", "busy"), "io.csv_write.rows": ("count", "counter"),
    "io.csv_write.bytes": ("B", "counter"),
    "io.csv_read.busy_s": ("s", "busy"), "io.csv_read.rows": ("count", "counter"),
    "io.csv_read.bytes": ("B", "counter"),
    "io.bundle_write.busy_s": ("s", "busy"),
    "io.bundle_write.breakpoints": ("count", "counter"),
    "io.bundle_write.bytes": ("B", "counter"),
    "io.bundle_read.busy_s": ("s", "busy"),
    "io.bundle_read.breakpoints": ("count", "counter"),
    "fp_estimator.ghat.calls": ("count", "calls"),
    "fp_estimator.ghat.samples": ("count", "counter"),
    "fp_estimator.ghat.busy_s": ("s", "busy"),
    "fp_estimator.effective.self_s": ("s", "self"),
    "fp_estimator.partial.self_s": ("s", "self"),
    "fp_estimator.partial.oracle_draws": ("count", "counter"),
    "fp_estimator.partial.searches": ("count", "counter"),
    "fp_estimator.partial.levels": ("count", "counter"),
    "fp_value.inversion.self_s": ("s", "self"),
    "fp_value.inversion.value_points": ("count", "counter"),
    "sp_estimator.prep.busy_s": ("s", "busy"),
    "sp_estimator.grid.self_s": ("s", "self"),
    "sp_estimator.grid.macro_intervals": ("count", "counter"),
    "sp_estimator.grid.micro_points": ("count", "counter"),
    "sp_estimator.fixed_point.busy_s": ("s", "busy"),
    "sp_estimator.fixed_point.map_calls": ("count", "counter"),
    "sp_estimator.recover.busy_s": ("s", "busy"),
    "sp_estimator.partial.self_s": ("s", "self"),
    "sp_estimator.partial.oracle_draws": ("count", "counter"),
    "sp_estimator.partial.pointwise_calls": ("count", "counter"),
    "auction_sim.oracle.calls": ("count", "calls"),
    "auction_sim.oracle.bids": ("count", "counter"),
    "auction_sim.oracle.busy_s": ("s", "busy"),
    "auction_sim.simulate.busy_s": ("s", "busy"),
    "auction_sim.simulate.bids": ("count", "counter"),
    "auction_sim.equilibrium.busy_s": ("s", "busy"),
    "dist_core.ppf.linear.calls": ("count", "calls"),
    "dist_core.ppf.linear.points": ("count", "counter"),
    "dist_core.ppf.linear.busy_s": ("s", "busy"),
    "dist_core.ppf.density.calls": ("count", "calls"),
    "dist_core.ppf.density.points": ("count", "counter"),
    "dist_core.ppf.density.busy_s": ("s", "busy"),
    "dist_core.kolmogorov.busy_s": ("s", "busy"),
    "dist_core.wasserstein1.busy_s": ("s", "busy"),
    "dist_core.levy.busy_s": ("s", "busy"),
    "dist_core.levy.breakpoints": ("count", "counter"),
    "isotonic.pav.calls": ("count", "calls"),
    "isotonic.pav.points": ("count", "counter"),
    "isotonic.pav.busy_s": ("s", "busy"),
    "harness.cells": ("count", None),
    "harness.cell_failures": ("count", None),
    "harness.workers": ("count", None),
    "harness.cell.busy_s": ("s", "busy"),
    "harness.cell.wait_s": ("s", None),
    "harness.pool_utilisation": ("1", None),
    "cli.calls": ("count", "calls"),
    "cli.self_s": ("s", "self"),
    "pipeline.fp_s": ("s", "busy"),
    "pipeline.values_s": ("s", "busy"),
    "pipeline.sp_s": ("s", "busy"),
    "pipeline.fp-partial_s": ("s", "busy"),
    "pipeline.sp-partial_s": ("s", "busy"),
    "trace.spans": ("count", None),
    "trace.coverage": ("1", None),
    "trace.overhead_s": ("s", None),
}

# Layers that only logs-1e6 reaches.  BENCHMARK.json does not declare that
# workload, so these are printed on its by-hand runs only.
LOGS_ONLY = {
    "io.csv_write.busy_s", "io.csv_write.rows", "io.csv_write.bytes",
    "io.csv_read.busy_s", "io.csv_read.rows", "io.csv_read.bytes",
    "dist_core.wasserstein1.busy_s",
    "pipeline.fp_s", "pipeline.values_s", "pipeline.sp_s",
}


def per_layer_units(workload):
    return {name: unit for name, (unit, _) in PER_LAYER.items()
            if workload == "logs-1e6" or name not in LOGS_ONLY}


def load_package():
    """Import auctionmetrics from this checkout's src/, and nowhere else."""
    pkg = SRC / "auctionmetrics"
    if not (pkg / "__init__.py").is_file():
        raise wl.BenchmarkError(f"no package source at {pkg}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import auctionmetrics

    if Path(auctionmetrics.__file__).resolve().parent != pkg.resolve():
        raise wl.BenchmarkError(f"auctionmetrics imported from {auctionmetrics.__file__}")
    return auctionmetrics


def setup(name, directory):
    """Import the package and write the workload's model and truth files."""
    t0 = time.perf_counter()
    load_package()
    workload = wl.WORKLOADS[name]()
    workload.prepare(directory)
    return time.perf_counter() - t0, workload


def measure_setup(name, directory):
    """Median of SETUP_REPEATS set-ups: this process, then fresh interpreters."""
    seconds, workload = setup(name, directory)
    times = [seconds]
    for r in range(1, SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--dir", str(directory.parent / f"setup-{r}")],
            capture_output=True, text=True, timeout=120, check=False)
        if out.returncode != 0:
            raise wl.BenchmarkError(f"set-up in a fresh interpreter failed: {out.stderr}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times), workload


def pass_seed(seed, index):
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_passes(workload, directory, seed, seconds, trace):
    """Passes until ``seconds`` have gone by; in trace mode, untraced/traced twins."""
    from auctionmetrics import harness

    patches = spans.Patches()
    if isinstance(workload, wl.SweepWorkload):
        workload.probe.install(patches)
    plain, traced = [], []
    t_start = time.perf_counter()
    try:
        index = 0
        while True:
            s = pass_seed(seed, index)
            plain.append(workload.run_pass(directory, s, f"p{index}", spans.NoTrace()))
            if trace:
                tracer = spans.Tracer()
                inner = spans.Patches()
                spans.instrument(tracer, inner)
                try:
                    run = workload.run_pass(directory, s, f"p{index}t", tracer)
                finally:
                    inner.restore()
                run.tracer = tracer
                run.workers = harness._max_workers()
                traced.append(run)
            index += 1
            if time.perf_counter() - t_start >= seconds:
                break
    finally:
        patches.restore()
    return plain, traced


def quantile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def gmean(values):
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values) / len(values))


def end_to_end(plain, setup_s, peak_rss_mb):
    """Latency percentiles are taken over estimates, each the median of its
    times over the passes, so the sample set does not depend on the number of
    passes."""
    times = {}
    for run in plain:
        for key, seconds in run.cells().items():
            times.setdefault(key, []).append(seconds)
    cells = [statistics.median(v) for v in times.values()]
    errors = [e for run in plain for leg in run.legs for e in leg.errors]
    attempted = sum(leg.attempted for run in plain for leg in run.legs)
    failed = sum(leg.failures for run in plain for leg in run.legs)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(run.wall for run in plain),
        "cell.p50_s": quantile(cells, 50),
        "cell.p90_s": quantile(cells, 90),
        "cells_per_s": sum(map(len, times.values())) / sum(run.wall for run in plain),
        "err.gmean": gmean(errors),
        "err.max": max(errors),
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    return values, attempted, failed, cells


def per_layer(plain, traced):
    """Per-pass averages over the traced passes, and self time per span name.

    A busy/self/calls metric is named after its span plus one suffix; a
    pipeline metric is its span's name plus ``_s``.
    """
    n = len(traced)
    calls, busy, own, counters = {}, {}, {}, {}
    waits = sweep_capacity = 0.0
    coverage = []
    for run in traced:
        tr = run.tracer
        for name, (c, b, s) in spans.by_name(tr.spans).items():
            calls[name] = calls.get(name, 0) + c
            busy[name] = busy.get(name, 0.0) + b
            own[name] = own.get(name, 0.0) + s
        for name, v in tr.counters.items():
            counters[name] = counters.get(name, 0.0) + v
        sweeps = {s.id: s for s in tr.spans if s.name == "harness.sweep"}
        for s in tr.spans:
            if s.name == "harness.cell" and s.parent in sweeps:
                waits += s.start - sweeps[s.parent].start
        sweep_capacity += sum(s.duration for s in sweeps.values()) * run.workers
        top = [(s.start, s.end) for s in spans.roots(tr.spans)]
        coverage.append(spans.covered(top, run.start, run.end) / run.wall)

    out = {}
    for name, (unit, kind) in PER_LAYER.items():
        base = name[:-2] if name.startswith("pipeline.") else name.rsplit(".", 1)[0]
        if kind == "busy":
            out[name] = busy.get(base, 0.0) / n
        elif kind == "self":
            out[name] = own.get(base, 0.0) / n
        elif kind == "calls":
            out[name] = calls.get(base, 0) / n
        elif kind == "counter":
            out[name] = counters.get(name, 0.0) / n
    cell_failures = sum(leg.failures for run in traced for leg in run.legs
                        if leg.cell_seconds)
    out["harness.cells"] = calls.get("harness.cell", 0) / n
    out["harness.cell_failures"] = cell_failures / n
    out["harness.workers"] = traced[0].workers
    out["harness.cell.wait_s"] = waits / n
    out["harness.pool_utilisation"] = (busy.get("harness.cell", 0.0) / sweep_capacity
                                       if sweep_capacity else 0.0)
    out["trace.spans"] = sum(len(run.tracer.spans) for run in traced) / n
    out["trace.coverage"] = min(coverage)
    out["trace.overhead_s"] = statistics.median(
        t.wall - p.wall for p, t in zip(plain, traced))
    return out, {name: s / n for name, s in own.items()}


def check(workload, directory, plain, traced):
    """Check every pass; twin passes must write byte-identical outputs."""
    schemas = wl.load_schemas()
    problems = []
    for run in plain + traced:
        problems += workload.check_pass(directory, run, schemas)
    hashes = {run.tag: run.hashes() for run in plain + traced}
    for p, t in zip(plain, traced):
        twin = {name.replace(t.tag, p.tag, 1): h for name, h in hashes[t.tag].items()}
        if twin != hashes[p.tag]:
            problems.append(f"pass {p.tag}: traced twin wrote different outputs")
    return problems, hashes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        seconds, _ = setup(args.workload, Path(args.dir))
        print(repr(seconds))
        return 0

    base = WORK / args.workload
    shutil.rmtree(base, ignore_errors=True)
    directory = base / "run"
    threads = wl.available_cpus()
    os.environ["AUCTIONMETRICS_THREADS"] = str(threads)
    setup_s, workload = measure_setup(args.workload, directory)

    plain, traced = run_passes(workload, directory, args.seed, args.seconds, args.trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, hashes = check(workload, directory, plain, traced)
    (base / "hashes.json").write_text(json.dumps(hashes, indent=2, sort_keys=True))
    for path in directory.glob("p*"):
        path.unlink()
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    values, attempted, failed, cells = end_to_end(plain, setup_s, peak_rss_mb)
    beyond = sum(1 for c in cells if c > values["cell.p90_s"])
    units = END_TO_END
    if args.trace:
        values, self_s = per_layer(plain, traced)
        units = per_layer_units(args.workload)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)}  "
          f"threads {threads}  cells {len(cells)} ({beyond} beyond p90)  "
          f"estimates {attempted}  EstimationError {failed}")
    print(f"pass walls {' '.join(f'{run.wall:.4g}' for run in plain)} s")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:.6g} {unit}")
    if args.trace:
        print("  self time per pass, largest first:")
        for name, s in sorted(self_s.items(), key=lambda kv: -kv[1])[:8]:
            print(f"    {name:38s} {s:.4g} s")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # a fault in the program or the benchmark: no result line
        traceback.print_exc()
        sys.exit(2)
