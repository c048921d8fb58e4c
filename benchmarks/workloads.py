"""The benchmark's models, workloads and output checks.

A workload is a closed loop: one client issues the next call only after the
previous one returned.  Each pass of a workload runs its legs in order; a leg
is one estimate, from the simulated log or the probe oracle to the score
(``logs-1e6`` and ``probes``), or one sweep family (``sweep-small``).  The
program is driven from outside only: ``cli.main(argv)`` in-process for the CLI
pipelines and ``harness.run_convergence`` for the sweep.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path


class BenchmarkError(Exception):
    """Malformed output or an unexpected failure: the run must exit non-zero."""


def models():
    """The benchmark's auction models, all taken from the acceptance tests."""
    from auctionmetrics.auction_sim import AuctionModel
    from auctionmetrics.dist_core import BoundedDensityModel, PiecewiseCdf, uniform_cdf

    uniform = uniform_cdf()
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation="linear")
    uni_v = BoundedDensityModel(knots=[0.0, 1.0], density=[1.0, 1.0],
                                alpha_lo=1.0, eta_hi=1.0)
    tilted = BoundedDensityModel(knots=[0.0, 1.0], density=[0.6, 1.4],
                                 alpha_lo=0.5, eta_hi=2.0)
    d1 = BoundedDensityModel(knots=[0.0, 1.0], density=[0.75, 1.25],
                             alpha_lo=0.5, eta_hi=2.0)
    d2 = BoundedDensityModel(knots=[0.0, 1.0], density=[1.25, 0.75],
                             alpha_lo=0.5, eta_hi=2.0)
    c1, c2 = d1.to_cdf(), d2.to_cdf()
    return {
        # bids linear U[0, 1/2], values uniform: equilibrium of test_05
        "half2": AuctionModel(bid_dists=[half, half], value_dists=[uni_v, uni_v]),
        # linear-density pair of test_07/test_09, as 4097-knot CDFs
        "bounded2": AuctionModel(bid_dists=[c1, c2]),
        "bounded3": AuctionModel(bid_dists=[c1, c2, c1]),
        # the same k=3 model with the density models used directly
        "bounded3-density": AuctionModel(bid_dists=[d1, d2, d1]),
        # ROADMAP baseline case of the first-price probe estimator
        "uniform2": AuctionModel(bid_dists=[uniform, uniform]),
        # the tilted k=2 model of test_06, for the equilibrium solver
        "tilted2": AuctionModel(bid_dists=[uniform, uniform], value_dists=[uni_v, tilted]),
    }


def value_truths(model):
    return [d.to_cdf() for d in model.value_dists]


def bid_truths(model):
    return [model.bid_cdf(i) for i in range(1, model.k + 1)]


def sha256(data):
    if isinstance(data, Path):
        h = hashlib.sha256()
        with open(data, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        return h.hexdigest()
    return hashlib.sha256(data.encode()).hexdigest()


# -- pass records -------------------------------------------------------------


@dataclass(eq=False)
class LegRun:
    """One leg of one pass: its time and what it wrote."""

    name: str
    seconds: float = 0.0
    bundle: Path | None = None
    metric_out: dict = field(default_factory=dict)   # kind -> CLI stdout
    cell_seconds: dict = field(default_factory=dict)  # sweep cells only: key -> s
    errors: list = field(default_factory=list)        # filled by the checks
    attempted: int = 1
    failures: int = 0             # calls that raised EstimationError
    k: int = 0                                        # sweep families only


@dataclass(eq=False)
class PassRun:
    tag: str
    seed: int
    start: float = 0.0
    end: float = 0.0
    legs: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # name -> Path or text
    profile: tuple | None = None                 # (model, equilibrium profile)
    tracer: object = None                        # traced passes only
    workers: int = 0

    @property
    def wall(self):
        return self.end - self.start

    def cells(self):
        """Estimate latency by estimate: a leg, or a (family, n, seed) sweep cell."""
        out = {}
        for leg in self.legs:
            out.update(leg.cell_seconds or {leg.name: leg.seconds})
        return out

    def hashes(self):
        return {name: sha256(v) for name, v in sorted(self.outputs.items())}


# -- CLI workloads ------------------------------------------------------------


@dataclass(frozen=True)
class Leg:
    name: str
    bundle: str
    truth: str
    metrics: tuple
    steps: object     # (out, seed) -> list of argv lists
    window: object    # bundle diagnostics -> (lo, hi)


def _p_window(p):
    return lambda diag: (p, 1.0)


def _theta_window(diag):
    theta = float(diag["params"]["theta"])
    return theta, 1.0 - theta


class CliWorkload:
    """Legs of CLI calls; each leg writes one bundle and scores it."""

    def __init__(self, name, legs, setup_models, setup_truths):
        self.name = name
        self.legs = legs
        self.setup_models = setup_models    # file -> model name
        self.setup_truths = setup_truths    # file -> (model name, "bid"|"value")

    def prepare(self, directory):
        from auctionmetrics import io

        ms = models()
        directory.mkdir(parents=True, exist_ok=True)
        for fname, mname in self.setup_models.items():
            io.io_write_model(directory / fname, ms[mname])
        for fname, (mname, kind) in self.setup_truths.items():
            truths = value_truths(ms[mname]) if kind == "value" else bid_truths(ms[mname])
            io.io_write_cdfs(directory / fname, truths)

    def run_pass(self, directory, seed, tag, tracer):
        from auctionmetrics import cli

        run = PassRun(tag=tag, seed=seed)

        def out(fname):
            return str(directory / f"{tag}-{fname}")

        def call(argv):
            stdout, stderr = StringIO(), StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr), tracer.span("cli"):
                rc = cli.main(argv)
            if rc == 3:
                return None
            if rc != 0:
                raise BenchmarkError(f"{' '.join(argv)}: exit {rc}: "
                                     f"{stderr.getvalue().strip()}")
            return stdout.getvalue()

        run.start = time.perf_counter()
        for leg in self.legs:
            lr = LegRun(leg.name)
            t0 = time.perf_counter()
            with tracer.span("pipeline." + leg.name, op=f"{tag}/{leg.name}"):
                for argv in leg.steps(out, seed):
                    argv = [str(directory / a) if a in self.setup_models else str(a)
                            for a in argv]
                    if call(argv) is None:
                        lr.failures = 1
                        break
                if not lr.failures:
                    lr.bundle = Path(out(leg.bundle))
                    for kind in leg.metrics:
                        lr.metric_out[kind] = call(
                            ["metric", "--a", str(lr.bundle),
                             "--b", str(directory / leg.truth), "--kind", kind])
            lr.seconds = time.perf_counter() - t0
            run.legs.append(lr)
        run.end = time.perf_counter()
        for path in sorted(directory.glob(f"{tag}-*")):
            run.outputs[path.name] = path
        for lr in run.legs:
            for kind, text in lr.metric_out.items():
                run.outputs[f"{tag}-{lr.name}-metric-{kind}.txt"] = text
        return run

    def check_pass(self, directory, run, schemas):
        """Validate every bundle, reload it and score it on its window."""
        from auctionmetrics import dist_core, io

        problems = []
        for leg, lr in zip(self.legs, run.legs):
            truths = io.io_read_cdfs(directory / leg.truth)
            k = len(truths)
            if lr.failures:
                lr.errors = [1.0] * k
                continue
            payload = json.loads(lr.bundle.read_text())
            validate_bundle(payload, schemas["cdf_bundle"])
            cdfs = io.io_read_cdfs(lr.bundle)
            if len(cdfs) != k or not all(isinstance(c, dist_core.PiecewiseCdf) for c in cdfs):
                raise BenchmarkError(f"{lr.bundle.name}: expected {k} CDFs")
            lo, hi = leg.window(payload["diagnostics"])
            lr.errors = [dist_core.kolmogorov(e, t, lo, hi) for e, t in zip(cdfs, truths)]
            if not all(0.0 <= e <= 1.0 for e in lr.errors):
                raise BenchmarkError(f"{lr.bundle.name}: error outside [0,1]: {lr.errors}")
            for kind, text in lr.metric_out.items():
                printed = parse_metric(text, k, f"{lr.bundle.name} {kind}")
                if kind == "levy":
                    full = [dist_core.kolmogorov(e, t) for e, t in zip(cdfs, truths)]
                    ok = all(v <= f + 1e-9 for v, f in zip(printed, full))
                else:
                    fn = getattr(dist_core, kind)
                    ok = all(abs(v - fn(e, t)) <= 1e-12
                             for v, e, t in zip(printed, cdfs, truths))
                if not ok:
                    problems.append(f"{lr.bundle.name}: CLI {kind} disagrees with "
                                    f"the recomputed distance: {printed}")
        return problems


def parse_metric(text, k, what):
    """The `metric` command prints one `i,value` line per bidder."""
    lines = text.strip().splitlines()
    values = []
    try:
        for i, line in enumerate(lines, start=1):
            idx, value = line.split(",")
            if int(idx) != i:
                raise ValueError(f"line {i} has index {idx}")
            values.append(float(value))
    except ValueError as exc:
        raise BenchmarkError(f"{what}: malformed metric output {text!r}: {exc}") from exc
    if len(values) != k or not all(math.isfinite(v) and v >= 0.0 for v in values):
        raise BenchmarkError(f"{what}: malformed metric output {text!r}")
    return values


BUNDLE_HEAD = 64


def validate_bundle(payload, schema):
    """Check a bundle against the bundle schema.

    jsonschema walks a million-item array at about 4 us an item, so arrays
    whose item schema is exactly ``{"type": "number"}`` are checked here item
    by item for that type, and only their first ``BUNDLE_HEAD`` items are
    passed on.
    Every other part of the bundle goes through jsonschema unchanged.
    """
    import jsonschema

    number_array = {"type": "array", "items": {"type": "number"}}
    item_props = schema["properties"]["cdfs"]["items"]["properties"]
    light = payload
    if isinstance(payload, dict) and isinstance(payload.get("cdfs"), list):
        light = dict(payload, cdfs=[])
        for cdf in payload["cdfs"]:
            if isinstance(cdf, dict):
                cdf = dict(cdf)
                for key in ("breakpoints", "values"):
                    arr = cdf.get(key)
                    if (item_props.get(key) == number_array and isinstance(arr, list)
                            and len(arr) > BUNDLE_HEAD):
                        if not all(type(v) is float or type(v) is int for v in arr):
                            raise BenchmarkError(f"bundle {key}: non-number item")
                        cdf[key] = arr[:BUNDLE_HEAD]
            light["cdfs"].append(cdf)
    try:
        jsonschema.validate(light, schema)
    except jsonschema.ValidationError as exc:
        raise BenchmarkError(f"bundle fails its schema: {exc.message}") from exc


def logs_workload(n=1_000_000):
    """Three recorded-log pipelines at n rows: fp, values, sp."""
    n = str(n)

    def fp_steps(out, seed):
        return [
            ["simulate", "--model", "half2.json", "--format", "fp", "--n", n,
             "--seed", seed, "--out", out("fp.csv")],
            ["estimate-fp", "--samples", out("fp.csv"), "--k", "2", "--p", "0.2",
             "--gamma", "0.04", "--out", out("fp.json")],
        ]

    def values_steps(out, seed):
        return [
            ["estimate-values", "--samples", out("fp.csv"), "--k", "2", "--p", "0.2",
             "--gamma", "0.04", "--eps", "0.1", "--zeta", "1", "--lipschitz", "1",
             "--out", out("values.json")],
        ]

    def sp_steps(out, seed):
        return [
            ["simulate", "--model", "bounded2.json", "--format", "sp", "--n", n,
             "--seed", seed, "--out", out("sp.csv")],
            ["estimate-sp", "--samples", out("sp.csv"), "--k", "2", "--alpha", "0.5",
             "--eta", "2", "--eps", "0.1", "--out", out("sp.json")],
        ]

    return CliWorkload(
        "logs-1e6",
        [
            Leg("fp", "fp.json", "truth-half2.json",
                ("kolmogorov", "wasserstein1", "levy"), fp_steps, _p_window(0.2)),
            Leg("values", "values.json", "truth-values.json",
                ("kolmogorov",), values_steps, _p_window(0.2)),
            Leg("sp", "sp.json", "truth-bounded2.json",
                ("kolmogorov",), sp_steps, _theta_window),
        ],
        setup_models={"half2.json": "half2", "bounded2.json": "bounded2"},
        setup_truths={"truth-half2.json": ("half2", "bid"),
                      "truth-values.json": ("half2", "value"),
                      "truth-bounded2.json": ("bounded2", "bid")},
    )


def probes_workload():
    """The two reserve-probe commands, each scored by `metric`."""

    def fp_steps(out, seed):
        return [["estimate-fp-partial", "--model", "uniform2.json", "--p", "0.5",
                 "--gamma", "0.25", "--eps", "0.15", "--seed", seed,
                 "--out", out("fp-partial.json")]]

    def sp_steps(out, seed):
        return [["estimate-sp-partial", "--model", "bounded3-density.json", "--p", "0.5",
                 "--gamma", "0.3", "--eps", "0.1", "--seed", seed,
                 "--out", out("sp-partial.json")]]

    return CliWorkload(
        "probes",
        [
            Leg("fp-partial", "fp-partial.json", "truth-uniform2.json",
                ("kolmogorov",), fp_steps, _p_window(0.5)),
            Leg("sp-partial", "sp-partial.json", "truth-bounded3.json",
                ("kolmogorov",), sp_steps, _p_window(0.5)),
        ],
        setup_models={"uniform2.json": "uniform2",
                      "bounded3-density.json": "bounded3-density"},
        setup_truths={"truth-uniform2.json": ("uniform2", "bid"),
                      "truth-bounded3.json": ("bounded3-density", "bid")},
    )


# -- sweep workload -------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    name: str
    model: str
    metric: str
    support: tuple
    args: dict
    scored: bool = True   # rows enter err.*; levy has no window


FAMILIES = (
    Family("fp-effective", "bounded3", "kolmogorov", (0.4, 1.0),
           {"p": 0.4, "gamma": 0.05, "eps": 0.025}),
    Family("fp-value", "half2", "kolmogorov", (0.3, 1.0),
           {"p": 0.2, "gamma": 0.04, "eps": 0.1, "zeta": 1.0, "lipschitz": 1.0}),
    Family("sp", "bounded2", "kolmogorov", (0.02, 0.98),
           {"alpha": 0.5, "eta": 2.0, "eps": 0.1}),
    Family("fp-full", "bounded2", "levy", (0.0, 1.0),
           {"lambda": 0.5, "eps": 0.2}, scored=False),
)


class CellProbe:
    """Wraps ``harness._run_cell`` to time each cell and sort its failures.

    A cell's time is keyed by (estimator, n, seed index), so passes can be
    compared cell by cell.

    ``run_convergence`` catches every exception and keeps a string, so the
    class is read here: EstimationError is an estimator failure, anything
    else is a fault that fails the run.
    """

    def __init__(self):
        self.seconds = {}
        self.failures = 0
        self.faults = []
        self._lock = threading.Lock()

    def install(self, patches):
        from auctionmetrics import harness
        from auctionmetrics.errors import EstimationError

        inner = harness._run_cell

        def cell(config, n, seed_index):
            t0 = time.perf_counter()
            try:
                return inner(config, n, seed_index)
            except EstimationError:
                with self._lock:
                    self.failures += 1
                raise
            except Exception as exc:
                with self._lock:
                    self.faults.append(f"{config.estimator} n={n} seed={seed_index}: "
                                       f"{type(exc).__name__}: {exc}")
                raise
            finally:
                dt = time.perf_counter() - t0
                with self._lock:
                    self.seconds[(config.estimator, n, seed_index)] = dt

        patches.set(harness, "_run_cell", cell)

    def take(self):
        with self._lock:
            out = (self.seconds, self.failures, self.faults)
            self.seconds, self.failures, self.faults = {}, 0, []
        return out


class SweepWorkload:
    """Four ``run_convergence`` families and one equilibrium solve."""

    name = "sweep-small"

    def __init__(self, n_schedule=(2000, 5000, 20000, 50000), seeds=8,
                 equilibrium=True):
        self.n_schedule = list(n_schedule)
        self.seeds = seeds
        self.equilibrium = equilibrium
        self.probe = CellProbe()

    def prepare(self, directory):
        ms = models()
        directory.mkdir(parents=True, exist_ok=True)
        for fam in FAMILIES:
            config = {
                "model": ms[fam.model].to_dict(),
                "estimator": fam.name,
                "n_schedule": self.n_schedule,
                "seeds": self.seeds,
                "metric": fam.metric,
                "support": list(fam.support),
                "estimator_args": fam.args,
            }
            (directory / f"sweep-{fam.name}.json").write_text(json.dumps(config, indent=2))
        if self.equilibrium:
            from auctionmetrics import io

            io.io_write_model(directory / "tilted2.json", ms["tilted2"])

    def _config(self, directory, fam, seed):
        from auctionmetrics.auction_sim import AuctionModel
        from auctionmetrics.harness import ExperimentConfig

        raw = json.loads((directory / f"sweep-{fam.name}.json").read_text())
        return ExperimentConfig(
            model=AuctionModel.from_dict(raw["model"]),
            estimator=raw["estimator"],
            n_schedule=raw["n_schedule"],
            seeds=raw["seeds"],
            metric=raw["metric"],
            support_lo=raw["support"][0],
            support_hi=raw["support"][1],
            seed_root=seed,
            estimator_args=raw["estimator_args"],
        )

    def run_pass(self, directory, seed, tag, tracer):
        from auctionmetrics import auction_sim, harness, io

        run = PassRun(tag=tag, seed=seed)
        configs = [self._config(directory, fam, seed) for fam in FAMILIES]
        model = io.io_read_model(directory / "tilted2.json") if self.equilibrium else None
        self.probe.take()
        run.start = time.perf_counter()
        for fam, config in zip(FAMILIES, configs):
            lr = LegRun(fam.name)
            t0 = time.perf_counter()
            with tracer.span("family." + fam.name, op=f"{tag}/{fam.name}"):
                with tracer.span("harness.sweep") as sweep:
                    tracer.adopt = sweep
                    try:
                        report = harness.run_convergence(config)
                    finally:
                        tracer.adopt = None
            lr.seconds = time.perf_counter() - t0
            lr.cell_seconds, lr.failures, faults = self.probe.take()
            if faults:
                raise BenchmarkError("sweep cell fault: " + "; ".join(faults))
            lr.attempted = len(config.n_schedule) * config.seeds
            lr.k = config.model.k
            run.legs.append(lr)
            run.outputs[f"{tag}-sweep-{fam.name}.json"] = json.dumps(
                io._jsonable(report.to_dict()), indent=2)
        if model is not None:
            run.profile = (model, auction_sim.solve_asymmetric_equilibrium(model))
        run.end = time.perf_counter()
        return run

    def check_pass(self, directory, run, schemas):
        import jsonschema
        import numpy as np
        from auctionmetrics.auction_sim import equilibrium_residual

        problems = []
        for fam, lr in zip(FAMILIES, run.legs):
            report = json.loads(run.outputs[f"{run.tag}-sweep-{fam.name}.json"])
            try:
                jsonschema.validate(report, schemas["report"])
            except jsonschema.ValidationError as exc:
                raise BenchmarkError(f"{fam.name} report fails its schema: "
                                     f"{exc.message}") from exc
            failed = [d for d in report["diagnostics"] if "error" in d]
            if len(failed) != lr.failures:
                raise BenchmarkError(f"{fam.name}: {len(failed)} failed cells in the "
                                     f"report, {lr.failures} EstimationErrors seen")
            errors = [row["error"] for row in report["rows"]]
            ok_cells = lr.attempted - len(failed)
            if len(errors) != ok_cells * lr.k or not all(0.0 <= e <= 1.0 for e in errors):
                raise BenchmarkError(f"{fam.name}: malformed rows")
            lr.errors = errors + [1.0] * (len(failed) * lr.k) if fam.scored else []
        if self.equilibrium:
            model, profile = run.profile
            bs = np.linspace(0.1 * profile.eta_eq, 0.9 * profile.eta_eq, 15)
            worst = max(float(np.max(np.abs(equilibrium_residual(profile, model, i, bs))))
                        for i in (1, 2))
            if not worst <= 1e-2:
                problems.append(f"equilibrium residual {worst:.3g} > 1e-2")
        return problems


WORKLOADS = {
    "logs-1e6": logs_workload,
    "probes": probes_workload,
    "sweep-small": SweepWorkload,
}


def load_schemas():
    from importlib import resources

    base = resources.files("auctionmetrics") / "schemas"
    return {name: json.loads((base / f"{name}.schema.json").read_text())
            for name in ("cdf_bundle", "report")}


def available_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
