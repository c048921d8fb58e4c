import hashlib
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionmetrics import cli, dist_core, fp_estimator, harness
from auctionmetrics.auction_sim import (
    AuctionModel,
    lower_bound_fixture,
    make_fp_partial_oracle,
    make_sp_partial_oracle,
    simulate_fp,
    simulate_sp,
)
from auctionmetrics.dist_core import (
    BoundedDensityModel,
    PiecewiseCdf,
    dkw_band,
    kolmogorov,
    uniform_cdf,
    wasserstein1,
)
from auctionmetrics.errors import ValidationError, check_number
from auctionmetrics.fp_estimator import (
    estimate_bid_cdf_full,
    estimate_density,
    fp_partial_estimate,
)
from auctionmetrics.fp_value import (
    ValueEstimatorConfig,
    best_response,
    estimate_value_cdf_effective,
)
from auctionmetrics.harness import (
    ESTIMATORS,
    ExperimentConfig,
    _cell_seed,
    run_convergence,
    run_lower_bound_experiment,
)
from auctionmetrics.io import (
    FORMAT_FP,
    FORMAT_SP,
    _jsonable,
    config_hash,
    fmt_float,
    io_read_cdfs,
    io_read_model,
    io_read_samples,
    io_write_cdfs,
    io_write_model,
    io_write_samples,
)
from auctionmetrics.sp_estimator import SpParams, estimate_sp, sp_partial_estimate


def uniform_model(k=2):
    return AuctionModel(bid_dists=[uniform_cdf()] * k)


def load_schema(name):
    path = resources.files("auctionmetrics").joinpath("schemas", name)
    return json.loads(path.read_text())


# -- io -------------------------------------------------------------------------


def test_samples_round_trip_fp(tmp_path):
    s = simulate_fp(uniform_model(3), 500, 1)
    path = tmp_path / "fp.csv"
    io_write_samples(path, s)
    back = io_read_samples(path, FORMAT_FP, 3)
    np.testing.assert_array_equal(back.y, s.y)  # 17 digits is lossless
    np.testing.assert_array_equal(back.z, s.z)


def test_samples_round_trip_sp(tmp_path):
    s = simulate_sp(uniform_model(), 200, 2)
    path = tmp_path / "sp.csv"
    io_write_samples(path, s)
    back = io_read_samples(path, FORMAT_SP, 2)
    np.testing.assert_array_equal(back.y, s.y)
    np.testing.assert_array_equal(back.z, s.z)


def test_read_samples_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,z\n0.5,1\nnot-a-number,2\n")
    with pytest.raises(ValidationError, match="line 3"):
        io_read_samples(path, FORMAT_FP, 2)


def test_read_samples_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("price,winner\n0.5,1\n")
    with pytest.raises(ValidationError, match="line 1"):
        io_read_samples(path, FORMAT_FP, 2)


def test_read_samples_range_checks(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,z\n1.5,1\n")
    with pytest.raises(ValidationError, match="outside"):
        io_read_samples(path, FORMAT_FP, 2)
    path.write_text("y,z\n0.5,7\n")
    with pytest.raises(ValidationError, match="bidder index"):
        io_read_samples(path, FORMAT_FP, 2)


def test_cdf_bundle_round_trip_and_schema(tmp_path):
    path = tmp_path / "cdfs.json"
    io_write_cdfs(path, [uniform_cdf(), uniform_cdf()], {"note": [1, 2.5]})
    payload = json.loads(path.read_text())
    jsonschema.validate(payload, load_schema("cdf_bundle.schema.json"))
    back = io_read_cdfs(path)
    assert len(back) == 2
    assert back[0].eval(0.3) == 0.3


def test_read_cdfs_rejects_other_json(tmp_path):
    path = tmp_path / "not.json"
    path.write_text(json.dumps({"foo": 1}))
    with pytest.raises(ValidationError, match="not a CDF bundle"):
        io_read_cdfs(path)


def test_model_file_round_trip(tmp_path):
    path = tmp_path / "model.json"
    io_write_model(path, uniform_model(3))
    m = io_read_model(path)
    assert m.k == 3


# a model file as written when AuctionModel still carried declared bounds
# and an id in a "metadata" block; nothing reads that block any more
OLD_MODEL = {
    "bid_dists": [
        {"interpolation": "linear", "breakpoints": [0.0, 0.5, 1.0],
         "values": [0.0, 0.3, 1.0], "is_full_cdf": True, "kind": "cdf"},
        {"kind": "density", "knots": [0.0, 1.0], "density": [0.75, 1.25],
         "alpha_lo": 0.5, "eta_hi": 2.0, "lipschitz": 0.5}],
    "value_dists": [
        {"kind": "density", "knots": [0.0, 1.0], "density": [1.0, 1.0],
         "alpha_lo": 1.0, "eta_hi": 1.0, "lipschitz": None}] * 2,
    "metadata": {"lambda": 0.3, "alpha": 0.5, "eta": 2.0, "lipschitz": 1.0,
                 "zeta": 1.0, "model_id": "m1"},
}


def test_old_model_files_with_metadata_still_load(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(OLD_MODEL))
    m = io_read_model(path)
    want = {key: OLD_MODEL[key] for key in ("bid_dists", "value_dists")}
    assert m.to_dict() == want
    # the same distributions, so the same simulated bytes as before
    for fmt, seed, digest in (
            ("fp", 5, "366bb6c4b743bac4b5d53d4bc10d237eb3bc72f9b2b3b11c0d217798fd7997ad"),
            ("sp", 6, "dc27c75505c62f8be04049d1000c154617a87d9327fac58fc78657c39d6da3a1")):
        out = tmp_path / f"{fmt}.csv"
        r = run_cli("simulate", "--model", path, "--format", fmt, "--n", 2000,
                    "--seed", seed, "--out", out)
        assert r.returncode == 0, r.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_simulate_rejects_a_sub_cdf_bid_model(tmp_path):
    path = tmp_path / "sub.json"
    sub = {"interpolation": "step", "breakpoints": [0.5], "values": [0.4],
           "is_full_cdf": False}
    path.write_text(json.dumps({"bid_dists": [sub, uniform_cdf().to_dict()]}))
    r = run_cli("simulate", "--model", path, "--format", "fp", "--n", 100,
                "--out", tmp_path / "fp.csv")
    assert r.returncode == 2
    assert "bid_dists entries must be full CDFs" in r.stderr
    assert not (tmp_path / "fp.csv").exists()


def test_config_hash_is_order_insensitive_and_stable():
    a = config_hash({"x": 1, "y": [1.0, 2.0]})
    b = config_hash({"y": [1.0, 2.0], "x": 1})
    assert a == b and len(a) == 16
    assert config_hash({"x": 2, "y": [1.0, 2.0]}) != a


def test_jsonable_passes_a_plain_float_list_through_and_converts_any_other():
    floats = [0.5, -0.0, math.inf]
    assert _jsonable(floats) is floats
    # one item that is not exactly a float sends the list down the per-item path
    out = _jsonable([0.5, True, np.float64(0.25), 2])
    assert out == [0.5, 1, 0.25, 2] and [type(v) for v in out] == [float, int, float, int]
    assert json.dumps(_jsonable([0.5, True])) == "[0.5, 1]"
    assert _jsonable((0.5, 1.5)) == [0.5, 1.5]
    assert _jsonable(np.array([[0.5], [1.5]])) == [[0.5], [1.5]]


def decimal17_jsonable(obj):
    """``_jsonable`` as it was, with each float round-tripped through 17 digits."""
    if isinstance(obj, dict):
        return {str(k): decimal17_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [decimal17_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [decimal17_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(f"{float(obj):.17g}")
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.one_of(st.floats(), st.integers(1, 2 ** 52 - 1).map(lambda m: m * 5e-324),
                             st.sampled_from([-0.0, 0.0])), max_size=12),
       ints=st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=4))
def test_jsonable_floats_equal_the_decimal_round_trip(xs, ints):
    arr = np.array(xs, dtype=np.float64)
    with np.errstate(over="ignore"):  # float32 casts of large values give inf
        f32 = arr.astype(np.float32)
    obj = {"floats": xs, "array": arr, "f32": f32,
           "scalars": [np.float64(x) for x in xs] + f32.tolist() + list(f32),
           "ints": ints + [np.int64(i) for i in ints], 3: (None, "x", True)}
    assert json.dumps(_jsonable(obj)) == json.dumps(decimal17_jsonable(obj))


# -- harness --------------------------------------------------------------------


def sweep_config(**kw):
    base = dict(
        model=uniform_model(),
        estimator="fp-effective",
        n_schedule=[500, 4000],
        seeds=2,
        support_lo=0.3,
        support_hi=1.0,
        estimator_args={"p": 0.3, "gamma": 0.09, "eps": 0.045},
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValidationError):
        sweep_config(estimator="nope")
    with pytest.raises(ValidationError):
        sweep_config(n_schedule=[4000, 500])
    with pytest.raises(ValidationError):
        sweep_config(seeds=0)
    with pytest.raises(ValidationError):
        sweep_config(metric="chi2")


def test_convergence_report_shape_and_decay():
    report = run_convergence(sweep_config())
    assert len(report.rows) == 2 * 2 * 2  # n x seeds x bidders
    jsonschema.validate(json.loads(json.dumps(report.to_dict())),
                        load_schema("report.schema.json"))
    assert report.aggregates["4000"]["median"] < report.aggregates["500"]["median"]


def test_convergence_deterministic_across_thread_counts(monkeypatch):
    monkeypatch.setenv("AUCTIONMETRICS_THREADS", "1")
    serial = run_convergence(sweep_config())
    monkeypatch.setenv("AUCTIONMETRICS_THREADS", "4")
    parallel = run_convergence(sweep_config())
    assert serial.rows == parallel.rows
    assert serial.config_hash == parallel.config_hash


def test_sweep_runs_largest_cells_first_and_reports_in_cell_order(monkeypatch):
    # one worker takes the cells in the order they are handed to the pool
    monkeypatch.setenv("AUCTIONMETRICS_THREADS", "1")
    ran, run_cell = [], harness._run_cell

    def cell(config, n, seed_index):
        ran.append((n, seed_index))
        return run_cell(config, n, seed_index)

    monkeypatch.setattr(harness, "_run_cell", cell)
    config = sweep_config(n_schedule=[500, 1000, 4000])
    report = run_convergence(config)
    assert ran == [(4000, 0), (4000, 1), (1000, 0), (1000, 1), (500, 0), (500, 1)]
    assert [(d["n"], d["seed"]) for d in report.diagnostics] == sorted(ran)
    assert [(r["n"], r["seed"], r["bidder"]) for r in report.rows] == \
        [(n, s, i) for n, s in sorted(ran) for i in (1, 2)]


def test_sweep_builds_each_truth_table_once(monkeypatch):
    # fp-value cells are scored on value CDF tables, one per bidder per sweep
    built = []
    to_cdf = BoundedDensityModel.to_cdf

    def counted(self, *args, **kw):
        built.append(self)
        return to_cdf(self, *args, **kw)

    monkeypatch.setattr(BoundedDensityModel, "to_cdf", counted)
    values = [BoundedDensityModel(knots=[0.0, 1.0], density=[1.0, 1.0], alpha_lo=1.0,
                                  eta_hi=1.0)] * 2
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation="linear")
    config = ExperimentConfig(model=AuctionModel(bid_dists=[half, half], value_dists=values),
                              estimator="fp-value", n_schedule=[500, 2000], seeds=3,
                              support_lo=0.3, support_hi=1.0,
                              estimator_args={"p": 0.2, "gamma": 0.04, "eps": 0.1, "zeta": 1.0})
    report = run_convergence(config)
    assert len(report.rows) == 2 * 3 * 2 and len(built) == 2


def test_probe_sweeps_match_at_one_and_three_threads(monkeypatch):
    # probe cells on several threads each draw from their own Generator; with
    # a short switch interval any mixing of rows or streams between cells
    # would show as rows that differ from the serial ones
    configs = [ExperimentConfig(model=uniform_model(), estimator=kind, n_schedule=[1000],
                                seeds=6, support_lo=0.5, support_hi=1.0,
                                estimator_args={"p": 0.5, "gamma": 0.5, "eps": 0.2})
               for kind in ("fp-partial", "sp-partial")]
    monkeypatch.setenv("AUCTIONMETRICS_THREADS", "1")
    serial = [run_convergence(c).rows for c in configs]
    monkeypatch.setenv("AUCTIONMETRICS_THREADS", "3")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        parallel = [run_convergence(c).rows for c in configs]
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial
    assert all(len(rows) == 6 * 2 for rows in serial)


@pytest.mark.parametrize("threads", ["0", "-1", "abc"])
def test_cli_rejects_a_thread_count_that_is_not_a_positive_integer(
        threads, tmp_path, model_file, monkeypatch, capsys):
    # the variable sizes the sweep's cell pool, its only reader
    monkeypatch.setenv("AUCTIONMETRICS_THREADS", threads)
    out = tmp_path / "r.json"
    code, err = main_exit(["sweep", "--config", sweep_file(tmp_path, model_file),
                           "--out", out], capsys)
    assert code == 2 and "error: AUCTIONMETRICS_THREADS" in err
    assert not out.exists()


def benchmark_families():
    """kind -> (model, metric, window, arguments) of the four sweep families
    of the ``sweep-small`` benchmark workload (``benchmarks/workloads.py``)."""
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation="linear")
    uni_v = BoundedDensityModel([0.0, 1.0], [1.0, 1.0], alpha_lo=1.0, eta_hi=1.0)
    d1 = BoundedDensityModel([0.0, 1.0], [0.75, 1.25], alpha_lo=0.5, eta_hi=2.0)
    d2 = BoundedDensityModel([0.0, 1.0], [1.25, 0.75], alpha_lo=0.5, eta_hi=2.0)
    c1, c2 = d1.to_cdf(), d2.to_cdf()
    bounded2 = AuctionModel(bid_dists=[c1, c2])
    return {
        "fp-effective": (AuctionModel(bid_dists=[c1, c2, c1]), "kolmogorov", (0.4, 1.0),
                         {"p": 0.4, "gamma": 0.05, "eps": 0.025}),
        "fp-value": (AuctionModel(bid_dists=[half, half], value_dists=[uni_v, uni_v]),
                     "kolmogorov", (0.3, 1.0),
                     {"p": 0.2, "gamma": 0.04, "eps": 0.1, "zeta": 1.0, "lipschitz": 1.0}),
        "sp": (bounded2, "kolmogorov", (0.02, 0.98), {"alpha": 0.5, "eta": 2.0, "eps": 0.1}),
        "fp-full": (bounded2, "levy", (0.0, 1.0), {"lambda": 0.5, "eps": 0.2}),
    }


@pytest.mark.parametrize("kind, digest", [
    ("fp-effective", "76cca5deada7f00b7278c1dedf9a043bb2364328397afb1f928dfc69d2009601"),
    ("fp-value", "2f9714c8ec1dcf45904ddc0c9dfc6c648c5b0b4b1d2708295b4ef06e3398ba6c"),
    ("sp", "50ce1c857a2fb445c697684eaa6313996d835412efe980af081b652b39223631"),
    ("fp-full", "2487f2a4bffdeff8daab474cf3c003f1d1989195b8c97ffdc938e7514b58f5e4"),
])
def test_benchmark_family_reports_are_pinned(kind, digest):
    # the report bytes as the benchmark stores them, at n 2000 and 5000 with
    # 2 seeds from seed root 1; pinned before the window grid and the
    # staircase builder replaced the hand-written breakpoint merges. A change
    # that moves any estimate, score or diagnostic changes the hash. The sp
    # digest was re-pinned (55799ee2... before) when fixed windows solved to
    # their fixed point replaced the contraction budget grid: its CDFs move by
    # up to about 2e-6 and its diagnostics list windows, not intervals
    model, metric, (lo, hi), args = benchmark_families()[kind]
    report = run_convergence(ExperimentConfig(
        model=model, estimator=kind, n_schedule=[2000, 5000], seeds=2, metric=metric,
        support_lo=lo, support_hi=hi, seed_root=1, estimator_args=args))
    assert not [d for d in report.diagnostics if "error" in d]
    blob = json.dumps(_jsonable(report.to_dict()), indent=2)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def test_convergence_isolates_failing_cells():
    # gamma too large for eps makes the estimator config invalid per cell
    cfg = sweep_config(estimator_args={"p": 0.3, "gamma": 0.09, "eps": 0.09})
    report = run_convergence(cfg)
    assert report.rows == []
    assert all("error" in d for d in report.diagnostics)


def equilibrium_model():
    # bids linear on [0, 1/2] are the equilibrium of uniform values, k = 2
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation="linear")
    values = BoundedDensityModel(knots=[0.0, 1.0], density=[1.0, 1.0],
                                 alpha_lo=1.0, eta_hi=1.0)
    return AuctionModel(bid_dists=[half, half], value_dists=[values, values])


# one small sweep per kind: (model, metric, support, estimator_args)
SWEEPS = {
    "fp-effective": (uniform_model(), "kolmogorov", (0.3, 1.0),
                     {"p": 0.3, "gamma": 0.09, "eps": 0.045}),
    "fp-full": (uniform_model(), "wasserstein1", (0.0, 1.0), {"lambda": 1.0, "eps": 0.2}),
    "fp-value": (equilibrium_model(), "kolmogorov", (0.3, 1.0),
                 {"p": 0.2, "gamma": 0.04, "eps": 0.1, "zeta": 1.0, "lipschitz": 1.0}),
    "sp": (uniform_model(), "kolmogorov", (0.02, 0.98), {"alpha": 1.0, "eta": 1.0, "eps": 0.1}),
    "fp-partial": (uniform_model(), "kolmogorov", (0.5, 1.0),
                   {"p": 0.5, "gamma": 0.5, "eps": 0.2}),
    "sp-partial": (uniform_model(), "kolmogorov", (0.5, 1.0),
                   {"p": 0.5, "gamma": 0.5, "eps": 0.2}),
}


@pytest.mark.parametrize("kind", sorted(ESTIMATORS))
def test_convergence_runs_every_estimator_kind(kind):
    model, metric, (lo, hi), args = SWEEPS[kind]
    report = run_convergence(ExperimentConfig(
        model=model, estimator=kind, n_schedule=[5000], seeds=2, metric=metric,
        support_lo=lo, support_hi=hi, estimator_args=args))
    assert all("error" not in d for d in report.diagnostics), report.diagnostics
    assert len(report.rows) == 2 * model.k
    assert all(0.0 <= r["error"] < 0.5 for r in report.rows)
    jsonschema.validate(json.loads(json.dumps(report.to_dict())),
                        load_schema("report.schema.json"))


# per kind: a model, valid base arguments, and per key a second valid value
# picked so that the key, if it is read, moves the estimate
KEY_PROBES = {
    "fp-effective": (uniform_model(), {"p": 0.3, "gamma": 0.09, "eps": 0.045},
                     {"p": 0.5, "gamma": 0.2, "eps": 0.02}),
    # lambda moves it only through the H-hat floor (lambda*eps/2)^k/2, which a
    # model with density >= lambda keeps below H-hat at every price >= eps/2;
    # lambda = 4 breaks that bound on the uniform model
    "fp-full": (uniform_model(), {"lambda": 1.0, "eps": 0.2}, {"lambda": 4.0, "eps": 0.1}),
    "fp-value": (equilibrium_model(), {"p": 0.2, "gamma": 0.04, "eps": 0.1, "zeta": 1.0,
                                       "lipschitz": 1.0},
                 {"p": 0.3, "gamma": 0.1, "eps": 0.01, "zeta": 2.0, "lipschitz": 4.0}),
    # eps = 0.9 lifts theta = eps/(16*eta) above the trim 4/(alpha*sqrt(n)),
    # eta = 8 shrinks the micro cell below 1e-3
    "sp": (uniform_model(), {"alpha": 1.0, "eta": 1.0, "eps": 0.1},
           {"alpha": 0.5, "eta": 8.0, "eps": 0.9}),
    "fp-partial": (uniform_model(), {"p": 0.5, "gamma": 0.5, "eps": 0.2, "lipschitz": 1.0},
                   {"p": 0.6, "gamma": 0.3, "eps": 0.3, "lipschitz": 8.0}),
    # lipschitz = 0.05 cuts the search to one step
    "sp-partial": (uniform_model(), {"p": 0.5, "gamma": 0.5, "eps": 0.2, "lipschitz": 1.0},
                   {"p": 0.6, "gamma": 0.3, "eps": 0.3, "lipschitz": 0.05}),
}


def estimate_bytes(estimates):
    """Each CDF estimate's arrays."""
    return [(e.breakpoints.tobytes(), e.values.tobytes()) for e in estimates]


def test_every_registry_key_but_the_known_inert_ones_moves_an_estimate():
    # the keys that move no estimate yet: fp-effective estimates on [0, 1]
    # whatever p declares, and fp-effective's eps moves diagnostics only;
    # fp-value's zeta and lipschitz are validated and move nothing at all. A
    # key that joins them, or leaves them, fails here
    assert set(KEY_PROBES) == set(ESTIMATORS)
    inert = set()
    for kind, (model, base, other) in KEY_PROBES.items():
        entry = ESTIMATORS[kind]
        assert set(other) == set(entry.required + entry.optional) == set(base), kind
        observation = harness._observe(entry.observes, model, 20000, 3)
        want = estimate_bytes(entry.run(observation, base, 3)[0])
        for key, value in other.items():
            if estimate_bytes(entry.run(observation, {**base, key: value}, 3)[0]) == want:
                inert.add((kind, key))
    assert inert == {("fp-effective", "p"), ("fp-effective", "eps"),
                     ("fp-value", "zeta"), ("fp-value", "lipschitz")}


# configs a sweep used to run and file as estimator failures, or score with
# the wrong measure (on the uniform model, which has no value_dists); each now
# fails before any cell runs
BAD_SWEEPS = {
    "missing key": (dict(estimator_args={"p": 0.3, "eps": 0.045}),
                    "estimator 'fp-effective' needs key 'gamma'"),
    "unknown key": (dict(estimator="sp", estimator_args={
        "alpha": 1.0, "eta": 1.0, "eps": 0.1, "overrides": {"theta": 0.05}}),
        "estimator 'sp' takes no key 'overrides'"),
    # densities are no registry kind and no metric: estimate-fp-density
    # derives them from a stored CDF bundle
    "density scored as a CDF": (dict(estimator="fp-density", metric="kolmogorov",
                                     estimator_args={"p": 0.3, "gamma": 0.09, "h": 0.1}),
                                "unknown estimator kind 'fp-density'"),
    "a CDF scored as a density": (dict(metric="l1-density"), "unknown metric 'l1-density'"),
    "values without value_dists": (dict(estimator="fp-value", estimator_args={
        "p": 0.2, "gamma": 0.04, "eps": 0.1, "zeta": 1.0}),
        "'fp-value' is scored against value CDFs, and the model has no value_dists"),
    # the probe batch sizes are Python parameters only, not registry keys
    "a float draw count": (dict(estimator="sp-partial", estimator_args={
        "p": 0.5, "gamma": 0.5, "eps": 0.2, "n_point": 2e3}),
        "estimator 'sp-partial' takes no key 'n_point'"),
    # sp takes alpha, eta and eps only; its iteration count is derived from n
    "a float iteration count": (dict(estimator="sp", estimator_args={
        "alpha": 1.0, "eta": 1.0, "eps": 0.1, "fp_iters": 2.0}),
        "estimator 'sp' takes no key 'fp_iters'"),
    # json reads NaN and Infinity
    "a non-finite key": (dict(estimator="sp", estimator_args={
        "alpha": 1.0, "eta": math.inf, "eps": 0.1}),
        "estimator 'sp' key 'eta' must be finite, not inf"),
}


@pytest.mark.parametrize("case", sorted(BAD_SWEEPS))
def test_config_rejects_what_the_registry_cannot_run(case):
    kw, message = BAD_SWEEPS[case]
    with pytest.raises(ValidationError, match=message):
        sweep_config(**kw)


@pytest.mark.parametrize("kw, message", [
    (dict(support_lo=0.9, support_hi=0.3), r"support \[0.9, 0.3\] must satisfy"),
    (dict(support_lo=0.5, support_hi=0.5), r"support \[0.5, 0.5\] must satisfy"),
    (dict(support_lo=-0.1), r"support \[-0.1, 1.0\] must satisfy"),
    (dict(support_hi=1.5), r"support \[0.3, 1.5\] must satisfy"),
], ids=["reversed", "empty", "below 0", "above 1"])
def test_config_rejects_an_empty_scoring_window(kw, message):
    with pytest.raises(ValidationError, match=message):
        sweep_config(**kw)


def test_levy_sweep_rejects_a_support_other_than_the_unit_interval(
        tmp_path, model_file, capsys):
    # levy scores the whole CDFs, so a narrower support would be ignored
    message = "metric 'levy' scores on [0, 1], not on [0.3, 1.0]"
    with pytest.raises(ValidationError, match=re.escape(message)):
        sweep_config(metric="levy")
    path = sweep_file(tmp_path, model_file, metric="levy", support=[0.3, 1.0])
    code, err = main_exit(["sweep", "--config", path, "--out", tmp_path / "r.json"], capsys)
    assert code == 2 and message in err
    assert sweep_config(metric="levy", support_lo=0).metric == "levy"


def test_config_rejects_ill_typed_estimator_args():
    with pytest.raises(ValidationError, match="'gamma' must be Real, not str"):
        sweep_config(estimator_args={"p": 0.3, "gamma": "0.09"})
    with pytest.raises(ValidationError, match="'eps' must be Real, not bool"):
        sweep_config(estimator_args={"p": 0.3, "gamma": 0.09, "eps": True})


def test_config_from_dict_inverts_to_dict():
    config = sweep_config(metric="levy", seed_root=4, support_lo=0.0)
    back = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert back.to_dict() == config.to_dict()


def test_lower_bound_experiment_summary():
    result = run_lower_bound_experiment(k=2, eps=0.1, lam=0.2, n=2000, trials=8)
    assert result["kolmogorov_f1_f1p"] >= 0.5
    assert result["mean_low_count"] == pytest.approx(
        result["expected_low_count"], rel=0.5)
    # the uninformative tails look identical to a two-sample KS test
    assert result["ks_below_threshold"] >= 6


@pytest.mark.parametrize("k, n, trials", [(2, 2000, 8), (3, 1000, 50)])
def test_lower_bound_ks_statistic_equals_scipy_ks_2samp(k, n, trials):
    # the statistic is the Kolmogorov distance of the two empirical CDFs;
    # scipy's two-sample test, redrawn from the same cell seeds, is the reference
    from scipy.stats import ks_2samp

    result = run_lower_bound_experiment(k=k, eps=0.1, lam=0.2, n=n, trials=trials)
    d, dp = lower_bound_fixture(k, 0.1, 0.2)
    ref, below = [], 0
    for t in range(trials):
        ya, yb = (simulate_fp(m, n, _cell_seed(0, n, 2 * t + j)).y for j, m in enumerate((d, dp)))
        ya, yb = ya[ya > 0.1], yb[yb > 0.1]
        ref.append(ks_2samp(ya, yb).statistic)
        below += ref[-1] < 1.358 * np.sqrt((ya.size + yb.size) / (ya.size * yb.size))
    np.testing.assert_allclose(result["ks_stats"], ref, rtol=0, atol=1e-15)
    assert result["ks_below_threshold"] == below


def test_cli_import_starts_no_thread():
    # the sweep's cell pool starts with a sweep, so importing costs no thread
    out = subprocess.run(
        [sys.executable, "-c", "import threading, auctionmetrics.cli; "
         "print(threading.active_count())"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "1"


def test_cli_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; scipy is a test-only reference
    out = subprocess.run(
        [sys.executable, "-c", "import sys, auctionmetrics.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


# -- argument checks ------------------------------------------------------------


@pytest.mark.parametrize("x, lo, hi, bounds, message", [
    (0.0, 0.0, 1.0, "(]", "in (0, 1], not 0.0"),
    (1.0, 0.0, 1.0, "[)", "in [0, 1), not 1.0"),
    (-0.5, 0.0, 1.0, "[]", "in [0, 1], not -0.5"),
    (1.5, 0.0, 1.0, "[]", "in [0, 1], not 1.5"),
    (0, 0, math.inf, "(]", "> 0, not 0"),
    (-1, 0, math.inf, "[]", ">= 0, not -1"),
    (math.nan, 0.0, 1.0, "[]", "finite, not nan"),
    (math.inf, 0.0, math.inf, "[]", "finite, not inf"),
    (-math.inf, -math.inf, 1.0, "[]", "finite, not -inf"),
])
def test_check_number_rejects_a_value_outside_its_interval(x, lo, hi, bounds, message):
    with pytest.raises(ValidationError, match=re.escape(f"x must be {message}") + "$"):
        check_number("x", x, lo, hi, bounds)


def test_check_number_returns_what_it_accepts():
    # each closed end accepts its own value, and numpy numbers are numbers
    for x, bounds in ((0.0, "[)"), (1.0, "(]"), (0.5, "()")):
        assert check_number("x", x, 0.0, 1.0, bounds) == x
    for x in (np.int64(3), np.float64(0.25), 10 ** 400):
        assert check_number("x", x) is x
    assert check_number("seed", np.int64(0), 0, integer=True) == 0
    # a bool is no number, numpy's neither, and a float is no integer
    for x, integer, kind in ((True, False, "a number, not bool"),
                             (np.bool_(True), False, "a number, not bool"),
                             (True, True, "an integer, not bool"),
                             (np.float64(2.0), True, "an integer, not float64"),
                             (None, False, "a number, not NoneType")):
        with pytest.raises(ValidationError, match=f"x must be {kind}"):
            check_number("x", x, integer=integer)


def _bad_arguments():
    """(call, message) cases, each a bare TypeError, numpy's own error, an
    accepted value or a message naming another argument before every entry
    point checked its numbers with ``check_number``. The "above the cap"
    cases ask for grids of more than 2^48 bytes, a MemoryError at once
    before ``check_grid_size``."""
    model = uniform_model()
    fp_oracle, sp_oracle = make_fp_partial_oracle(model), make_sp_partial_oracle(model)
    probe = {"p": 0.5, "gamma": 0.5, "eps": 0.2}
    fp_log, sp_log = simulate_fp(model, 200, 0), simulate_sp(model, 200, 0)
    staircase = PiecewiseCdf([0.2, 0.5, 0.9], [0.3, 0.6, 1.0], interpolation="step")
    density = BoundedDensityModel(knots=[0.0, 1.0], density=[1.0, 1.0], alpha_lo=0.5, eta_hi=2.0)
    return {
        "fp-partial p None": (lambda: fp_partial_estimate(fp_oracle, **{**probe, "p": None}),
                              "p must be a number, not NoneType"),
        "sp-partial p None": (lambda: sp_partial_estimate(sp_oracle, **{**probe, "p": None}),
                              "p must be a number, not NoneType"),
        "fp-partial n_search True": (lambda: fp_partial_estimate(fp_oracle, **probe,
                                                                 n_search=True),
                                     "n_search must be an integer, not bool"),
        "fp-partial n_point 2.5": (lambda: fp_partial_estimate(fp_oracle, **probe,
                                                               n_point=2.5),
                                   "n_point must be an integer, not float"),
        "sp-partial n_point True": (lambda: sp_partial_estimate(sp_oracle, **probe,
                                                                n_point=True),
                                    "n_point must be an integer, not bool"),
        "sp alpha None": (lambda: estimate_sp(sp_log, None, 1.0, 0.1),
                          "alpha must be a number, not NoneType"),
        "sp eps None": (lambda: estimate_sp(sp_log, 1.0, 1.0, None),
                        "eps must be a number, not NoneType"),
        "sp theta None": (lambda: SpParams(alpha=1.0, eta=1.0, eps=0.1, theta=None, nu=0.02,
                                           micro_delta=1e-3),
                          "theta must be a number, not NoneType"),
        "fp-full lambda None": (lambda: estimate_bid_cdf_full(fp_log, None, 0.2),
                                "lambda must be a number, not NoneType"),
        "fp-full lambda nan": (lambda: estimate_bid_cdf_full(fp_log, math.nan, 0.2),
                               "lambda must be finite, not nan"),
        "density h None": (lambda: estimate_density(uniform_cdf(), None),
                           "h must be a number, not NoneType"),
        "density h nan": (lambda: estimate_density(uniform_cdf(), math.nan),
                          "h must be finite, not nan"),
        "dkw delta None": (lambda: dkw_band(10, None), "delta must be a number, not NoneType"),
        "dkw n 2.5": (lambda: dkw_band(2.5, 0.05), "n must be an integer, not float"),
        "simulate n 2.5": (lambda: simulate_fp(model, 2.5, 1),
                           "n must be an integer, not float"),
        "fixture k 2.5": (lambda: lower_bound_fixture(2.5, 0.1, 0.2),
                          "k must be an integer, not float"),
        "lower bound trials 1.5": (lambda: run_lower_bound_experiment(2, 0.1, 0.2, 100,
                                                                      trials=1.5),
                                   "trials must be an integer, not float"),
        "lower bound n 1.5": (lambda: run_lower_bound_experiment(2, 0.1, 0.2, 1.5, trials=1),
                              "n must be an integer, not float"),
        "config seeds True": (lambda: sweep_config(seeds=True),
                              "seeds must be an integer, not bool"),
        "config seeds 1.5": (lambda: sweep_config(seeds=1.5),
                             "seeds must be an integer, not float"),
        "config seed_root True": (lambda: sweep_config(seed_root=True),
                                  "seed_root must be an integer, not bool"),
        "config support_lo None": (lambda: sweep_config(support_lo=None),
                                   "support_lo must be a number, not NoneType"),
        "kolmogorov reversed": (lambda: kolmogorov(uniform_cdf(), staircase, 0.8, 0.2),
                                "window [0.8, 0.2] must satisfy 0 <= lo < hi <= 1"),
        "kolmogorov empty": (lambda: kolmogorov(uniform_cdf(), staircase, 0.5, 0.5),
                             "window [0.5, 0.5] must satisfy 0 <= lo < hi <= 1"),
        "kolmogorov lo None": (lambda: kolmogorov(uniform_cdf(), staircase, None, 1.0),
                               "lo must be a number, not NoneType"),
        "wasserstein1 reversed": (lambda: wasserstein1(uniform_cdf(), staircase, 0.8, 0.2),
                                  "window [0.8, 0.2] must satisfy 0 <= lo < hi <= 1"),
        "wasserstein1 hi 1.5": (lambda: wasserstein1(uniform_cdf(), staircase, 0.0, 1.5),
                                "window [0.0, 1.5] must satisfy 0 <= lo < hi <= 1"),
        "best_response reversed": (lambda: best_response(staircase, 0.7, 0.8, 0.2),
                                   "window [0.8, 0.2] must satisfy 0 <= lo <= hi <= 1"),
        "best_response hi None": (lambda: best_response(staircase, 0.7, 0.0, None),
                                  "hi must be a number, not NoneType"),
        "best_response v nan": (lambda: best_response(staircase, math.nan),
                                "v must be finite numbers"),
        "best_response v inf": (lambda: best_response(staircase, math.inf),
                                "v must be finite numbers"),
        "best_response v str": (lambda: best_response(staircase, "a"),
                                "v must be finite numbers"),
        "to_cdf n_grid -1": (lambda: density.to_cdf(-1), "n_grid must be >= 2, not -1"),
        "to_cdf n_grid 2.5": (lambda: density.to_cdf(2.5), "n_grid must be an integer, not float"),
        # 2^50 points, 8 PiB
        "to_cdf n_grid above the cap": (
            lambda: density.to_cdf(2 ** 50),
            f"the grid of n_grid = {2 ** 50} would hold 1.13e+15 points, {CAP}"),
        # a step of eps/4 over [0.2, 1]: 3.2e14 points, 2.6 PB
        "fp-value grid above the cap": (
            lambda: estimate_value_cdf_effective(
                fp_log, ValueEstimatorConfig(p=0.2, gamma=0.04, eps=1e-14, zeta=1.0)),
            f"the value grid of p = 0.2 and eps = 1e-14 would hold 3.2e+14 points, {CAP}"),
        # 3 grids of (1 - gamma)/(gamma^2 eps/6) = 5.9e14 levels, 4.7 PB each
        "fp-partial grids above the cap": (
            lambda: fp_partial_estimate(fp_oracle, p=0.5, gamma=0.01, eps=1e-10),
            f"the 3 search grids of gamma = 0.01 and eps = 1e-10 would hold 1.78e+15 points, "
            f"{CAP}"),
        # (1 - gamma)/(eps/2) = 1.4e15 levels, 11 PB
        "sp-partial levels above the cap": (
            lambda: sp_partial_estimate(sp_oracle, p=0.5, gamma=0.3, eps=1e-15),
            f"the levels of gamma = 0.3 and eps = 1e-15 would hold 1.4e+15 points, {CAP}"),
    }


CAP = "more than the 10,000,000 a grid may hold"


@pytest.mark.parametrize("case", sorted(_bad_arguments()))
def test_every_entry_point_names_a_bad_number(case):
    call, message = _bad_arguments()[case]
    with pytest.raises(ValidationError, match=re.escape(message) + "$"):
        call()


# -- cli ------------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "auctionmetrics.cli", *map(str, args)],
        capture_output=True, text=True,
        env={**os.environ, "AUCTIONMETRICS_THREADS": "2"},
    )


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "model.json"
    io_write_model(path, uniform_model())
    return path


def test_cli_simulate_then_estimate_fp(tmp_path, model_file):
    samples = tmp_path / "fp.csv"
    out = tmp_path / "cdfs.json"
    r = run_cli("simulate", "--model", model_file, "--format", "fp",
                "--n", 4000, "--seed", 5, "--out", samples)
    assert r.returncode == 0, r.stderr
    r = run_cli("estimate-fp", "--samples", samples, "--k", 2,
                "--p", 0.3, "--gamma", 0.09, "--out", out)
    assert r.returncode == 0, r.stderr
    cdfs = io_read_cdfs(out)
    assert len(cdfs) == 2
    grid = np.linspace(0.3, 1.0, 50)
    assert np.max(np.abs(cdfs[0].eval(grid) - grid)) < 0.1
    # the estimator's own diagnostics, eps defaulting to gamma/2
    assert json.loads(out.read_text())["diagnostics"] == {
        "n": 4000, "p": 0.3, "gamma": 0.09, "eps": 0.045, "h_floor": 0.045}


def test_cli_estimate_values(tmp_path, model_file):
    samples = tmp_path / "fp.csv"
    out = tmp_path / "values.json"
    run_cli("simulate", "--model", model_file, "--format", "fp",
            "--n", 3000, "--seed", 6, "--out", samples)
    r = run_cli("estimate-values", "--samples", samples, "--k", 2,
                "--p", 0.2, "--gamma", 0.05, "--eps", 0.1, "--zeta", 1.0,
                "--lipschitz", 1.0, "--out", out)
    assert r.returncode == 0, r.stderr
    assert len(io_read_cdfs(out)) == 2


def test_cli_estimate_values_has_no_general_flag(tmp_path, model_file):
    # leaving out --lipschitz is the general case; --general is no option
    samples = tmp_path / "fp.csv"
    run_cli("simulate", "--model", model_file, "--format", "fp",
            "--n", 1000, "--seed", 6, "--out", samples)
    r = run_cli("estimate-values", "--samples", samples, "--k", 2,
                "--p", 0.2, "--gamma", 0.05, "--eps", 0.1, "--zeta", 1.0,
                "--general", "--out", tmp_path / "values.json")
    assert r.returncode == 2
    assert "unrecognized arguments: --general" in r.stderr
    assert not (tmp_path / "values.json").exists()


def test_cli_estimate_sp(tmp_path, model_file):
    samples = tmp_path / "sp.csv"
    out = tmp_path / "sp.json"
    run_cli("simulate", "--model", model_file, "--format", "sp",
            "--n", 20000, "--seed", 7, "--out", samples)
    r = run_cli("estimate-sp", "--samples", samples, "--k", 2,
                "--alpha", 1.0, "--eta", 1.0, "--eps", 0.1, "--out", out)
    assert r.returncode == 0, r.stderr
    assert len(io_read_cdfs(out)) == 2
    diag = json.loads(out.read_text())["diagnostics"]
    # one step count and one last step per window, each window settled
    assert len(diag["fp_steps"]) == len(diag["fp_gaps"]) == diag["T"]
    assert max(diag["fp_gaps"]) < 1e-13


def test_cli_estimate_sp_exits_3_on_a_bidder_without_low_wins(tmp_path, capsys):
    # bidder 1 bids uniformly on [0.2, 1], so bidder 2 wins no price below 0.2:
    # a valid log the fixed point cannot start from, so exit 3, not 2
    late = PiecewiseCdf([0.2, 1.0], [0.0, 1.0], interpolation="linear")
    log = tmp_path / "sp.csv"
    io_write_samples(log, simulate_sp(AuctionModel(bid_dists=[late, uniform_cdf()]), 20000, 0))
    out = tmp_path / "sp.json"
    code, err = main_exit(["estimate-sp", "--samples", log, "--k", 2, "--alpha", 0.5,
                           "--eta", 2, "--eps", 0.1, "--out", out], capsys)
    assert code == 3 and "estimation failed: bidder 2 wins no price up to x=0.19" in err
    # the diagnostics follow the message as one JSON line
    message, line = err.splitlines()
    diagnostics = json.loads(line)
    assert list(diagnostics) == ["bidder", "x"] and diagnostics["bidder"] == 2
    assert f"x={diagnostics['x']:.6g}," in message
    assert not out.exists()


def test_cli_estimate_sp_exits_2_on_a_lattice_above_the_size_cap(tmp_path, capsys):
    # eta = 1e6 at n = 2e4 asks for a lattice of 5.3e14 points, about 4.3e15
    # bytes: a bad argument (exit 2), not a MemoryError
    log = tmp_path / "sp.csv"
    io_write_samples(log, simulate_sp(uniform_model(), 20000, 7))
    out = tmp_path / "sp.json"
    code, err = main_exit(["estimate-sp", "--samples", log, "--k", 2, "--alpha", 0.5,
                           "--eta", 1e6, "--eps", 0.1, "--out", out], capsys)
    assert code == 2 and "micro_delta = 1.76777e-15 would hold 5.34e+14 points" in err
    assert not out.exists()


def test_cli_metric_output(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    io_write_cdfs(a, [uniform_cdf()])
    io_write_cdfs(b, [uniform_cdf()])
    r = run_cli("metric", "--a", a, "--b", b, "--kind", "kolmogorov")
    assert r.returncode == 0
    assert r.stdout.strip() == "1,0"


@pytest.mark.parametrize("kind", harness.METRICS)
def test_cli_metric_runs_every_metric_of_the_harness(kind, tmp_path, capsys):
    # the command's kinds are the sweep metrics, each the distance of its name
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    lifted = PiecewiseCdf([0.0, 0.4, 1.0], [0.0, 0.7, 1.0], interpolation="linear")
    io_write_cdfs(a, [lifted, uniform_cdf()])
    io_write_cdfs(b, [uniform_cdf(), uniform_cdf()])
    code = cli.main(["metric", "--a", str(a), "--b", str(b), "--kind", kind])
    want = getattr(dist_core, kind)(io_read_cdfs(a)[0], io_read_cdfs(b)[0])
    assert code == 0 and want > 0.0
    assert capsys.readouterr().out.splitlines() == [f"1,{fmt_float(want)}", "2,0"]


def test_cli_exit_code_missing_file(tmp_path):
    r = run_cli("estimate-fp", "--samples", tmp_path / "nope.csv", "--k", 2,
                "--p", 0.3, "--gamma", 0.09, "--out", tmp_path / "o.json")
    assert r.returncode == 4
    assert "i/o error" in r.stderr


def test_cli_exit_code_validation(tmp_path, model_file, fp_log, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"foo": 1}))
    r = run_cli("metric", "--a", bad, "--b", bad, "--kind", "levy")
    assert r.returncode == 2
    assert "error:" in r.stderr
    # each message names the bad input, not a value derived from it
    sp_log = tmp_path / "sp.csv"
    io_write_samples(sp_log, simulate_sp(uniform_model(), 2000, 0))
    probe = ["--model", model_file, "--p", 0.5, "--gamma", 0.5, "--eps", 0.2]
    values = ["estimate-values", "--samples", fp_log, "--k", 2, "--p", 0.2, "--gamma", 0.05,
              "--eps", 0.1]
    negative_seed = "seed must be >= 0, not -1"
    for argv, message in [
        (["simulate", "--model", model_file, "--format", "fp", "--n", 100, "--seed", -1],
         negative_seed),
        (["estimate-fp-partial", *probe, "--seed", -1], negative_seed),
        (["estimate-sp-partial", *probe, "--seed", -1], negative_seed),
        (["lower-bound", "--k", 2, "--eps", 0.1, "--lambda", 0.2, "--n", -5],
         "n must be >= 1, not -5"),
        ([*values, "--zeta", "nan"], "estimator 'fp-value' key 'zeta' must be finite, not nan"),
        ([*values, "--zeta", 1, "--lipschitz", -3], "lipschitz must be > 0, not -3.0"),
        (["estimate-fp-partial", *probe, "--lipschitz", "inf"],
         "estimator 'fp-partial' key 'lipschitz' must be finite, not inf"),
        (["estimate-sp-partial", *probe, "--lipschitz", "inf"],
         "estimator 'sp-partial' key 'lipschitz' must be finite, not inf"),
        (["estimate-sp", "--samples", sp_log, "--k", 2, "--alpha", 1, "--eta", "inf",
          "--eps", 0.1], "estimator 'sp' key 'eta' must be finite, not inf"),
        (["estimate-fp", "--samples", fp_log, "--k", 2, "--mode", "full", "--lambda", "nan",
          "--eps", 0.2], "estimator 'fp-full' key 'lambda' must be finite, not nan"),
    ]:
        out = tmp_path / "out"
        code, err = main_exit([*argv, "--out", out], capsys)
        assert (code, err.strip(), out.exists()) == (2, f"error: {message}", False), argv[0]


def test_cli_exit_code_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("metric", "--a", bad, "--b", bad, "--kind", "levy")
    assert r.returncode == 2


# the CLI's four file readers, each given the file at ``path``
READER_COMMANDS = {
    "samples": lambda path, out: ["estimate-fp", "--samples", path, "--k", 2, "--p", 0.3,
                                  "--gamma", 0.09, "--out", out],
    "cdfs": lambda path, out: ["metric", "--a", path, "--b", path, "--kind", "kolmogorov"],
    "model": lambda path, out: ["simulate", "--model", path, "--format", "fp", "--n", 10,
                                "--out", out],
    "config": lambda path, out: ["sweep", "--config", path, "--out", out],
}


@pytest.mark.parametrize("reader", sorted(READER_COMMANDS))
def test_cli_exit_code_a_file_that_is_not_utf8(reader, tmp_path, capsys):
    # a UnicodeDecodeError traceback and exit 1 before
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfey\x00,\x00z\x00\n\x00")
    out = tmp_path / "out"
    code, err = main_exit(READER_COMMANDS[reader](path, out), capsys)
    assert code == 2 and f"error: {path}: not UTF-8 text" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "estimate-fp-partial"])
@pytest.mark.parametrize("model", [[1, 2], {"bid_dists": [1, 2]}, "uniform"],
                         ids=["a list", "number entries", "a string"])
def test_cli_exit_code_a_model_file_that_is_not_an_object(command, model, tmp_path, capsys):
    # an AttributeError traceback and exit 1 before
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "out"
    flags = ["--format", "fp", "--n", 10] if command == "simulate" \
        else ["--p", 0.5, "--gamma", 0.5, "--eps", 0.2]
    code, err = main_exit([command, "--model", path, *flags, "--out", out], capsys)
    assert code == 2 and f"error: {path}: not a model file" in err
    assert not out.exists()


def test_cli_sweep(tmp_path, model_file):
    cfg = {
        "model": json.loads(model_file.read_text()),
        "estimator": "fp-effective",
        "n_schedule": [500, 2000],
        "seeds": 2,
        "support": [0.3, 1.0],
        "estimator_args": {"p": 0.3, "gamma": 0.09, "eps": 0.045},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    r = run_cli("sweep", "--config", cfg_path, "--out", out)
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    jsonschema.validate(report, load_schema("report.schema.json"))
    assert report["aggregates"]["2000"]["median"] <= report["aggregates"]["500"]["median"]


def sweep_file(tmp_path, model_file, **kw):
    """A small sweep config file; a key set to None is left out."""
    cfg = {
        "model": json.loads(model_file.read_text()),
        "estimator": "fp-effective",
        "n_schedule": [500],
        "seeds": 1,
        "estimator_args": {"p": 0.3, "gamma": 0.09, "eps": 0.045},
        **kw,
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({k: v for k, v in cfg.items() if v is not None}))
    return path


def main_exit(argv, capsys):
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(BAD_SWEEPS))
def test_cli_sweep_rejects_a_bad_config_before_any_cell(case, tmp_path, model_file, capsys):
    kw, message = BAD_SWEEPS[case]
    path = sweep_file(tmp_path, model_file, **kw)
    code, err = main_exit(["sweep", "--config", path, "--out", tmp_path / "r.json"], capsys)
    assert code == 2 and message in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("key, value, message", [
    ("estimator", None, "sweep config needs key 'estimator'"),
    ("seeds", "2", "sweep config key 'seeds' must be int, not str"),
    ("support", [0.3], "sweep config key 'support' must be a pair of numbers"),
    ("seed", 3, "sweep config takes no key 'seed'"),
    # each of these ran before: the bad cells failed one by one, or the report was empty
    ("n_schedule", [0, 100], "n schedule [0, 100] must be strictly ascending integers >= 1"),
    ("n_schedule", [-5, 100], "n schedule [-5, 100] must be strictly ascending integers >= 1"),
    ("n_schedule", [], "n schedule [] must be strictly ascending integers >= 1"),
    ("n_schedule", [100, 100], "n schedule [100, 100] must be strictly ascending integers >= 1"),
    ("seed_root", -1, "seed_root must be >= 0, not -1"),
    # a bool is an Integral: its cell failed in numpy and was filed as an estimator failure
    ("n_schedule", [True, 500], "n schedule [True, 500] must be strictly ascending integers >= 1"),
    # numpy's ValueError: a traceback and exit 1
    ("model", {"bid_dists": [{"kind": "cdf", "breakpoints": [[0.0], [0.0, 1.0]],
                              "values": [0.0, 1.0]}] * 2},
     "breakpoints must be finite numbers, not a ragged array"),
])
def test_cli_sweep_config_key_errors_exit_2(key, value, message, tmp_path, model_file,
                                            capsys):
    path = sweep_file(tmp_path, model_file, **{key: value})
    code, err = main_exit(["sweep", "--config", path, "--out", tmp_path / "r.json"], capsys)
    assert (code, err.strip()) == (2, f"error: {message}")


@pytest.mark.parametrize("command, lipschitz", [
    ("estimate-fp-partial", 0), ("estimate-sp-partial", -1)])
def test_cli_probe_commands_reject_a_nonpositive_lipschitz_constant(
        command, lipschitz, tmp_path, model_file, capsys):
    code, err = main_exit([command, "--model", model_file, "--p", 0.5, "--gamma", 0.5,
                           "--eps", 0.2, "--lipschitz", lipschitz,
                           "--out", tmp_path / "o.json"], capsys)
    assert code == 2 and "lipschitz" in err


def test_cli_estimate_fp_partial_writes_the_same_bytes_at_one_and_two_threads(
        tmp_path, model_file):
    bundles = []
    for threads in ("1", "2"):
        out = tmp_path / f"fpp-{threads}.json"
        r = subprocess.run(
            [sys.executable, "-m", "auctionmetrics.cli", "estimate-fp-partial",
             "--model", str(model_file), "--p", "0.5", "--gamma", "0.5", "--eps", "0.2",
             "--seed", "4", "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "AUCTIONMETRICS_THREADS": threads},
        )
        assert r.returncode == 0, r.stderr
        bundles.append(out.read_bytes())
    assert bundles[0] == bundles[1]


def test_cli_estimate_fp_partial_matches_the_registry_entry(tmp_path, model_file, capsys):
    out = tmp_path / "fpp.json"
    code, err = main_exit(["estimate-fp-partial", "--model", model_file, "--p", 0.5,
                           "--gamma", 0.5, "--eps", 0.2, "--seed", 3, "--out", out], capsys)
    assert code == 0, err
    args = {"p": 0.5, "gamma": 0.5, "eps": 0.2}
    cdfs, diag = ESTIMATORS["fp-partial"].run(
        make_fp_partial_oracle(io_read_model(model_file)), args, 3)
    bundle = io_read_cdfs(out)
    assert len(bundle) == len(cdfs) == 2
    for a, b in zip(bundle, cdfs):
        assert a.breakpoints.tobytes() == b.breakpoints.tobytes()
        assert a.values.tobytes() == b.values.tobytes()
    assert json.loads(out.read_text())["diagnostics"] == diag


def test_cli_lower_bound_stdout():
    r = run_cli("lower-bound", "--k", 2, "--eps", 0.1, "--lambda", 0.2,
                "--n", 1000, "--trials", 3)
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["kolmogorov_f1_f1p"] >= 0.5


@pytest.mark.parametrize("trials", [0, -1])
def test_cli_lower_bound_needs_a_trial(trials, tmp_path, capsys):
    out = tmp_path / "lb.json"
    code, err = main_exit(["lower-bound", "--k", 2, "--eps", 0.1, "--lambda", 0.2,
                           "--n", 100, "--trials", trials, "--out", out], capsys)
    assert code == 2 and "trials must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--p", 0.3, "--h", 0.1, "--grid", -3], "--grid must be at least 1"),
    (["--p", 0.3, "--h", 0.1, "--grid", 0], "--grid must be at least 1"),
    (["--p", 0.5, "--h", 0.9], "need 0 <= p <= 1 - h"),
    (["--p", -0.1, "--h", 0.1], "need 0 <= p <= 1 - h"),
    # 2^50 points would take 8 PiB
    (["--p", 0.3, "--h", 0.1, "--grid", 2 ** 50], "--grid 1125899906842624 would hold 1.13e+15"),
], ids=["grid -3", "grid 0", "p above 1 - h", "p below 0", "grid 2^50"])
def test_cli_estimate_fp_density_checks_its_grid(flags, message, tmp_path, capsys):
    cdf = tmp_path / "cdf.json"
    io_write_cdfs(cdf, [uniform_cdf()])
    out = tmp_path / "density.json"
    code, err = main_exit(["estimate-fp-density", "--cdf", cdf, *flags, "--out", out],
                          capsys)
    assert code == 2 and message in err
    assert not out.exists()


def test_cli_estimate_fp_density_differences_the_stored_bundle(tmp_path, fp_log, capsys):
    # estimate-fp -> bundle -> estimate-fp-density is the one density path
    cdfs, density = tmp_path / "cdfs.json", tmp_path / "density.json"
    code, err = main_exit(["estimate-fp", "--samples", fp_log, "--k", 2, "--mode", "effective",
                           "--p", 0.3, "--gamma", 0.09, "--out", cdfs], capsys)
    assert code == 0, err
    code, err = main_exit(["estimate-fp-density", "--cdf", cdfs, "--p", 0.3, "--h", 0.1,
                           "--grid", 64, "--out", density], capsys)
    assert code == 0, err
    fhats, _ = fp_estimator.estimate_bid_cdf_effective(
        io_read_samples(fp_log, FORMAT_FP, 2), fp_estimator.FpEstimatorConfig(0.3, 0.09, 0.045))
    x = np.linspace(0.3, 1.0 - 0.1, 64)
    assert json.loads(density.read_text())["densities"] == [
        {"x": [fmt_float(v) for v in x],
         "density": [fmt_float(v) for v in fp_estimator.estimate_density(F, 0.1).eval(x)]}
        for F in fhats]


# each estimate command and the registry kinds it runs
ESTIMATE_COMMAND_KINDS = {
    "estimate-fp": ("fp-effective", "fp-full"),
    "estimate-fp-partial": ("fp-partial",),
    "estimate-values": ("fp-value",),
    "estimate-sp": ("sp",),
    "estimate-sp-partial": ("sp-partial",),
}


def test_estimate_flags_are_the_registry_keys():
    sub = cli.build_parser()._subparsers._group_actions[0]
    commands = {name for name in sub.choices if name.startswith("estimate-")}
    assert commands == {"estimate-fp-density", *ESTIMATE_COMMAND_KINDS}
    # every registry kind is run by exactly one estimate command
    run = [kind for kinds in ESTIMATE_COMMAND_KINDS.values() for kind in kinds]
    assert sorted(run) == sorted(ESTIMATORS)
    for command, kinds in ESTIMATE_COMMAND_KINDS.items():
        entries = [ESTIMATORS[kind] for kind in kinds]
        inputs = {"samples", "k"} if entries[0].observes in (FORMAT_FP, FORMAT_SP) \
            else {"model", "seed"}
        inputs |= {"help", "out"} | ({"mode"} if len(kinds) > 1 else set())
        actions = {a.dest: a for a in sub.choices[command]._actions}
        assert inputs <= set(actions), command
        flags = {dest: a for dest, a in actions.items() if dest not in inputs}
        assert set(flags) == {key for e in entries for key in e.required + e.optional}, \
            command
        for key, action in flags.items():
            assert action.option_strings == ["--" + key]
            assert action.required == (len(kinds) == 1 and key in entries[0].required)
            assert action.default is None
            assert action.type is float
    # the second-price estimator is fixed by its accuracy parameters
    assert (ESTIMATORS["sp"].required, ESTIMATORS["sp"].optional) == (
        ("alpha", "eta", "eps"), ())


@pytest.fixture(scope="module")
def fp_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "fp.csv"
    io_write_samples(path, simulate_fp(uniform_model(), 2000, 5))
    return path


@pytest.mark.parametrize("mode, flags, key", [
    ("full", ["--lambda", 1, "--eps", 0.2, "--p", 0.9, "--gamma", 0.5], "p"),
    ("full", ["--lambda", 1, "--eps", 0.2, "--gamma", 0.5], "gamma"),
    ("effective", ["--p", 0.3, "--gamma", 0.09, "--lambda", 7], "lambda"),
], ids=["full --p", "full --gamma", "effective --lambda"])
def test_cli_estimate_fp_refuses_the_other_modes_flags(mode, flags, key, tmp_path, fp_log,
                                                      capsys):
    out = tmp_path / "o.json"
    code, err = main_exit(["estimate-fp", "--samples", fp_log, "--k", 2, "--mode", mode,
                           *flags, "--out", out], capsys)
    assert code == 2 and f"estimator 'fp-{mode}' takes no key '{key}'" in err
    assert not out.exists()


def test_cli_estimate_fp_partial_lipschitz_defaults_to_the_estimators_own(
        tmp_path, model_file, capsys):
    outs = [tmp_path / "default.json", tmp_path / "one.json"]
    for out, extra in zip(outs, ([], ["--lipschitz", 1])):
        code, err = main_exit(["estimate-fp-partial", "--model", model_file, "--p", 0.5,
                               "--gamma", 0.5, "--eps", 0.2, "--seed", 3, *extra,
                               "--out", out], capsys)
        assert code == 0, err
    assert outs[0].read_bytes() == outs[1].read_bytes()


def density_model(**fields):
    """A model file's dict: two uniform density bidders, with ``fields`` replaced."""
    d = {"kind": "density", "knots": [0.0, 1.0], "density": [1.0, 1.0],
         "alpha_lo": 0.5, "eta_hi": 2.0, "lipschitz": None, **fields}
    return {"bid_dists": [d, d], "value_dists": None}


# json reads NaN and Infinity; each of these was accepted, or failed late
NON_FINITE_MODELS = {
    "nan density": density_model(density=[1.0, math.nan]),
    "nan breakpoint": {"bid_dists": [{"kind": "cdf", "interpolation": "linear",
                                      "breakpoints": [0.0, math.nan, 1.0],
                                      "values": [0.0, 0.5, 1.0]}] * 2},
    "string density": density_model(density=[1.0, "q"]),
    "nan alpha_lo": density_model(alpha_lo=math.nan),
    "infinite eta_hi": density_model(eta_hi=math.inf),
    "nan lipschitz": density_model(lipschitz=math.nan),
    # numpy's ValueError on a ragged array: a traceback and exit 1 before
    "ragged knots": density_model(knots=[0.0, [0.5, 1.0]]),
    "ragged breakpoints": {"bid_dists": [{"kind": "cdf", "interpolation": "linear",
                                          "breakpoints": [[0.0], [0.0, 1.0]],
                                          "values": [0.0, 1.0]}] * 2},
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_MODELS))
def test_cli_simulate_rejects_a_non_finite_model(case, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(NON_FINITE_MODELS[case]))
    out = tmp_path / "sp.csv"
    code, err = main_exit(["simulate", "--model", path, "--format", "sp",
                           "--n", 100, "--out", out], capsys)
    assert code == 2 and "must be finite numbers" in err
    assert not out.exists()


def test_cli_probe_command_rejects_a_nan_model_as_input(tmp_path, capsys):
    # an estimator failure (exit 3) before: the NaN bids made the probe grid degenerate
    path = tmp_path / "model.json"
    path.write_text(json.dumps(NON_FINITE_MODELS["nan density"]))
    code, err = main_exit(["estimate-fp-partial", "--model", path, "--p", 0.5,
                           "--gamma", 0.5, "--eps", 0.2, "--out", tmp_path / "o.json"], capsys)
    assert code == 2 and "density must be finite numbers" in err


@pytest.mark.parametrize("fields, message", [
    ({"values": [math.nan, 1.0]}, "values must be finite numbers"),
    ({"values": [0.0, "q"]}, "values must be finite numbers"),
    # numpy's ValueError: a traceback and exit 1 before
    ({"breakpoints": [[0.0], [0.0, 1.0]]},
     "breakpoints must be finite numbers, not a ragged array"),
    # read as true before
    ({"is_full_cdf": "no"}, "is_full_cdf must be true or false, not 'no'"),
], ids=["nan", "string", "ragged", "string is_full_cdf"])
def test_cli_metric_rejects_a_non_finite_bundle(fields, message, tmp_path, capsys):
    good = tmp_path / "good.json"
    io_write_cdfs(good, [uniform_cdf()])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": 1, "diagnostics": {}, "cdfs": [
        {"interpolation": "linear", "breakpoints": [0.0, 1.0], "values": [0.0, 1.0],
         "is_full_cdf": True, **fields}]}))
    code, err = main_exit(["metric", "--a", good, "--b", bad, "--kind", "kolmogorov"], capsys)
    assert (code, err.strip()) == (2, f"error: {message}")


def test_cli_metric_rejects_a_step_bundle_ending_above_one(tmp_path, capsys):
    # it read 0.8 at 1 before, and a distance of 0.2 from the same staircase ending at 1
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    io_write_cdfs(good, [PiecewiseCdf([0.3, 1.0], [0.8, 1.0])])
    bad.write_text(json.dumps({"version": 1, "diagnostics": {}, "cdfs": [
        {"interpolation": "step", "breakpoints": [0.3, 1 + 1e-12], "values": [0.8, 1.0],
         "is_full_cdf": True}]}))
    code, err = main_exit(["metric", "--a", good, "--b", bad, "--kind", "kolmogorov"], capsys)
    assert (code, err.strip()) == (
        2, "error: a step CDF's breakpoints must not exceed 1, and the last is 1.000000000001")


def test_cli_metric_rejects_a_linear_bundle_ending_above_one(tmp_path, capsys):
    # it read 0.9999999999997142 at 1 and beyond before
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    io_write_cdfs(good, [PiecewiseCdf([0.3, 1.0], [0.8, 1.0], interpolation="linear")])
    bad.write_text(json.dumps({"version": 1, "diagnostics": {}, "cdfs": [
        {"interpolation": "linear", "breakpoints": [0.3, 1 + 1e-12], "values": [0.8, 1.0],
         "is_full_cdf": True}]}))
    code, err = main_exit(["metric", "--a", good, "--b", bad, "--kind", "kolmogorov"], capsys)
    assert (code, err.strip()) == (
        2, "error: a linear CDF's breakpoints must not exceed 1, and the last is 1.000000000001")


def test_cli_estimate_values_needs_two_bidders(tmp_path, capsys):
    # --k 1 wrote a bundle before
    samples = tmp_path / "fp.csv"
    samples.write_text("y,z\n0.25,1\n0.5,1\n0.75,1\n")
    out = tmp_path / "values.json"
    code, err = main_exit(["estimate-values", "--samples", samples, "--k", 1, "--p", 0.2,
                           "--gamma", 0.05, "--eps", 0.1, "--zeta", 1.0, "--out", out], capsys)
    assert code == 2 and "k >= 2 bidders" in err
    assert not out.exists()
