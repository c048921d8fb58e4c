import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from auctionmetrics.auction_sim import AuctionModel, simulate_fp, simulate_sp
from auctionmetrics.dist_core import uniform_cdf
from auctionmetrics.errors import ValidationError
from auctionmetrics.harness import (
    ExperimentConfig,
    run_convergence,
    run_lower_bound_experiment,
)
from auctionmetrics.io import (
    FORMAT_FP,
    FORMAT_SP,
    config_hash,
    io_read_cdfs,
    io_read_model,
    io_read_samples,
    io_write_cdfs,
    io_write_model,
    io_write_samples,
)


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


def test_config_hash_is_order_insensitive_and_stable():
    a = config_hash({"x": 1, "y": [1.0, 2.0]})
    b = config_hash({"y": [1.0, 2.0], "x": 1})
    assert a == b and len(a) == 16
    assert config_hash({"x": 2, "y": [1.0, 2.0]}) != a


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


def test_convergence_isolates_failing_cells():
    # gamma too large for eps makes the estimator config invalid per cell
    cfg = sweep_config(estimator_args={"p": 0.3, "gamma": 0.09, "eps": 0.09})
    report = run_convergence(cfg)
    assert report.rows == []
    assert all("error" in d for d in report.diagnostics)


def test_lower_bound_experiment_summary():
    result = run_lower_bound_experiment(k=2, eps=0.1, lam=0.2, n=2000, trials=8)
    assert result["kolmogorov_f1_f1p"] >= 0.5
    assert result["mean_low_count"] == pytest.approx(
        result["expected_low_count"], rel=0.5)
    # the uninformative tails look identical to a two-sample KS test
    assert result["ks_below_threshold"] >= 6


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


def test_cli_estimate_sp(tmp_path, model_file):
    samples = tmp_path / "sp.csv"
    out = tmp_path / "sp.json"
    run_cli("simulate", "--model", model_file, "--format", "sp",
            "--n", 20000, "--seed", 7, "--out", samples)
    r = run_cli("estimate-sp", "--samples", samples, "--k", 2,
                "--alpha", 1.0, "--eta", 1.0, "--eps", 0.1, "--out", out)
    assert r.returncode == 0, r.stderr
    assert len(io_read_cdfs(out)) == 2


def test_cli_metric_output(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    io_write_cdfs(a, [uniform_cdf()])
    io_write_cdfs(b, [uniform_cdf()])
    r = run_cli("metric", "--a", a, "--b", b, "--kind", "kolmogorov")
    assert r.returncode == 0
    assert r.stdout.strip() == "1,0"


def test_cli_exit_code_missing_file(tmp_path):
    r = run_cli("estimate-fp", "--samples", tmp_path / "nope.csv", "--k", 2,
                "--p", 0.3, "--gamma", 0.09, "--out", tmp_path / "o.json")
    assert r.returncode == 4
    assert "i/o error" in r.stderr


def test_cli_exit_code_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"foo": 1}))
    r = run_cli("metric", "--a", bad, "--b", bad, "--kind", "levy")
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_cli_exit_code_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("metric", "--a", bad, "--b", bad, "--kind", "levy")
    assert r.returncode == 2


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


def test_cli_lower_bound_stdout():
    r = run_cli("lower-bound", "--k", 2, "--eps", 0.1, "--lambda", 0.2,
                "--n", 1000, "--trials", 3)
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["kolmogorov_f1_f1p"] >= 0.5
