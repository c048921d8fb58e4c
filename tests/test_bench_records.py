"""Perf records: each ``BENCH_*.json`` at the repository root.

A record holds the last-line JSON of each ``benchmarks/run.py`` run it took,
for the parent commit and for the change, so that a claimed gain can be
checked against the runs behind it. Every metric a run or a summary names
must be one ``BENCHMARK.json`` declares. Each summary is recomputed from the
untraced (trace 0) runs: per side the median and quartiles (linear
interpolation, as ``numpy.percentile``) and the run count, and over the pairs
the number the change wins and ties. The record's claim must meet its rule.
"""

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


# the one claim rule records state: wins over pairs, and a median gap wider
# than the parent's interquartile distance
RULE = ("change better on at least 9 of 10 of all pairs, and the medians apart by more "
        "than the parent's interquartile distance")


def declared_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}, \
        {w["name"] for w in bench["workloads"]}


def higher_is_better():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "higher" for m in bench["end_to_end"] + bench["per_layer"]}


def recomputed_summary(record, workload, metric):
    """(per-side {q1, median, q3, runs}, change wins, ties, pairs) of one
    metric from the record's trace-0 runs of ``workload``."""
    sides, pairs = {side: [] for side in SIDES}, {}
    for run in record["runs"]:
        if run["workload"] == workload and run["trace"] == 0:
            value = run["result"]["metrics"][metric]["value"]
            sides[run["side"]].append(value)
            pairs.setdefault((run["seed"], run["pair"]), {})[run["side"]] = value
    stats = {side: dict(zip(("q1", "median", "q3"), np.percentile(values, [25, 50, 75])),
                        runs=len(values))
             for side, values in sides.items()}
    assert all(set(pair) == set(SIDES) for pair in pairs.values()), "a pair lacks a side"
    sign = 1.0 if higher_is_better()[metric] else -1.0
    wins = sum(sign * (p["change"] - p["parent"]) > 0 for p in pairs.values())
    ties = sum(p["change"] == p["parent"] for p in pairs.values())
    return stats, wins, ties, len(pairs)


def record_cases():
    return [(path, workload, metric) for path in RECORDS
            for workload, summary in json.loads(path.read_text()).get("summary", {}).items()
            for metric in summary]


def test_the_repository_keeps_a_perf_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_perf_record_names_only_declared_metrics_on_both_sides(path):
    record = json.loads(path.read_text())
    metrics, workloads = declared_metrics()
    for side in SIDES:
        assert record[side]["commit"], f"{path.name}: no {side} commit"
    seen = set()
    for run in record["runs"]:
        assert run["side"] in SIDES and run["workload"] in workloads
        seen.add(run["side"])
        result = run["result"]
        assert {"correct", "attempted", "failed", "metrics"} <= set(result)
        assert set(result["metrics"]) <= metrics, \
            f"{path.name}: undeclared {sorted(set(result['metrics']) - metrics)}"
    assert seen == set(SIDES), f"{path.name}: runs of {sorted(seen)} only"
    for workload, summary in record.get("summary", {}).items():
        assert workload in workloads and set(summary) <= metrics


@pytest.mark.parametrize("path, workload, metric", record_cases(),
                         ids=lambda case: getattr(case, "name", case))
def test_perf_record_summaries_are_those_of_its_runs(path, workload, metric):
    record = json.loads(path.read_text())
    stated = record["summary"][workload][metric]
    stats, wins, ties, pairs = recomputed_summary(record, workload, metric)
    for side in SIDES:
        assert stated[side]["runs"] == stats[side]["runs"]
        for key in ("q1", "median", "q3"):
            assert stated[side][key] == pytest.approx(stats[side][key], rel=1e-12, abs=0.0), \
                f"{path.name} {workload} {metric} {side} {key}"
    assert (stated["change_wins"], stated["ties"], stated["pairs"]) == (wins, ties, pairs)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_perf_record_meets_its_claim(path):
    record = json.loads(path.read_text())
    claim = record["claim"]
    assert claim["rule"] == RULE
    stats, wins, _, pairs = recomputed_summary(record, claim["workload"], claim["metric"])
    assert pairs >= 10 and wins >= 0.9 * pairs, f"{path.name}: {wins} of {pairs} pairs"
    parent, change = stats["parent"], stats["change"]
    gap = change["median"] - parent["median"]
    if not higher_is_better()[claim["metric"]]:
        gap = -gap
    assert gap > parent["q3"] - parent["q1"], \
        f"{path.name}: median gap {gap:.6g} within the parent's quartiles"
