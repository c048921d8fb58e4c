"""Perf records: each ``BENCH_*.json`` at the repository root.

A record holds the last-line JSON of each ``benchmarks/run.py`` run it took,
for the parent commit and for the change, so that a claimed gain can be
checked against the runs behind it. Every metric a run or a summary names
must be one ``BENCHMARK.json`` declares.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def declared_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}, \
        {w["name"] for w in bench["workloads"]}


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
