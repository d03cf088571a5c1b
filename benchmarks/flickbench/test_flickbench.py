"""Smoke test of flickbench: ``python -m pytest benchmarks/flickbench -q``.

Runs the suite once at ``--smoke`` size (every workload in its own
subprocess, with the layer pass), then reruns ``rpc`` in this process to
check determinism across processes and seeds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.flickbench.runner import END_TO_END, run_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

def _timed(name: str) -> bool:
    """Metrics read off the host clock; every other metric is a pure
    function of the program and the seed."""
    return (
        name in END_TO_END
        or name.endswith(("self_share", "self_us_per_req"))
        or name == "layer_pass.overhead"
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("flickbench") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    (reports,) = json.loads(out.read_text())["sets"]
    return reports


def test_every_workload_runs_correctly(smoke):
    assert list(smoke) == [w["name"] for w in BENCHMARK["workloads"]]
    for report in smoke.values():
        assert report["correct"] and report["failed"] == 0, report["checks"]
        assert all(report["checks"].values())


def test_metric_names_and_units_match_benchmark_json(smoke):
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    for report in smoke.values():
        emitted = {name: m["unit"] for name, m in report["metrics"].items()}
        assert emitted == declared, report["workload"]


def test_layer_shares_sum_to_one(smoke):
    for report in smoke.values():
        shares = [m["value"] for name, m in report["metrics"].items() if name.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0, abs=0.01), report["workload"]


def test_same_seed_same_simulation(smoke):
    again = run_workload("rpc", seed=0, seconds=0, trace=False, smoke=True)
    first = smoke["rpc"]
    assert again["inputs"] == first["inputs"]
    assert again["digest"] == first["digest"]
    for name, m in again["metrics"].items():
        if not _timed(name):
            assert m == first["metrics"][name], name


def test_other_seed_other_arrivals(smoke):
    other = run_workload("rpc", seed=1, seconds=0, trace=False, smoke=True)
    assert other["correct"]
    assert other["inputs"] != smoke["rpc"]["inputs"]
    assert other["digest"] != smoke["rpc"]["digest"]
