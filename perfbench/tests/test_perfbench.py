"""Tests of the benchmark itself: a tiny run of every workload, a wrong output
counted as a failed job, and the self-time arithmetic of the traced run."""

import dataclasses
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from phaselab import phasespace  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# The end-to-end metrics each workload's report names, with their units.
REPORTED = {
    "identity-sweep": [("states_per_s", "1/s"), ("job_p50_s", "s"), ("job_tail_s", "s")],
    "kernels-n2048": [("cells_per_s", "1/s")],
    "dist-n1024": [("cells_per_s", "1/s"), ("reload_s", "s")],
    "sample-1m": [("shots_per_s", "1/s")],
}
COMMON = [("setup_s", "s"), ("peak_rss_mib", "MiB"), ("failed_frac", "ratio")]


def _tiny_run(workload: str, trace: int, seconds: str) -> list:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    lines = _tiny_run(workload, 0, "0.5")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = "\n".join(lines[:-1])
    assert lines[0].startswith("machine {")
    for name, unit in REPORTED[workload] + COMMON:
        assert re.search(rf"^  {name} = \S+ {re.escape(unit)}\b", report, re.M), name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload):
    lines = _tiny_run(workload, 1, "0")
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] >= 2
    listed = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    report = "\n".join(lines[:-1])
    for layer in spans.LAYERS:
        assert f"  {layer}.self_s = " in report


def test_wrong_output_lands_in_failed_frac(monkeypatch, tmp_path):
    honest = phasespace.husimi

    def off_by_a_little(psi, delta=1.0):
        q = honest(psi, delta)
        return dataclasses.replace(q, values=q.values * (1.0 + 1e-6))

    monkeypatch.setattr(phasespace, "husimi", off_by_a_little)
    result = tmp_path / "result.json"
    code = worker.main([
        "--workload", "identity-sweep", "--seed", "3", "--seconds", "0", "--tiny",
        "--workdir", str(tmp_path / "work"), "--result", str(result),
        "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
    ])
    assert code == 0
    main = json.loads(result.read_text())
    assert [j["passed"] for j in main["jobs"]] == [False]
    metrics = run.end_to_end([main["setup_s"]], main)
    report = run.details("identity-sweep", main, metrics)
    assert "  failed_frac = 1 ratio" in report


def test_self_time_subtracts_the_time_children_cover():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, None, 1),
        S("a", 1.0, 4.0, 0, 1),
        S("a.child", 2.0, 3.0, 1, 1),
        S("b", 5.0, 6.0, 0, 1),
        S("c", 5.5, 7.0, 0, 1),     # overlaps b: [5, 7] is covered once
        S("late", 9.0, 12.0, 0, 1),  # only [9, 10] lies inside root
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 3.0 - 2.0 - 1.0, 2.0, 1.0, 1.0, 1.5, 3.0])


def test_layer_metrics_are_per_traced_job():
    tracer = spans.Tracer()
    S = spans.Span
    tracer.spans = [
        S("phasespace.husimi", 0.0, 3.0, None, 1),
        S("core.fourier_sum", 0.5, 1.5, 0, 1),
        S("phasespace.husimi", 10.0, 13.0, None, 2),  # job 2 was not traced
    ]
    tracer.counts["core.fourier_sum.calls"] = 4
    layers = spans.layer_metrics(tracer, {1: 4.0, 3: 4.0})
    assert layers["phasespace.husimi.self_s"] == pytest.approx(1.0)
    assert layers["core.fourier_sum.self_s"] == pytest.approx(0.5)
    assert layers["phasespace.husimi.self_share"] == pytest.approx(0.25)
    assert layers["core.fourier_sum.calls"] == 2
    assert layers["measurement.sample_joint.accept_ratio"] == 0.0
