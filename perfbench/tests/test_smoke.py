"""Reduced-size runs of every workload must pass their output checks."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]


def run(cwd, *args):
    return subprocess.run(
        RUN + list(args), cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", ["train-sim50", "serve-testbed", "loop-drift"])
def test_smoke_run_passes_its_output_check(workload):
    proc = run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "output check: PASS" in lines
    for name in ("setup_s", "ops_per_s", "peak_rss_mb", "success_rate", "train_cost"):
        assert result["metrics"][name]["value"] > 0
        assert f"{name} = " in proc.stdout


def test_traced_smoke_run_reports_layers():
    # loop-drift's retrains run OfflineTrainer.train, so one traced smoke
    # run covers the training and the loop layers.
    proc = run(ROOT, "--workload", "loop-drift", "--seed", "5", "--seconds", "2",
               "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    assert result["correct"] is True
    assert metrics["core.train.calls"]["value"] >= 1
    assert metrics["loop.retrain.calls"]["value"] >= 1
    assert metrics["rl.act.calls"]["unit"] == "count"
    assert 0.9 <= metrics["core.train.covered_frac"]["value"] <= 1.0
    assert 0.9 <= metrics["loop.step.covered_frac"]["value"] <= 1.0
    assert "trace.overhead_frac" in metrics


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = run(str(tmp_path), "--workload", "train-sim50", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
