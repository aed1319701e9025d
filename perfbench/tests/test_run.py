"""A run without enough latency samples still yields a result."""

from perfbench import run


def measured(latency_s, attempted=50, failed=0):
    return {
        "latency_s": latency_s,
        "attempted": attempted,
        "failed": failed,
        "ops": attempted,
        "ops_time_s": 2.0,
        "peak_rss_mb": 40.0,
        "train_cost": 9.5,
    }


def test_no_latency_samples_leaves_out_only_the_percentiles():
    metrics = run.end_to_end([0.2, 0.3, 0.25], measured([]), correct=False)
    assert "latency_p50_ms" not in metrics
    assert metrics["setup_s"] == 0.25
    assert metrics["ops_per_s"] == 25.0
    assert metrics["success_rate"] == 0.0


def test_p50_needs_twenty_samples():
    short = run.end_to_end([0.2], measured([0.001] * 19), correct=True)
    assert "latency_p50_ms" not in short
    metrics = run.end_to_end([0.2], measured([0.001] * 20), correct=True)
    assert metrics["latency_p50_ms"] == 1.0
    assert metrics["success_rate"] == 1.0


def test_non_finite_figures_are_left_out():
    result = dict(measured([0.001] * 20), train_cost=float("nan"), ops_time_s=0.0)
    metrics = run.end_to_end([0.2], result, correct=True)
    assert "train_cost" not in metrics and "ops_per_s" not in metrics
    assert metrics["latency_p50_ms"] == 1.0
