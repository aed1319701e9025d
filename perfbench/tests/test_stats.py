"""The percentile rule: a percentile needs 10 samples beyond it."""

import numpy as np
import pytest

from perfbench import stats


def test_minimum_sample_counts():
    assert stats.min_samples(50.0) == 20
    assert stats.min_samples(90.0) == 100
    assert stats.min_samples(99.0) == 1000


@pytest.mark.parametrize("q", [50.0, 90.0])
def test_percentile_refused_one_sample_short(q):
    need = stats.min_samples(q)
    with pytest.raises(ValueError, match=f"at least {need} samples"):
        stats.percentile(list(range(need - 1)), q)


@pytest.mark.parametrize("q", [50.0, 90.0])
def test_percentile_matches_linear_interpolation(q):
    samples = list(np.random.default_rng(0).exponential(size=stats.min_samples(q) + 7))
    assert stats.percentile(samples, q) == pytest.approx(np.percentile(samples, q))


def test_ten_samples_lie_beyond_the_reported_p90():
    samples = [float(i) for i in range(100)]
    p90 = stats.percentile(samples, 90.0)
    assert sum(s > p90 for s in samples) == 10

