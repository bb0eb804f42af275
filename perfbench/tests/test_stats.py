import statistics

import numpy as np
import pytest

from cqbench import stats


def test_percentile_interpolates_between_closest_ranks():
    values = [4.0, 1.0, 3.0, 2.0]  # sorted: 1 2 3 4
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == 2.5
    # rank 0.99 * 3 = 2.97 -> 3 + 0.97 * (4 - 3)
    assert stats.percentile(values, 99) == pytest.approx(3.97)


def test_percentile_matches_numpy_linear_and_statistics_inclusive():
    rng = np.random.default_rng(7)
    values = rng.lognormal(size=501).tolist()
    for q in (1, 10, 25, 50, 90, 99, 99.9):
        assert stats.percentile(values, q) == pytest.approx(
            float(np.quantile(values, q / 100, method="linear")), rel=1e-12
        )
    quartiles = statistics.quantiles(values, n=4, method="inclusive")
    assert [stats.percentile(values, q) for q in (25, 50, 75)] == pytest.approx(quartiles)


def test_percentile_single_value_and_bad_input():
    assert stats.percentile([2.5], 99) == 2.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_median_mean_and_tail_count():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.mean([]) == 0.0
    assert stats.mean([1.0, 2.0]) == 1.5
    # 1000 samples: p99 sits at rank 989.01, so ranks 990..999 lie beyond it.
    assert stats.tail_count(1000, 99) == 10
    assert stats.tail_count(100, 90) == 10
    assert stats.tail_count(0, 50) == 0
