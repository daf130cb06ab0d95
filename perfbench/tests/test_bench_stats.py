"""The percentile rule and the spread statistic."""

import pytest

import stats


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond_it(n, expected):
    assert stats.tail_percentile(n) == expected


def test_spread_is_interquartile_distance_over_median():
    # statistics.quantiles (exclusive method) of 1..10: 2.75, 5.5, 8.25
    assert stats.spread(range(1, 11)) == pytest.approx(5.5 / 5.5)
    assert stats.spread([2.0, 2.0, 2.0, 2.0]) == 0.0


def test_worsening_respects_direction():
    assert stats.worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert stats.worsening(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert stats.worsening(10.0, 9.0, "higher") == pytest.approx(0.1)
