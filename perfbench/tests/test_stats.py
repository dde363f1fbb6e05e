import statistics

import pytest

from stats import median, percentile, ratio


def test_percentile_interpolates_between_order_statistics():
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.0) == 1.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 1.0) == 4.0
    assert percentile(list(range(101)), 0.9) == pytest.approx(90.0)
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([], 0.5) == 0.0


def test_percentile_rejects_fractions_outside_unit_interval():
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_median_matches_statistics():
    sample = [5.0, 1.0, 9.0, 3.0, 4.0, 8.0]
    assert median(sample) == statistics.median(sample)


def test_ratio_of_nothing_is_zero():
    assert ratio(3, 4) == 0.75
    assert ratio(3, 0) == 0.0

