"""The metric maths."""

import math

import pytest

from run import host_scaled
from stats import gmean, mean, median, percentile, samples_beyond, share


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([5.0], 90) == 5.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_samples_beyond_sets_the_supported_percentile():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(130, 90) == 13
    assert samples_beyond(0, 90) == 0


def test_median_and_mean():
    assert median([4.0, 1.0, 3.0]) == 3.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert mean([1.0, 2.0, 6.0]) == 3.0


def test_gmean():
    assert gmean([2.0, 8.0]) == pytest.approx(4.0)
    assert gmean([7.0]) == pytest.approx(7.0)
    assert gmean([1.0, 10.0, 100.0]) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        gmean([1.0, 0.0])


def test_share():
    assert share(0, 10) == 0.0
    assert share(3, 12) == 0.25
    assert math.isclose(1.0 - share(1, 3), 2 / 3)
    with pytest.raises(ValueError):
        share(0, 0)


def test_host_scaling_by_unit():
    assert host_scaled(3.0, "s", 1.5) == pytest.approx(2.0)
    assert host_scaled(10.0, "MB/s", 1.5) == pytest.approx(15.0)
    assert host_scaled(4.0, "1/s", 0.5) == pytest.approx(2.0)
    assert host_scaled(0.2, "dB", 1.5) == 0.2
    assert host_scaled(520.0, "MB", 1.5) == 520.0
