import math
import statistics

import pytest

from perfbench import stats


def test_tail_leaves_ten_samples_beyond_and_reports_the_count():
    values = [float(i) for i in range(1, 101)]  # 1..100
    value, n, beyond = stats.tail(values, 0.9)
    assert (value, n, beyond) == (90.0, 100, 10)


def test_tail_refuses_a_sample_too_small_for_the_percentile():
    with pytest.raises(ValueError, match="need at least 10"):
        stats.tail([float(i) for i in range(99)], 0.9)
    with pytest.raises(ValueError):
        stats.tail([1.0] * 999, 0.99)


def test_min_samples_for_tail_is_the_first_size_the_tail_accepts():
    for q in (0.5, 0.9, 0.99):
        n = stats.min_samples_for_tail(q)
        assert stats.samples_beyond(n, q) >= stats.MIN_BEYOND
        assert stats.samples_beyond(n - 1, q) < stats.MIN_BEYOND
        stats.tail([1.0] * n, q)
    assert stats.min_samples_for_tail(0.9) == 100
    assert stats.min_samples_for_tail(0.99) == 1000


def test_percentile_is_nearest_rank():
    assert stats.percentile([5.0, 1.0, 3.0], 0.5) == 3.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0


def test_gmean_weights_every_action_equally():
    assert stats.gmean([1.0, 100.0]) == pytest.approx(10.0)
    assert stats.gmean([2.0, 2.0, 2.0]) == pytest.approx(2.0)
    # One heavy action moves the arithmetic mean far more than the gmean.
    values = [1.0] * 99 + [1000.0]
    assert stats.gmean(values) == pytest.approx(1000.0 ** 0.01)
    with pytest.raises(ValueError):
        stats.gmean([1.0, 0.0])


def test_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.8, 11.5, 9.8]
    q1, _, q3 = statistics.quantiles(values, n=4)
    s = stats.spread(values)
    assert s["median"] == statistics.median(values)
    assert s["iqr_frac"] == pytest.approx((q3 - q1) / statistics.median(values))
    assert s["max_over_min"] == pytest.approx(12.0 / 9.0)
    assert not math.isnan(stats.spread([3.0])["iqr_frac"])

