"""The quartile helper behind every timing metric."""

import statistics

import pytest

from rmabench.stats import quartiles, summary


def test_quartiles_stay_inside_the_data():
    # Two or three repeats (--quick): the lower quartile is a value the
    # run could have produced, never an extrapolation below the minimum.
    assert quartiles([2.0, 4.0]) == (2.5, 3.0, 3.5)
    q1, q2, q3 = quartiles([3.0, 1.0, 2.0])
    assert (q1, q2, q3) == (1.5, 2.0, 2.5)
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_quartiles_of_eight_repeats():
    values = [1.90, 1.95, 2.00, 2.05, 2.10, 2.20, 2.40, 2.51]
    q1, q2, q3 = quartiles(values)
    assert q2 == statistics.median(values)
    assert min(values) < q1 < q2 < q3 < max(values)
    # One slow outlier moves the mean, not the lower quartile.
    assert quartiles(values[:-1] + [9.0])[0] == q1


def test_quartiles_reject_empty():
    with pytest.raises(ValueError):
        quartiles([])


def test_summary_records_the_spread():
    s = summary([4.0, 1.0, 3.0, 2.0])
    assert s["n"] == 4 and s["min"] == 1.0 and s["max"] == 4.0
    assert s["p25"] <= s["median"] <= s["p75"]

