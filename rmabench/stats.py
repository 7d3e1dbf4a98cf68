"""Order statistics for a handful of repeats."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

__all__ = ["quartiles", "summary"]


def quartiles(values: Sequence[float]):
    """``(p25, median, p75)`` by linear interpolation *inside* the data
    range (``method="inclusive"``): with the two or three repeats of a
    ``--quick`` run the default exclusive method extrapolates below the
    minimum, and a timing no repeat ever achieved is not a measurement.
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(values: Sequence[float]) -> Dict[str, float]:
    """The spread recorded beside every timing metric."""
    q1, q2, q3 = quartiles(values)
    return {"n": len(values), "min": min(values), "p25": q1,
            "median": q2, "p75": q3, "max": max(values)}

