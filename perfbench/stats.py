"""Small statistics helpers shared by the benchmark and its comparison."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence


def percentile(values: Sequence[float], q: float) -> Dict[str, float]:
    """The ``q``-quantile (linear interpolation) with its sample count.

    Returns ``{"value", "samples", "beyond"}``: ``beyond`` is how many
    samples lie above the percentile's rank, so a reader can tell
    whether the tail is supported by the data.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return {"value": math.nan, "samples": 0, "beyond": 0}
    rank = (n - 1) * q
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)
    if math.isnan(value):  # inf - inf between two failures
        value = ordered[hi]
    return {"value": value, "samples": n, "beyond": n - 1 - lo}


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        only = values[0] if values else math.nan
        return {"q1": only, "median": only, "q3": only, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else math.inf
    return {"q1": q1, "median": median, "q3": q3, "spread": spread}


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def safe_ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
