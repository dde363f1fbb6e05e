"""Percentile and ratio helpers shared by every workload.

Percentiles interpolate linearly between the two straddling order
statistics (NumPy's default method), so small samples move smoothly.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(sample: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile of ``sample`` (0.0 for an empty sample)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if not sample:
        return 0.0
    ordered = sorted(sample)
    position = fraction * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * weight


def median(sample: Sequence[float]) -> float:
    return percentile(sample, 0.5)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0

