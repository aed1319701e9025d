"""The benchmark's percentile rule.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it, so a tail figure is never the value of one or two
outliers.  ``run.py`` prints the sample count beside every percentile.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def min_samples(q: float) -> int:
    """Smallest sample count that leaves ``MIN_BEYOND`` samples beyond
    the ``q``-th percentile (``0 < q < 100``)."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - q) - 1e-9)


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default method).

    Raises :class:`ValueError` when fewer than :func:`min_samples` values
    are given.
    """
    need = min_samples(q)
    if len(samples) < need:
        raise ValueError(
            f"p{q:g} needs at least {need} samples "
            f"({MIN_BEYOND} beyond it), got {len(samples)}"
        )
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

