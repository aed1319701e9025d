"""System cost (Eq. 9) and DRL reward (Eq. 13).

The cost of iteration k is ``T^k + lambda * sum_i E_i^k``; the reward is
its negation.  ``time_unit_s`` expresses the (unitless) time axis of the
paper's figures: the paper never states units for its cost/time numbers,
so presets calibrate this scale to land in the published ballpark while
the underlying simulation stays in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis import sanitizer as _sanitizer


@dataclass(frozen=True)
class CostModel:
    """Weighted time/energy cost of Eq. (9)."""

    #: Time/energy tradeoff weight lambda (>= 0).
    lam: float = 1.0
    #: Seconds per reported "time unit" (pure display/calibration scale).
    time_unit_s: float = 1.0

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.time_unit_s <= 0:
            raise ValueError("time_unit_s must be positive")

    def time_units(self, seconds) -> np.ndarray:
        return np.asarray(seconds, dtype=np.float64) / self.time_unit_s

    def cost(self, iteration_time_s: float, total_energy: float) -> float:
        """``T^k + lambda sum_i E_i^k`` in display units."""
        value = float(self.time_units(iteration_time_s) + self.lam * total_energy)
        san = _sanitizer.ACTIVE
        if san is not None:
            san.check_cost(self, float(iteration_time_s), float(total_energy), value)
        return value

    def reward(self, iteration_time_s: float, total_energy: float) -> float:
        """Eq. (13): the negated cost."""
        return -self.cost(iteration_time_s, total_energy)
