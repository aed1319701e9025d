"""Streaming statistics and empirical distribution helpers.

``RunningMeanStd`` implements Welford/Chan parallel-update moments and is
used for observation and return normalization in the RL substrate.
``EmpiricalCDF`` backs the CDF figures of the paper (Fig. 7(d)-(f)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np


class RunningStat:
    """Scalar Welford running mean/variance accumulator."""

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def push(self, x: float) -> None:
        self._n += 1
        delta = x - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (x - self._mean)

    def extend(self, xs: Sequence[float]) -> None:
        for x in xs:
            self.push(float(x))

    @property
    def n(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def var(self) -> float:
        return self._m2 / self._n if self._n > 1 else 0.0

    @property
    def std(self) -> float:
        return float(np.sqrt(self.var))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunningStat(n={self._n}, mean={self._mean:.4g}, std={self.std:.4g})"


class RunningMeanStd:
    """Vector running mean/variance with batched (Chan) updates.

    The update is numerically stable for both single samples and large
    batches; shapes are fixed at construction.
    """

    def __init__(self, shape: Tuple[int, ...] = (), epsilon: float = 1e-4) -> None:
        self.mean = np.zeros(shape, dtype=np.float64)
        self.var = np.ones(shape, dtype=np.float64)
        self.count = float(epsilon)
        self.shape = tuple(shape)

    def update(self, batch: np.ndarray) -> None:
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim == len(self.shape):
            batch = batch[None]
        if batch.shape[1:] != self.shape:
            raise ValueError(f"batch shape {batch.shape[1:]} != stat shape {self.shape}")
        if batch.shape[0] == 1:
            # One sample: its mean is the row and its variance exactly 0,
            # so the reductions below would only reproduce them.
            self._update_from_moments(batch[0], 0.0, 1)
            return
        b_mean = batch.mean(axis=0)
        b_var = batch.var(axis=0)
        b_count = batch.shape[0]
        self._update_from_moments(b_mean, b_var, b_count)

    def _update_from_moments(self, b_mean, b_var, b_count) -> None:
        delta = b_mean - self.mean
        tot = self.count + b_count
        self.mean = self.mean + delta * b_count / tot
        m_a = self.var * self.count
        m_b = b_var * b_count
        m2 = m_a + m_b + np.square(delta) * self.count * b_count / tot
        self.var = m2 / tot
        self.count = tot

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.var)

    def normalize(self, x: np.ndarray, clip: float = 10.0) -> np.ndarray:
        """Whiten ``x`` by the running moments and clip to ``[-clip, clip]``."""
        z = (np.asarray(x, dtype=np.float64) - self.mean) / np.sqrt(self.var + 1e-8)
        return np.clip(z, -clip, clip)

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {
            "mean": self.mean.copy(),
            "var": self.var.copy(),
            "count": np.asarray(self.count),
        }

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self.mean = np.asarray(state["mean"], dtype=np.float64).copy()
        self.var = np.asarray(state["var"], dtype=np.float64).copy()
        self.count = float(np.asarray(state["count"]))
        self.shape = self.mean.shape


@dataclass
class EmpiricalCDF:
    """Empirical cumulative distribution function of a sample.

    Evaluation uses the right-continuous convention
    ``F(x) = (# samples <= x) / n``.
    """

    samples: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        self.samples = np.sort(np.asarray(self.samples, dtype=np.float64).ravel())
        if self.samples.size == 0:
            raise ValueError("EmpiricalCDF requires at least one sample")

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.searchsorted(self.samples, x, side="right") / self.samples.size

    def quantile(self, q) -> np.ndarray:
        """Inverse CDF (linear-interpolated quantile)."""
        return np.quantile(self.samples, q)

    def fraction_below(self, x: float) -> float:
        """P[X <= x] — the quantity the paper quotes, e.g. '80% below 8'."""
        return float(self(x))

    def support(self) -> Tuple[float, float]:
        return float(self.samples[0]), float(self.samples[-1])

    def curve(self, n_points: int = 200) -> Tuple[np.ndarray, np.ndarray]:
        """Return (x, F(x)) arrays suitable for plotting a CDF figure."""
        lo, hi = self.support()
        xs = np.linspace(lo, hi, n_points)
        return xs, self(xs)


def ecdf(samples: Sequence[float]) -> EmpiricalCDF:
    """Convenience constructor for :class:`EmpiricalCDF`."""
    return EmpiricalCDF(np.asarray(list(samples)))


def quantiles(samples: Sequence[float], qs=(0.1, 0.25, 0.5, 0.75, 0.9)) -> Dict[float, float]:
    arr = np.asarray(list(samples), dtype=np.float64)
    return {float(q): float(np.quantile(arr, q)) for q in qs}


def describe(samples: Sequence[float]) -> Dict[str, float]:
    """Summary statistics used by the experiment reports."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot describe an empty sample")
    return {
        "n": float(arr.size),
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "min": float(arr.min()),
        "p10": float(np.quantile(arr, 0.1)),
        "median": float(np.median(arr)),
        "p90": float(np.quantile(arr, 0.9)),
        "max": float(arr.max()),
    }
