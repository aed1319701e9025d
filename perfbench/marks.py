"""Time marks and host-speed calibration for the repeated-work workloads.

A workload marks the end of small program calls (a vec-env step, a
simulator round, a PPO update).  A *segment* — an update cycle, a served
round — is a range of marks ``(a, b)``; its time is the sum of the
intervals between marks ``a`` and ``b``.

Every ``CALIBRATE_EVERY`` marked calls, :class:`Marks` also runs a fixed
calibration snippet (the benchmark's own numpy and pure-Python code, not
the program's) and records its time.  The marks' clock is paused while
the snippet runs, so no segment includes it.  The snippets taken while
a segment ran measure how fast the host ran it: on a shared host the
same code runs up to about 1.5 times slower for stretches of seconds to
minutes, and the snippet slows with it.  :meth:`Marks.scaled` turns
segment times into times on a host where the snippet takes
``REFERENCE_SNIPPET_S``.
"""

from __future__ import annotations

import bisect
import time
from typing import List, Optional, Sequence, Tuple

#: Marked calls between two calibration snippets.
CALIBRATE_EVERY = 32
#: Snippet time that the scaled figures refer to (on the 2-vCPU VM the
#: benchmark was written on, the snippet took 1.1-1.7 ms).
REFERENCE_SNIPPET_S = 1.5e-3


class _Snippet:
    """Fixed work mixing the kinds the program does: a pure-Python loop,
    small GEMMs of the N=50 observation width and elementwise numpy."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((64, 450))
        self.b = rng.standard_normal((450, 64))
        self.x = rng.standard_normal((8, 450))

    def __call__(self) -> int:
        total = 0
        for i in range(4000):
            total += i * i % 7
        for _ in range(4):
            self.a @ self.b
        y = self.x
        for _ in range(60):
            y = self.np.tanh(y * 0.5 + 0.1)
        return total


class Marks:
    """Marks on a clock that excludes the calibration snippets; a traced
    run passes ``calibrate=False`` so no span holds a snippet."""

    def __init__(self, calibrate: bool = True) -> None:
        self.times: List[float] = []
        #: ``(mark index, seconds)`` of each snippet since :meth:`clear`.
        self.snippets: List[Tuple[int, float]] = []
        self._snippet = _Snippet() if calibrate else None
        self._paused = 0.0
        self._calls = 0

    def clear(self) -> None:
        self.times.clear()
        self.snippets.clear()

    def mark(self) -> int:
        """Mark now; returns the mark's index."""
        self.times.append(time.perf_counter() - self._paused)
        return len(self.times) - 1

    def after(self, owner, name: str, record: Optional[List[int]] = None) -> None:
        """Mark the end of every call to ``owner.name``; with ``record``,
        also append each such mark's index to it."""
        fn = getattr(owner, name)

        def marked(*args, **kwargs):
            out = fn(*args, **kwargs)
            index = self.mark()
            if record is not None:
                record.append(index)
            self._calls += 1
            if self._snippet is not None and self._calls % CALIBRATE_EVERY == 0:
                self._calibrate(index)
            return out

        setattr(owner, name, marked)

    def _calibrate(self, index: int) -> None:
        t0 = time.perf_counter()
        self._snippet()
        spent = time.perf_counter() - t0
        self._paused += spent
        self.snippets.append((index, spent))

    def segments(self, spans: Sequence[Tuple[int, int]]) -> List[float]:
        """Each segment's time, from the current marks."""
        return [self.times[b] - self.times[a] for a, b in spans]

    def scaled(self, spans: Sequence[Tuple[int, int]]) -> List[float]:
        """Each segment's time on the reference host: multiplied by
        ``REFERENCE_SNIPPET_S`` over the mean time of the snippets run
        inside the segment, or of the nearest one when none ran inside
        (the host's speed changes within seconds, so the factor is taken
        where the segment ran).  Unscaled without snippets."""
        if not self.snippets:
            return self.segments(spans)
        at = [index for index, _ in self.snippets]
        out = []
        for (a, b), raw in zip(spans, self.segments(spans)):
            lo, hi = bisect.bisect_left(at, a), bisect.bisect_left(at, b)
            if lo == hi:
                # None inside: the nearest snippet before or after.
                lo = hi = min(
                    (k for k in (lo - 1, lo) if 0 <= k < len(at)),
                    key=lambda k: abs(at[k] - a),
                )
                hi += 1
            inside = [spent for _, spent in self.snippets[lo:hi]]
            out.append(raw * REFERENCE_SNIPPET_S * len(inside) / sum(inside))
        return out
