"""Continuous-time federated-learning system simulator.

Implements the timing/energy dynamics of Section III: per-device compute
time (Eq. 1), upload time under a time-varying trace (Eqs. 2-3),
iteration time as the fleet max (Eq. 5), energy (Eq. 6), wall-clock
chaining (Eq. 11) and the system cost / reward (Eqs. 9, 13).

Fault injection (``repro.faults``) and graceful degradation (round
deadlines, survivor-only aggregation, quorum retries) hook in here; both
are strictly opt-in.
"""

from repro.sim.cost import CostModel
from repro.sim.iteration import (
    IterationResult,
    simulate_iteration,
    upload_times_reference,
)
from repro.sim.system import FLSystem, SystemConfig

__all__ = [
    "CostModel",
    "IterationResult",
    "simulate_iteration",
    "upload_times_reference",
    "FLSystem",
    "SystemConfig",
]
