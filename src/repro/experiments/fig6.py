"""Fig. 6 — offline DRL training convergence on the N=3 testbed.

(a) training loss vs. episode: drops quickly, stabilizes before ~200
episodes; (b) average per-episode system cost: decreases and saturates
around 200 episodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.trainer import OfflineTrainer, TrainerConfig
from repro.core.callbacks import TrainingHistory
from repro.experiments.presets import (
    ExperimentPreset,
    TESTBED_PRESET,
    build_env,
    build_env_spec,
)
from repro.utils.rng import SeedLike


@dataclass
class Fig6Result:
    history: TrainingHistory
    trainer: OfflineTrainer

    @property
    def losses(self) -> np.ndarray:
        """Fig. 6(a): combined actor+critic loss per update."""
        return np.asarray(self.history.update_total_losses)

    @property
    def episode_costs(self) -> np.ndarray:
        """Fig. 6(b): average system cost per episode."""
        return np.asarray(self.history.episode_costs)

    def cost_improvement(self) -> float:
        """Relative reduction of cost from early to late training."""
        return self.history.improvement(head=10, tail=10)

    def loss_stabilized(self, tail_frac: float = 0.25) -> bool:
        """Whether the loss variance in the tail is below the head's."""
        losses = self.losses
        if losses.size < 8:
            return False
        k = max(2, int(tail_frac * losses.size))
        return float(np.std(losses[-k:])) <= float(np.std(losses[:k])) + 1e-12


def run_fig6(
    preset: ExperimentPreset = TESTBED_PRESET,
    n_episodes: int = 300,
    seed: SeedLike = 0,
    trainer_config: Optional[TrainerConfig] = None,
    num_envs: int = 1,
    workers: int = 0,
) -> Fig6Result:
    """Train the DRL agent and return the convergence curves.

    ``num_envs``/``workers`` step several envs in lockstep (repro.parallel);
    the defaults train on one env.
    """
    config = trainer_config or TrainerConfig(n_episodes=n_episodes)
    config.n_episodes = n_episodes
    if num_envs != 1 or workers != 0:
        config.num_envs = num_envs
        config.workers = workers
    trainer = OfflineTrainer(
        build_env(preset, seed=seed), config, rng=seed,
        env_spec=build_env_spec(preset, seed=int(seed)),
    )
    history = trainer.train()
    return Fig6Result(history=history, trainer=trainer)
