"""Observation and reward normalization for stable PPO training.

Bandwidth observations span roughly [0.1, 80] Mbit/s and rewards sit
around -7 to -20 cost units; whitening both keeps the tanh networks in
their linear regime.  Both normalizers freeze cleanly for evaluation and
serialize with the agent checkpoint.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.utils.stats import RunningMeanStd


class ObservationNormalizer:
    """Whitens observations with running moments; freezable."""

    def __init__(self, obs_dim: int, clip: float = 10.0, enabled: bool = True):
        self.rms = RunningMeanStd(shape=(obs_dim,))
        self.clip = float(clip)
        self.enabled = bool(enabled)
        self.frozen = False

    def __call__(self, obs: np.ndarray) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64)
        if not self.enabled:
            return obs
        if not self.frozen:
            self.rms.update(obs)
        return self.rms.normalize(obs, clip=self.clip)

    def normalize_frozen(self, obs: np.ndarray) -> np.ndarray:
        """Normalize with current moments, never updating them."""
        obs = np.asarray(obs, dtype=np.float64)
        if not self.enabled:
            return obs
        return self.rms.normalize(obs, clip=self.clip)

    def freeze(self) -> None:
        """Stop updating moments (switch to evaluation / online reasoning)."""
        self.frozen = True

    def unfreeze(self) -> None:
        self.frozen = False

    def state_dict(self) -> Dict[str, np.ndarray]:
        state = self.rms.state_dict()
        state["clip"] = np.asarray(self.clip)
        state["enabled"] = np.asarray(self.enabled)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self.rms.load_state_dict(
            {k: state[k] for k in ("mean", "var", "count")}
        )
        self.clip = float(np.asarray(state["clip"]))
        self.enabled = bool(np.asarray(state["enabled"]))


class PerDeviceNormalizer:
    """Whitens per-device observation blocks with *shared* moments.

    For the permutation-shared policy the observation is ``N`` stacked
    blocks of ``block_dim`` (the H+1 bandwidth slots of one device).
    Normalizing each block with moments of shape ``(block_dim,)`` —
    estimated over every device's block — keeps the normalizer, like the
    policy, independent of the fleet size, so an agent trained at one N
    deploys at any other.
    """

    def __init__(self, block_dim: int, clip: float = 10.0, enabled: bool = True):
        if block_dim <= 0:
            raise ValueError("block_dim must be positive")
        self.block_dim = int(block_dim)
        self.rms = RunningMeanStd(shape=(self.block_dim,))
        self.clip = float(clip)
        self.enabled = bool(enabled)
        self.frozen = False

    def _blocks(self, obs: np.ndarray) -> np.ndarray:
        if obs.size % self.block_dim != 0:
            raise ValueError(
                f"obs size {obs.size} is not a multiple of block dim {self.block_dim}"
            )
        return obs.reshape(-1, self.block_dim)

    def __call__(self, obs: np.ndarray) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64)
        if not self.enabled:
            return obs
        blocks = self._blocks(obs)
        if not self.frozen:
            self.rms.update(blocks)
        out = self.rms.normalize(blocks, clip=self.clip)
        # A 2-D input is a batch of flat observations (one per env row);
        # preserve the batch shape.  1-D input keeps the flat contract.
        return out.reshape(obs.shape) if obs.ndim == 2 else out.ravel()

    def normalize_frozen(self, obs: np.ndarray) -> np.ndarray:
        """Normalize without updating moments (any fleet size)."""
        obs = np.asarray(obs, dtype=np.float64)
        if not self.enabled:
            return obs
        out = self.rms.normalize(self._blocks(obs), clip=self.clip)
        return out.reshape(obs.shape) if obs.ndim == 2 else out.ravel()

    def freeze(self) -> None:
        self.frozen = True

    def unfreeze(self) -> None:
        self.frozen = False

    def state_dict(self) -> Dict[str, np.ndarray]:
        state = self.rms.state_dict()
        state["clip"] = np.asarray(self.clip)
        state["enabled"] = np.asarray(self.enabled)
        state["block_dim"] = np.asarray(self.block_dim)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self.rms.load_state_dict({k: state[k] for k in ("mean", "var", "count")})
        self.clip = float(np.asarray(state["clip"]))
        self.enabled = bool(np.asarray(state["enabled"]))
        self.block_dim = int(np.asarray(state["block_dim"]))


class RewardScaler:
    """Scales rewards by the running std of the discounted return.

    Implements the common "reward scaling" trick: maintain an exponential
    discounted return and divide each reward by its running standard
    deviation.  Means are *not* subtracted (subtracting shifts the
    optimum).  Disable with ``enabled=False`` for the ablation.

    Each of the ``n_envs`` collecting envs keeps its own return chain in
    a fixed array, so rewards from different envs never mix.
    """

    def __init__(self, gamma: float = 0.99, enabled: bool = True, n_envs: int = 1):
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if n_envs <= 0:
            raise ValueError("n_envs must be positive")
        self.gamma = float(gamma)
        self.enabled = bool(enabled)
        self.rms = RunningMeanStd(shape=())
        #: Discounted return of each env's reward chain, zeroed on done.
        self._ret = np.zeros(int(n_envs), dtype=np.float64)
        self.frozen = False

    def scale_batch(self, rewards, dones, env_ids) -> np.ndarray:
        """Scale one reward per env row, each through its own return chain.

        Every row belongs to a distinct env, so the returns advance
        elementwise (``gamma * ret + r``, then zero on done).  All of the
        batch's returns fold into the running variance with one batched
        (Chan) update, and every row is scaled by the post-update std —
        how vectorized PPO implementations treat one synchronous step.
        """
        rewards = np.asarray(rewards, dtype=np.float64)
        if not self.enabled:
            return rewards.copy()
        if not self.frozen:
            rets = self.gamma * self._ret[env_ids] + rewards
            self._ret[env_ids] = np.where(dones, 0.0, rets)
            self.rms.update(rets)
        return rewards / (np.sqrt(self.rms.var) + 1e-8)

    def freeze(self) -> None:
        self.frozen = True

    def state_dict(self) -> Dict[str, np.ndarray]:
        state = self.rms.state_dict()
        state["gamma"] = np.asarray(self.gamma)
        state["enabled"] = np.asarray(self.enabled)
        # One env keeps the scalar layout single-env checkpoints always had.
        state["ret"] = np.asarray(self._ret[0]) if self._ret.size == 1 else self._ret.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self.rms.load_state_dict({k: state[k] for k in ("mean", "var", "count")})
        self.gamma = float(np.asarray(state["gamma"]))
        self.enabled = bool(np.asarray(state["enabled"]))
        self._ret[:] = 0.0
        # Older checkpoints predate the running-return field; a scalar
        # ``ret`` is env 0's chain.
        if "ret" in state:
            ret = np.asarray(state["ret"], dtype=np.float64).ravel()[: self._ret.size]
            self._ret[: ret.size] = ret
        # Older vectorized checkpoints keyed their chains by env id.
        if "ret_vec_ids" in state:
            ids = np.asarray(state["ret_vec_ids"]).ravel()
            vals = np.asarray(state["ret_vec_vals"]).ravel()
            for i, v in zip(ids, vals):
                if i < self._ret.size:
                    self._ret[i] = v
