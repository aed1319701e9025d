"""Deep Deterministic Policy Gradient (the DPG-family alternative).

Section IV.C surveys DPG alongside A2C/TRPO/PPO before settling on PPO.
This module implements DDPG (Lillicrap et al., 2016) over the same nn
substrate so the off-policy deterministic alternative can be ablated:

* deterministic actor ``mu(s)`` with tanh output in [-1, 1] (matching
  :class:`repro.env.wrappers.ActionMapper`'s domain);
* Q-critic ``Q(s, a)`` over the concatenated input, trained on the
  bootstrapped target ``r + gamma * Q'(s', mu'(s'))``;
* target networks updated by Polyak averaging;
* Gaussian exploration noise on the actor output;
* uniform experience replay (:class:`repro.rl.replay.ReplayMemory`).

The actor gradient is exact: ``dQ/da`` is obtained by backpropagating
through the critic to its *input* and slicing the action block, then
flows through the actor MLP (chain rule through the tanh head).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.losses import mse_loss
from repro.nn.modules import MLP
from repro.nn.optim import Adam, clip_grad_norm
from repro.rl.agent import SingleTransitionMixin
from repro.rl.normalization import ObservationNormalizer, RewardScaler
from repro.rl.ppo import UpdateStats
from repro.rl.replay import ReplayMemory
from repro.utils.rng import SeedLike, as_generator


@dataclass
class DDPGConfig:
    """DDPG hyperparameters."""

    obs_dim: int = 1
    act_dim: int = 1
    hidden: Tuple[int, ...] = (64, 64)
    actor_lr: float = 1e-3
    critic_lr: float = 2e-3
    gamma: float = 0.9
    tau: float = 0.01              # Polyak rate
    replay_capacity: int = 50_000
    batch_size: int = 128
    warmup_steps: int = 256
    update_every: int = 2
    exploration_std: float = 0.15
    exploration_decay_to: float = 0.02
    decay_steps: int = 20_000
    max_grad_norm: float = 1.0
    normalize_obs: bool = True
    scale_rewards: bool = True

    def validate(self) -> "DDPGConfig":
        if self.obs_dim <= 0 or self.act_dim <= 0:
            raise ValueError("obs_dim and act_dim must be positive")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.batch_size <= 0 or self.replay_capacity < self.batch_size:
            raise ValueError("need replay_capacity >= batch_size > 0")
        if self.exploration_std < 0 or self.exploration_decay_to < 0:
            raise ValueError("exploration levels must be non-negative")
        return self


def _polyak(target: MLP, online: MLP, tau: float) -> None:
    for pt, po in zip(target.parameters(), online.parameters()):
        pt.data *= 1.0 - tau
        pt.data += tau * po.data


class DDPGAgent(SingleTransitionMixin):
    """DDPG with the same act/observe surface as :class:`PPOAgent`.

    ``act_batch`` returns zero log-probs and values — they have no
    meaning for a deterministic policy but the collector plumbing
    expects the triple.  Collection is single-env: the replay memory is
    filled one transition at a time.
    """

    def __init__(self, config: DDPGConfig, rng: SeedLike = None):
        self.config = config.validate()
        root = as_generator(rng)
        seeds = [np.random.default_rng(int(root.integers(0, 2**63 - 1))) for _ in range(4)]
        c = self.config
        # tanh head keeps actions inside the ActionMapper's [-1, 1] box.
        self.actor = MLP(c.obs_dim, c.hidden, c.act_dim,
                         out_activation="tanh", out_gain=0.01, rng=seeds[0])
        self.actor_target = MLP(c.obs_dim, c.hidden, c.act_dim,
                                out_activation="tanh", out_gain=0.01, rng=seeds[1])
        self.critic = MLP(c.obs_dim + c.act_dim, c.hidden, 1, out_gain=1.0, rng=seeds[2])
        self.critic_target = MLP(c.obs_dim + c.act_dim, c.hidden, 1, out_gain=1.0,
                                 rng=seeds[3])
        self.actor_target.load_state_dict(self.actor.state_dict())
        self.critic_target.load_state_dict(self.critic.state_dict())
        self.actor_opt = Adam(self.actor.parameters(), lr=c.actor_lr)
        self.critic_opt = Adam(self.critic.parameters(), lr=c.critic_lr)
        self.memory = ReplayMemory(c.replay_capacity, c.obs_dim, c.act_dim)
        self.obs_norm = ObservationNormalizer(c.obs_dim, enabled=c.normalize_obs)
        self.reward_scaler = RewardScaler(gamma=c.gamma, enabled=c.scale_rewards)
        self._rng = as_generator(root)
        self.total_steps = 0
        self.total_updates = 0
        self._frozen = False
        # Interface parity with PPOAgent (trainer calls agent.updater.*).
        self.updater = self

    # -- exploration schedule ------------------------------------------------
    def _noise_std(self) -> float:
        c = self.config
        frac = min(self.total_steps / max(c.decay_steps, 1), 1.0)
        return c.exploration_std + frac * (c.exploration_decay_to - c.exploration_std)

    # -- PPOAgent-compatible surface -----------------------------------------
    def act_batch(self, obs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        norm = self.obs_norm(obs)
        actions = self.actor.forward(norm)
        noise = self._rng.standard_normal(actions.shape) * self._noise_std()
        zeros = np.zeros(actions.shape[0])
        return np.clip(actions + noise, -1.0, 1.0), zeros, zeros

    def policy_action(self, obs: np.ndarray) -> np.ndarray:
        norm = self.obs_norm.normalize_frozen(obs)
        return self.actor.forward(np.atleast_2d(norm))[0]

    def observe_batch(
        self, env_ids, obs, actions, rewards, next_obs, dones,
        log_probs=None, values=None,
    ) -> Optional[UpdateStats]:
        if len(env_ids) != 1:
            raise ValueError("DDPGAgent collects one transition at a time")
        c = self.config
        norm_obs = self.obs_norm.normalize_frozen(obs)
        norm_next = self.obs_norm(next_obs)
        scaled = self.reward_scaler.scale_batch(rewards, dones, env_ids)
        self.memory.add(norm_obs[0], actions[0], scaled[0], norm_next[0], dones[0])
        self.total_steps += 1
        if len(self.memory) < c.warmup_steps:
            return None
        if self.total_steps % c.update_every != 0:
            return None
        return self._update()

    # -- the DDPG update --------------------------------------------------------
    def _update(self) -> UpdateStats:
        """One transactional DDPG update (see :mod:`repro.rl.guards`)."""
        from repro.rl.guards import (
            arrays_finite,
            params_finite,
            restore_snapshot,
            take_snapshot,
        )

        c = self.config
        batch = self.memory.sample(c.batch_size, rng=self._rng)
        if not arrays_finite(batch):
            return UpdateStats(skipped=True)
        modules = [self.actor, self.critic, self.actor_target, self.critic_target]
        opts = [self.actor_opt, self.critic_opt]
        snapshot = take_snapshot(modules, opts)
        stats = self._update_impl(batch)
        if not params_finite(modules):
            restore_snapshot(modules, opts, snapshot)
            return UpdateStats(skipped=True)
        return stats

    def _update_impl(self, batch) -> UpdateStats:
        c = self.config
        states = batch["states"]
        actions = batch["actions"]

        # Critic target: r + gamma * Q'(s', mu'(s')).
        next_actions = self.actor_target.forward(batch["next_states"])
        q_next = self.critic_target.forward(
            np.concatenate([batch["next_states"], next_actions], axis=1)
        )[:, 0]
        targets = batch["rewards"] + c.gamma * np.where(batch["dones"], 0.0, q_next)

        # Critic regression.
        q_pred = self.critic.forward(np.concatenate([states, actions], axis=1))
        value_loss, grad = mse_loss(q_pred, targets[:, None])
        self.critic.zero_grad()
        self.critic.backward(grad)
        gnorm_c = clip_grad_norm(self.critic.parameters(), c.max_grad_norm)
        self.critic_opt.step()

        # Actor ascent on Q(s, mu(s)): maximize mean Q  ==  minimize -mean Q.
        mu = self.actor.forward(states)
        q_of_mu = self.critic.forward(np.concatenate([states, mu], axis=1))
        n = states.shape[0]
        # dL/dQ = -1/n; backprop through the critic to its input, slice
        # the action block — that is dL/da.
        self.critic.zero_grad()
        grad_input = self.critic.backward(np.full((n, 1), -1.0 / n))
        grad_action = grad_input[:, c.obs_dim:]
        self.critic.zero_grad()  # discard critic grads from the actor pass
        self.actor.zero_grad()
        self.actor.backward(grad_action)
        gnorm_a = clip_grad_norm(self.actor.parameters(), c.max_grad_norm)
        self.actor_opt.step()

        _polyak(self.actor_target, self.actor, c.tau)
        _polyak(self.critic_target, self.critic, c.tau)
        self.total_updates += 1
        return UpdateStats(
            policy_loss=float(-q_of_mu.mean()),
            value_loss=value_loss,
            entropy=0.0,
            approx_kl=0.0,
            clip_fraction=0.0,
            grad_norm_actor=gnorm_a,
            grad_norm_critic=gnorm_c,
            n_minibatches=1,
        )

    def set_progress(self, progress: float) -> None:
        """Interface parity with the on-policy updaters (no LR decay)."""

    def freeze(self) -> None:
        self.obs_norm.freeze()
        self.reward_scaler.freeze()
        self._frozen = True

    # -- persistence ---------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        state.update(self.actor.state_dict(prefix="actor/mean/"))
        state.update(self.critic.state_dict(prefix="critic/value/"))
        state.update(self.actor_target.state_dict(prefix="actor_target/mean/"))
        state.update(self.critic_target.state_dict(prefix="critic_target/value/"))
        for key, val in self.obs_norm.state_dict().items():
            state[f"obs_norm/{key}"] = val
        for key, val in self.reward_scaler.state_dict().items():
            state[f"reward_scaler/{key}"] = val
        state["meta/total_steps"] = np.asarray(self.total_steps)
        state["meta/total_updates"] = np.asarray(self.total_updates)
        state["meta/obs_dim"] = np.asarray(self.config.obs_dim)
        state["meta/act_dim"] = np.asarray(self.config.act_dim)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        self.actor.load_state_dict(state, prefix="actor/mean/")
        self.critic.load_state_dict(state, prefix="critic/value/")
        # Target networks ship with newer checkpoints; older ones fall
        # back to the (slightly lossy) online-weight copy.
        if any(k.startswith("actor_target/") for k in state):
            self.actor_target.load_state_dict(state, prefix="actor_target/mean/")
            self.critic_target.load_state_dict(state, prefix="critic_target/value/")
        else:
            self.actor_target.load_state_dict(state, prefix="actor/mean/")
            self.critic_target.load_state_dict(state, prefix="critic/value/")
        self.obs_norm.load_state_dict(
            {k.split("/", 1)[1]: v for k, v in state.items() if k.startswith("obs_norm/")}
        )
        scaler = {
            k.split("/", 1)[1]: v
            for k, v in state.items()
            if k.startswith("reward_scaler/")
        }
        if scaler:
            self.reward_scaler.load_state_dict(scaler)
        self.total_steps = int(np.asarray(state["meta/total_steps"]))
        if "meta/total_updates" in state:
            self.total_updates = int(np.asarray(state["meta/total_updates"]))

    def save(self, path: str) -> None:
        from repro.utils.serialization import save_npz_state

        save_npz_state(path, self.state_dict())

    def load(self, path: str) -> None:
        from repro.utils.serialization import load_npz_state

        self.load_state_dict(load_npz_state(path))
